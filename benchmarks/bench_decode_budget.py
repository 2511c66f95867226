"""Bounded Stage II decode: per-topology budgets vs decoding to ``max_len``.

Model-free smoke: a random-init transformer (``max_len`` 1024) whose EOS
logit is suppressed stands in for a model that never emits EOS, the case
the budgets bound.  One fused batch of 8 rows (4 5T-OTA at budget 95,
4 CM-OTA at budget 154) goes through ``SizingModel.predict_params_many``
twice: with the budgets, and without them (every row decodes 1023 ids).
Asserts every budgeted row equals the 1024-step row cut to its budget
- 1 ids, and that the budgeted decode is >= 4x faster.  Writes
``BENCH_decode.json``.

    PYTHONPATH=src python -m pytest benchmarks/bench_decode_budget.py -q
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core import DesignSpec
from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.nlp import RestrictedBPE
from repro.topologies import topology_by_name
from repro.transformer import Transformer, TransformerConfig

from conftest import write_bench_json, write_result

#: The bench ``tiny`` corpus's budgets (longest target 74 and 121 ids).
BUDGETS = {"5T-OTA": 95, "CM-OTA": 154}
ROWS_PER_TOPOLOGY = 4
REPEATS = 3


def _model() -> SizingModel:
    config = SequenceConfig(encoder_max_paths=1)
    builders = {name: SequenceBuilder(topology_by_name(name), config) for name in BUDGETS}
    lines = [
        builder.encoder_text(gain, 10.0 ** f3db, 10.0 ** ugf)
        for builder in builders.values()
        for gain, f3db, ugf in ((22.5, 6.2, 7.7), (31.0, 5.4, 8.1), (40.25, 4.9, 8.6))
    ]
    bpe = RestrictedBPE(num_merges=60)
    bpe.train(lines)
    vocab = bpe.build_vocabulary(lines)
    transformer = Transformer(
        TransformerConfig(
            vocab_size=len(vocab), d_model=32, n_heads=4, d_ff=48, dropout=0.0,
            max_len=1024, seed=0,
        )
    )
    transformer.out_proj.bias[vocab.eos_id] = -1e9
    return SizingModel(
        transformer=transformer, bpe=bpe, vocab=vocab, sequence_config=config,
        builders=builders, luts={}, decode_budgets=dict(BUDGETS),
    )


def _timed_decode(model: SizingModel, specs_by_topology):
    """Best-of-``REPEATS`` wall time, the texts, and the decoded id rows."""
    decoded = []
    greedy_decode = model.transformer.greedy_decode

    def recording(*args, **kwargs):
        decoded[:] = greedy_decode(*args, **kwargs)
        return decoded

    model.transformer.greedy_decode = recording
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            outputs = model.predict_params_many(specs_by_topology)
            times.append(time.perf_counter() - start)
    finally:
        del model.transformer.greedy_decode
    texts = [text for name in specs_by_topology for _, text in outputs[name]]
    return min(times), texts, list(decoded)


def test_decode_budget():
    bounded = _model()
    unbounded = replace(bounded, decode_budgets={})
    rng = np.random.default_rng(3)
    specs_by_topology = {
        name: [
            DesignSpec(rng.uniform(20, 40), 10.0 ** rng.uniform(5, 6.5), 10.0 ** rng.uniform(7, 8.5))
            for _ in range(ROWS_PER_TOPOLOGY)
        ]
        for name in BUDGETS
    }
    limits = [BUDGETS[name] for name in BUDGETS for _ in range(ROWS_PER_TOPOLOGY)]

    unbounded_s, _, full_ids = _timed_decode(unbounded, specs_by_topology)
    bounded_s, texts, fused_ids = _timed_decode(bounded, specs_by_topology)
    assert [len(ids) for ids in full_ids] == [1023] * len(limits)  # never EOS
    assert [len(ids) for ids in fused_ids] == [max(limits) - 1] * len(limits)
    for limit, full, fused, text in zip(limits, full_ids, fused_ids, texts, strict=True):
        assert fused[: limit - 1] == full[: limit - 1]
        assert text == bounded.vocab.decode_to_text(full[: limit - 1])
    speedup = unbounded_s / bounded_s

    write_result(
        "decode_budget",
        [
            "Bounded decode -- 8 never-EOS rows, budgets "
            + ", ".join(f"{name} {budget}" for name, budget in BUDGETS.items()),
            "",
            f"decode to max_len 1024: {unbounded_s:.3f} s per batch",
            f"decode to the budgets:  {bounded_s:.3f} s per batch ({speedup:.1f}x)",
        ],
    )
    write_bench_json(
        "decode",
        {
            "rows": len(limits),
            "budgets": BUDGETS,
            "max_len": bounded.transformer.config.max_len,
            "unbounded_s": round(unbounded_s, 4),
            "bounded_s": round(bounded_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 4.0
