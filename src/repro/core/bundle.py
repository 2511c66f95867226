"""The trained sizing model bundle: transformer + tokenizer + LUTs.

Everything the inference path needs, packaged for persistence: after the
one-time training phase the bundle is saved to a directory and reloaded for
sizing sessions, mirroring the paper's deployment model (all SPICE cost in
training; inference uses only the transformer and the precomputed LUTs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..datagen.dataset import TokenizedCorpus
from ..datagen.serialize import ParsedParams, SequenceBuilder, SequenceConfig, SequenceFormat
from ..lut import LookupTable
from ..nlp import RestrictedBPE, Vocabulary
from ..topologies import OTATopology, topology_by_name
from ..transformer import Transformer
from .specs import DesignSpec

__all__ = ["DECODE_SLACK_DIVISOR", "SizingModel", "decode_budget"]

#: Stage II decode budget rule.  A topology's budget is its longest
#: tokenized training target plus ``ceil(longest / DECODE_SLACK_DIVISOR)``
#: tokens of slack plus 2 for BOS and EOS -- the units of
#: ``TransformerConfig.max_len``.  The decoder text is a fixed template
#: per topology, so a good decode is about as long as the training
#: targets; the slack covers values that tokenize longer, and the budget
#: bounds what a decode that never emits EOS costs.
DECODE_SLACK_DIVISOR = 4


def decode_budget(longest_target: int) -> int:
    """Decode budget (BOS and EOS included) for a longest target length."""
    return longest_target + -(-longest_target // DECODE_SLACK_DIVISOR) + 2


@dataclass
class SizingModel:  # checks: process-shared
    """Trained artifacts of Stages I-III.

    Marked ``process-shared``: the ROADMAP's multiprocess sharding will
    hand this bundle to worker processes, so the fork-safety rule keeps
    it (transitively) free of locks, threads, files, and bound callables.

    ``decode_budgets`` maps a topology to its Stage II decode budget
    (see :func:`decode_budget`); topologies without one decode to
    ``TransformerConfig.max_len``.
    """

    transformer: Transformer
    bpe: RestrictedBPE
    vocab: Vocabulary
    sequence_config: SequenceConfig
    builders: dict[str, SequenceBuilder]
    luts: dict[str, LookupTable]
    decode_budgets: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_corpus(
        cls,
        transformer: Transformer,
        corpus: TokenizedCorpus,
        luts: dict[str, LookupTable],
    ) -> SizingModel:
        any_builder = next(iter(corpus.builders.values()))
        return cls(
            transformer=transformer,
            bpe=corpus.bpe,
            vocab=corpus.vocab,
            sequence_config=any_builder.config,
            builders=dict(corpus.builders),
            luts=luts,
            decode_budgets={
                name: decode_budget(max(len(pair.target) for pair in pairs))
                for name, pairs in corpus.pairs_by_topology.items()
                if pairs
            },
        )

    def builder(self, topology_name: str) -> SequenceBuilder:
        if topology_name not in self.builders:
            topology = topology_by_name(topology_name)
            self.builders[topology_name] = SequenceBuilder(topology, self.sequence_config)
        return self.builders[topology_name]

    def lut_for(self, topology: OTATopology, group_name: str) -> LookupTable:
        tech = topology.group(group_name).tech
        if tech.name not in self.luts:
            raise KeyError(f"no LUT for technology {tech.name!r}")
        return self.luts[tech.name]

    # ------------------------------------------------------------------
    # Inference (Stages I + II)
    # ------------------------------------------------------------------
    def decode_limit(self, topology_name: str, max_len: int | None = None) -> int:
        """Decode limit of one topology's rows, in ``max_len`` units.

        The topology's budget, or ``TransformerConfig.max_len`` when it
        has none; an explicit ``max_len`` caps either.
        """
        limit = self.decode_budgets.get(topology_name, self.transformer.config.max_len)
        return limit if max_len is None else min(limit, max_len)

    def predict_params(
        self, topology_name: str, spec: DesignSpec, max_len: int | None = None
    ) -> tuple[ParsedParams, str]:
        """Specs -> encoder sequence -> transformer -> parsed parameters.

        Returns the parsed per-device parameters and the raw decoded text
        (useful for inspection and failure analysis).  A batch of one of
        :meth:`predict_params_many`, so it decodes to the same limit.
        """
        return self.predict_params_many({topology_name: [spec]}, max_len)[topology_name][0]

    def predict_params_many(
        self,
        specs_by_topology: dict[str, list[DesignSpec]],
        max_len: int | None = None,
    ) -> dict[str, list[tuple[ParsedParams, str]]]:
        """Cross-topology batched inference: one decode for everything.

        One transformer serves every topology, so specs of *different*
        topologies can share a single padded greedy decode — only the
        encoder texts and the output parsers differ per topology.  Row
        independence (padding mask + per-sequence EOS) keeps each decoded
        text identical to the single-spec path.

        Each row stops at its topology's :meth:`decode_limit`.  The
        fused decode runs to the largest limit in the batch and cuts
        every row to its own limit - 1 ids; greedy decoding is causal,
        so that equals decoding the row alone at its own limit.
        """
        sources: list[list[int]] = []
        limits: list[int] = []
        for name, specs in specs_by_topology.items():
            builder = self.builder(name)
            sources.extend(
                self.vocab.encode(
                    self.bpe.encode(builder.encoder_text(s.gain_db, s.f3db_hz, s.ugf_hz))
                )
                for s in specs
            )
            limits.extend([self.decode_limit(name, max_len)] * len(specs))
        results: dict[str, list[tuple[ParsedParams, str]]] = {
            name: [] for name in specs_by_topology
        }
        if not sources:
            return results
        longest = max(len(ids) for ids in sources)
        pad_id = self.vocab.pad_id
        src = np.full((len(sources), longest), pad_id, dtype=np.int64)
        src_pad = np.ones((len(sources), longest), dtype=bool)
        for row, ids in enumerate(sources):
            src[row, : len(ids)] = ids
            src_pad[row, : len(ids)] = False
        decoded = self.transformer.greedy_decode(
            src, src_pad, self.vocab.bos_id, self.vocab.eos_id, max_len=max(limits)
        )
        cursor = 0
        for name, specs in specs_by_topology.items():
            builder = self.builder(name)
            for row in range(cursor, cursor + len(specs)):
                text = self.vocab.decode_to_text(decoded[row][: limits[row] - 1])
                results[name].append((builder.parse_decoder_text(text), text))
            cursor += len(specs)
        return results

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        self.transformer.save(path / "transformer.npz")
        meta = {
            "merges": [list(pair) for pair in self.bpe.merges],
            "num_merges": self.bpe.num_merges,
            "vocab": self.vocab.id_to_token,
            "sequence_config": {
                "decoder_format": self.sequence_config.decoder_format.value,
                "encoder_max_paths": self.sequence_config.encoder_max_paths,
                "specs_per_path": self.sequence_config.specs_per_path,
                "include_paths_in_encoder": self.sequence_config.include_paths_in_encoder,
            },
            "topologies": sorted(self.builders),
            "luts": sorted(self.luts),
            "decode_budgets": dict(sorted(self.decode_budgets.items())),
        }
        (path / "bundle.json").write_text(json.dumps(meta, allow_nan=False))
        for tech_name, lut in self.luts.items():
            lut.save(path / f"lut_{tech_name}.npz")

    def export_shared_artifact(self, directory: str | Path):
        """Export a mmap-friendly artifact (see :mod:`repro.shard.artifact`).

        Unlike :meth:`save`'s ``.npz`` bundles (zip archives, which
        ``np.load`` cannot memory-map), the shared artifact is a single
        raw buffer that N sharding workers map read-only at ~1x total
        model memory.
        """
        from ..shard.artifact import export_artifact

        return export_artifact(self, directory)

    @classmethod
    def load_shared(cls, directory: str | Path) -> SizingModel:
        """Load a model whose arrays are read-only mmap views.

        Counterpart of :meth:`export_shared_artifact`; see
        :func:`repro.shard.artifact.load_shared_model`.
        """
        from ..shard.artifact import load_shared_model

        return load_shared_model(directory)

    @classmethod
    def load(cls, directory: str | Path) -> SizingModel:
        path = Path(directory)
        meta = json.loads((path / "bundle.json").read_text())
        transformer = Transformer.load(path / "transformer.npz")

        bpe = RestrictedBPE.from_merges(meta["merges"], num_merges=meta["num_merges"])

        vocab = Vocabulary()
        for token in meta["vocab"]:
            vocab.add(token)

        config_meta = meta["sequence_config"]
        sequence_config = SequenceConfig(
            decoder_format=SequenceFormat(config_meta["decoder_format"]),
            encoder_max_paths=config_meta["encoder_max_paths"],
            specs_per_path=config_meta["specs_per_path"],
            include_paths_in_encoder=config_meta["include_paths_in_encoder"],
        )
        builders = {
            name: SequenceBuilder(topology_by_name(name), sequence_config)
            for name in meta["topologies"]
        }
        luts = {
            tech_name: LookupTable.load(path / f"lut_{tech_name}.npz")
            for tech_name in meta["luts"]
        }
        return cls(
            transformer=transformer,
            bpe=bpe,
            vocab=vocab,
            sequence_config=sequence_config,
            builders=builders,
            luts=luts,
            # Optional: bundles saved before budgets existed decode to
            # ``TransformerConfig.max_len``.
            decode_budgets=meta.get("decode_budgets", {}),
        )
