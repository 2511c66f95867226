"""The offline workloads: closed-loop batches through ``SizingEngine.size_batch``.

Each workload builds its system at set-up (an oracle model or a freshly
trained tiny transformer), then makes request batches from the run's
seed.  A timed pass sends one batch, waits for its responses, and sends
the next, on a fresh engine, until the time is up.  Every request of a
batch gets the batch's wall time as its latency: the client submitted
the whole batch at once and got every answer when ``size_batch``
returned.

``check_responses`` is the correctness gate, run outside the timed
region: it re-measures designs with the scalar ``OTATopology.measure``
and requires each successful response to meet its spec.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from collections.abc import Iterator

import numpy as np

from repro.core.specs import DesignSpec
from repro.service import SizingEngine, SizingRequest
from repro.service.cache import ResultCache
from repro.topologies import available_topologies, topology_by_name

from calibration import Sampler
from oracle import build_oracle
from spans import Tracer, install_runtime_layers, install_setup_layers

#: Seed of the system under test (oracle designs; the training profile
#: carries its own).  The run's ``--seed`` only shapes the requests.
SYSTEM_SEED = 2025
#: Random designs measured per topology for the nearest-neighbour oracle.
ORACLE_DESIGNS = 100
CORNERS = ("tt", "ss", "ff")
#: Failed responses per pass whose best design is re-measured too.
FAILED_RECHECKS = 4


class UniqueSpecs:
    """Draws requests whose result-cache keys never repeat, so the cache
    only ever misses (its overhead shows, its savings do not)."""

    def __init__(self):
        self.keys: set = set()

    def accept(self, request: SizingRequest) -> bool:
        key = ResultCache.key(request)
        if key in self.keys:
            return False
        self.keys.add(key)
        return True


class OfflineWorkload:
    """Base: a system built at set-up and an endless stream of batches."""

    name = ""
    #: Wall-time limit of one request for ``slo_attainment`` (ms).
    slo_ms = 0.0
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setup_repeats = 3

    def setup(self, tracer: Tracer | None = None):
        raise NotImplementedError

    def batches(self, system, seed: int) -> Iterator[list[SizingRequest]]:
        raise NotImplementedError

    def engine(self, system) -> SizingEngine:
        return SizingEngine(system)


class CopilotAC(OfflineWorkload):
    """Nominal (dc, ac) copilot flow over every registered topology.

    Each batch holds one request per (topology, spec class).  The classes
    place the spec relative to a measured oracle design, so requests take
    1 to 6 rounds: just under the design (1 round), loosely below it,
    around it, and with bandwidth beyond it (mostly 6 rounds, failing).
    """

    name = "copilot-ac"
    slo_ms = 3000.0
    #: Per-class (low, high) bounds of the factors on (gain, f3dB, UGF).
    classes = (
        ((0.97, 0.97, 0.97), (0.99, 0.99, 0.99)),
        ((0.88, 0.88, 0.88), (0.92, 0.92, 0.92)),
        ((1.0, 1.0, 1.0), (1.05, 1.05, 1.05)),
        ((0.98, 1.25, 1.25), (1.0, 1.35, 1.35)),
    )

    def __init__(self):
        self.topologies = sorted(available_topologies())

    def setup(self, tracer=None):
        return build_oracle(self.topologies, ORACLE_DESIGNS, SYSTEM_SEED)

    def batches(self, system, seed):
        # The source designs follow a fixed order; the seed moves each
        # spec within its class.  Runs with different seeds then do
        # comparable work, so their spread shows the program, not the draw.
        sources = np.random.default_rng(SYSTEM_SEED)
        rng = np.random.default_rng(seed)
        unique = UniqueSpecs()
        index = 0
        while True:
            batch = []
            for name in self.topologies:
                table = system.tables[name]
                for low, high in self.classes:
                    while True:
                        source = table.metrics[sources.integers(len(table))]
                        request = SizingRequest(
                            topology=name,
                            spec=DesignSpec(*(source * rng.uniform(low, high))),
                            id=f"{self.name}-{index}",
                        )
                        if unique.accept(request):
                            break
                    batch.append(request)
                    index += 1
            yield batch


class CopilotPVTTran(OfflineWorkload):
    """The copilot flow judged at tt/ss/ff with transient targets.

    Specs come from measured sweeps of oracle designs: the AC triple at
    90-100% of the design's worst corner, plus slew, settling and
    overshoot targets with some slack.  The nominal-keyed oracle always
    proposes designs whose SS corner falls short, so nearly every request
    runs all 6 rounds: a steady, transient-dominated load.  One topology
    (5T-OTA) keeps a batch near 3 s on two cores.
    """

    name = "copilot-pvt-tran"
    slo_ms = 12000.0
    topology = "5T-OTA"
    batch_size = 12
    pool_size = 16

    def setup(self, tracer=None):
        return build_oracle([self.topology], ORACLE_DESIGNS, SYSTEM_SEED)

    def batches(self, system, seed):
        rng = np.random.default_rng(seed)
        table = system.tables[self.topology]
        picks = rng.choice(len(table), self.pool_size, replace=False)
        sweeps = table.topology.measure_many(
            [table.widths[i] for i in picks], corners=CORNERS, analyses=("dc", "ac", "tran")
        )
        pool = []
        for sweep in sweeps:
            metrics = list(sweep.metrics_by_corner().values()) if sweep.ok else []
            if not metrics or not all(_positive_tran(m) for m in metrics):
                continue
            pool.append({
                name: min(getattr(m, name) for m in metrics)
                for name in ("gain_db", "f3db_hz", "ugf_hz", "slew_v_per_s")
            } | {
                name: max(getattr(m, name) for m in metrics)
                for name in ("settling_time_s", "overshoot_frac")
            })
        if not pool:
            raise RuntimeError("no source design measured at every corner")
        unique = UniqueSpecs()
        index = 0
        while True:
            batch = []
            while len(batch) < self.batch_size:
                worst = pool[rng.integers(len(pool))]
                scale = rng.uniform(0.9, 1.0)
                request = SizingRequest(
                    topology=self.topology,
                    spec=DesignSpec(
                        worst["gain_db"] * scale,
                        worst["f3db_hz"] * scale,
                        worst["ugf_hz"] * scale,
                        slew_v_per_s=worst["slew_v_per_s"] * rng.uniform(0.8, 0.9),
                        settling_time_s=worst["settling_time_s"] * rng.uniform(1.2, 1.5),
                        overshoot_frac=max(worst["overshoot_frac"] * 1.5, 0.05),
                    ),
                    id=f"{self.name}-{index}",
                    corners=CORNERS,
                )
                if unique.accept(request):
                    batch.append(request)
                    index += 1
            yield batch


def _positive_tran(metrics) -> bool:
    return metrics.is_valid() and all(
        value is not None and math.isfinite(value) and value > 0
        for value in (metrics.gain_db, metrics.slew_v_per_s, metrics.settling_time_s)
    )


class TransformerDecode(OfflineWorkload):
    """A tiny transformer trained at set-up (the bench ``tiny`` profile).

    The model keeps its configured ``max_len``, so rows that never emit
    EOS decode to the limit every round: the known defect shows in the
    decode share and the parse ratio.  Requests get one copilot round
    (the paper's single-inference flow): at the default six, every round
    of a never-parsing request decodes to the limit again and one batch
    would outlast a run.
    """

    name = "transformer-decode"
    slo_ms = 20000.0
    #: Datagen plus training takes ~13 s; two keep a run near a minute.
    setup_repeats = 2
    batch_size = 8
    topologies = ("5T-OTA", "CM-OTA", "2S-OTA")

    def setup(self, tracer=None):
        from repro.core.pipeline import BENCHMARK_CONFIG, train_sizing_model

        config = replace(
            BENCHMARK_CONFIG,
            designs_per_topology=(("5T-OTA", 40), ("CM-OTA", 30), ("2S-OTA", 30)),
            epochs=2,
            d_model=32,
            n_heads=4,
            d_ff=48,
        )
        if tracer is not None:
            install_setup_layers(tracer)
        try:
            return train_sizing_model(config)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def engine(self, system):
        return SizingEngine(system.model)

    def batches(self, system, seed):
        rng = np.random.default_rng(seed)
        unique = UniqueSpecs()
        index = 0
        while True:
            batch = []
            while len(batch) < self.batch_size:
                name = self.topologies[index % len(self.topologies)]
                records = system.val_records[name]
                record = records[rng.integers(len(records))]
                metrics = np.array([record.gain_db, record.f3db_hz, record.ugf_hz])
                request = SizingRequest(
                    topology=name,
                    spec=DesignSpec(*(metrics * rng.uniform(0.9, 1.0, 3))),
                    id=f"{self.name}-{index}",
                    max_iterations=1,
                )
                if unique.accept(request):
                    batch.append(request)
                    index += 1
            yield batch


WORKLOADS = {w.name: w for w in (CopilotAC, CopilotPVTTran, TransformerDecode)}


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
class Pass:
    """What one timed pass sent, got back and how long each batch took."""

    def __init__(self):
        self.batches: list[list[SizingRequest]] = []
        self.responses: list = []
        #: Wall time of each batch, calibration samples included.
        self.raw_seconds: list[float] = []
        #: Each batch's time at reference machine speed (see ``calibration``).
        self.seconds: list[float] = []
        self.engine: SizingEngine | None = None

    @property
    def requests(self) -> list[SizingRequest]:
        return [r for batch in self.batches for r in batch]


def run_pass(workload, system, batches, seconds=None, count=None, tracer=None) -> Pass:
    """Send batches on a fresh engine until ``seconds`` pass or ``count``
    batches are done, sampling the calibration kernel throughout."""
    result = Pass()
    engine = result.engine = workload.engine(system)
    if tracer is not None:
        install_runtime_layers(tracer, engine)
    try:
        with Sampler() as sampler:
            start = time.perf_counter()
            while True:
                if count is not None and len(result.batches) >= count:
                    break
                if seconds is not None and time.perf_counter() - start >= seconds:
                    break
                batch = next(batches) if count is None else batches[len(result.batches)]
                sent = time.perf_counter()
                responses = engine.size_batch(batch)
                done = time.perf_counter()
                result.raw_seconds.append(done - sent)
                result.seconds.append(sampler.reference_seconds(sent, done))
                result.batches.append(batch)
                result.responses.extend(responses)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def warm_up(workload, system, batch: list[SizingRequest]) -> None:
    """One round of ``batch`` on a throwaway engine: imports, lazy
    topology construction and first-touch allocations happen here."""
    workload.engine(system).size_batch(
        [replace(request, id=f"warm-up-{request.id}", max_iterations=1) for request in batch]
    )


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _same_metrics(reported, measured) -> bool:
    a = np.concatenate([reported.as_array(), reported.tran_as_array()])
    b = np.concatenate([measured.as_array(), measured.tran_as_array()])
    return bool(np.allclose(a, b, rtol=1e-9, atol=0.0, equal_nan=True))


def check_responses(requests, responses) -> list[str]:
    """Problems found in ``responses`` (empty when all are correct).

    Every successful response is re-measured with the scalar
    ``OTATopology.measure`` at each of its corners: the measurement must
    match the reported metrics and meet the request's spec.  Up to
    ``FAILED_RECHECKS`` failed responses that report a best design are
    re-measured as well; those must match and must not meet the spec.
    """
    problems: list[str] = []
    if len(requests) != len(responses):
        return [f"{len(responses)} responses for {len(requests)} requests"]
    topologies: dict = {}
    rechecked = 0
    for request, response in zip(requests, responses, strict=True):
        where = request.id
        if response.request_id != request.id:
            problems.append(f"{where}: answered as {response.request_id}")
            continue
        if response.error is not None:
            continue  # counted as failed, not as a wrong answer
        corners = request.corners or (None,)
        if response.iterations > request.iteration_budget:
            problems.append(f"{where}: {response.iterations} rounds over budget")
        if response.spice_simulations > response.iterations * len(corners):
            problems.append(f"{where}: more simulations than rounds x corners")
        if response.widths is None:
            if response.success:
                problems.append(f"{where}: success without widths")
            continue
        if not response.success:
            if rechecked >= FAILED_RECHECKS:
                continue
            rechecked += 1
        if request.topology not in topologies:
            topologies[request.topology] = topology_by_name(request.topology)
        topology = topologies[request.topology]
        met = True
        for corner in corners:
            measured = topology.measure(
                response.widths, corner=corner, analyses=request.analyses
            ).metrics
            reported = (
                response.metrics if corner is None
                else response.corner_metrics[corner.name]
            )
            if not _same_metrics(reported, measured):
                at = corner.name if corner is not None else "nominal"
                problems.append(f"{where}: re-measured metrics differ at {at}")
            met = met and request.spec.satisfied(measured, rel_tol=request.rel_tol)
        if met != response.success:
            problems.append(f"{where}: success={response.success} but re-measure says {met}")
    return problems
