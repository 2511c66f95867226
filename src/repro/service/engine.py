"""The batched sizing engine (Stages I-IV over many requests at once).

One :class:`SizingEngine` owns one trained :class:`~repro.core.SizingModel`
and serves any number of topologies through the registry.  The request
loop is *round based*: every copilot iteration, all still-active requests
are grouped by topology (serialization and parsing are per-topology) and
translated in one greedy decode whose batch spans the whole round — one
model serves every topology, so the fusion crosses topology boundaries
(Stage I/II).  Width estimation (Stage III) then runs once per LUT for
the whole round: every device of every request that parsed goes through
one vectorised Algorithm 1 call (:func:`~repro.lut.estimate_widths`).
The round's verifiable candidates are verified together: one
``measure_many`` call per topology through the engine's pluggable
:class:`~repro.solvers.EvalBackend` (Stage IV), so the verification
SPICE simulations of a round share one stacked complex MNA factorization
instead of running one at a time.  Throughput therefore scales with the
batch size instead of with Python loop iterations, while per-request
semantics — margin allocation, retry nudges, iteration accounting,
per-candidate ``ConvergenceError`` isolation — stay identical to the
sequential ``SizingFlow.size`` path (the parity tests pin bit-identical
decoded texts, widths and traces).

A bounded LRU cache keyed by (topology, quantized spec) absorbs repeated
and near-duplicate requests without touching the transformer at all.

Requests may also name any registered solver (``method="pso"`` etc., see
:mod:`repro.solvers`): those are dispatched to the unified solver API --
running SPICE-in-the-loop on the batched evaluation backend -- and come
back in the same response schema, so one service endpoint serves copilot
and baseline sizing alike.

Requests with a ``corners`` axis are verified **worst-case across PVT
corners**: each round's candidates are measured at every corner (the
population x corner block stacks into the same batched solves), margin
allocation chases the binding worst corner, and success requires every
corner to meet the spec.  The corner axis is part of the result-cache
key and of the in-batch coalescing key, so corner sets never cross-talk.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, fields
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..core.bundle import SizingModel
from ..core.flow import IterationTrace, SizingResult
from ..core.margin import tighten_spec
from ..core.specs import DesignSpec
from ..datagen.serialize import ParsedParams
from ..lut import LookupTable, estimate_widths
# Unused here, but kept bound: perfbench/spans.py wraps it by this name.
from ..lut import estimate_width  # noqa: F401
from ..solvers.backend import BatchedBackend, EvalBackend
from ..spice import TRAN_METRIC_DIRECTIONS, PerformanceMetrics
from ..topologies import MeasureOutcome, OTATopology, topology_by_name
from .cache import ResultCache
from .requests import SizingRequest, SizingResponse

__all__ = ["SizingEngine", "EngineStats"]

#: Retry nudge applied when an iteration produced nothing verifiable
#: (unparseable decode, inconsistent widths, or a non-converging design).
_NUDGE = {"gain_db": 1.01, "f3db_hz": 1.02, "ugf_hz": 1.02}

#: Predicted device parameters in Algorithm 1's argument order.
_PARAM_NAMES = ("gm", "gds", "cds", "cgs", "id")


def _derated_spec(spec: DesignSpec, rel_tol: float) -> DesignSpec:
    """The spec a registry-dispatched solver chases under ``rel_tol``.

    Loosens every target the way Stage IV's ``satisfied(rel_tol=...)``
    does: minimum targets (the AC triple, slew rate) derate down by
    ``1 - rel_tol``, maximum targets (settling time, overshoot) inflate
    up by ``1 + rel_tol``.
    """
    if not rel_tol:
        return spec
    derate = 1.0 - rel_tol
    factors = {"gain_db": derate, "f3db_hz": derate, "ugf_hz": derate}
    for name, direction in TRAN_METRIC_DIRECTIONS.items():
        factors[name] = derate if direction == "min" else 1.0 + rel_tol
    return spec.scaled(factors)


@dataclass
class EngineStats:
    """Serving counters, cumulative over the engine's lifetime.

    Safe under concurrent ``size_batch`` callers: writers go through
    :meth:`add` and readers through :meth:`snapshot` / :meth:`as_dict`,
    all serialized on one internal lock — the serving layer's ``/stats``
    endpoint reads while the dispatcher (or several library threads)
    writes, and a torn read must never show e.g. ``cache_hits`` ahead of
    ``requests``.  Field access stays plain for single-threaded callers
    and the existing tests.
    """

    requests: int = 0
    cache_hits: int = 0
    #: In-batch exact duplicates coalesced onto a leader's computation
    #: (no cache lookup involved, so not counted under ``cache_hits``).
    coalesced: int = 0
    batches: int = 0
    inference_calls: int = 0
    inference_sequences: int = 0
    inference_seconds: float = 0.0
    spice_simulations: int = 0
    solver_requests: int = 0

    def __post_init__(self) -> None:
        # Not a dataclass field: equality/repr compare counters only.
        self._lock = threading.Lock()

    def add(self, **deltas: float) -> None:
        """Atomically increment the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> EngineStats:
        """A consistent point-in-time copy (its own independent lock)."""
        with self._lock:
            return EngineStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def as_dict(self) -> dict[str, Any]:
        """Atomic JSON-ready snapshot, field-declaration order."""
        copy = self.snapshot()
        return {f.name: getattr(copy, f.name) for f in fields(copy)}


class _ActiveRequest:
    """Mutable per-request state while its copilot loop is in flight."""

    __slots__ = (
        "request", "topology", "original", "current", "trace", "decoded_texts",
        "spice_count", "iteration", "best", "best_shortfall", "start", "result",
        "best_corner_metrics", "best_worst_corner",
    )

    def __init__(self, request: SizingRequest, topology: OTATopology):
        self.request = request
        self.topology = topology
        self.original = request.spec
        self.current = request.spec
        self.trace: list[IterationTrace] = []
        self.decoded_texts: list[str] = []
        self.spice_count = 0
        self.iteration = 0
        self.best: tuple[dict[str, float], PerformanceMetrics] | None = None
        self.best_shortfall = float("inf")
        #: Per-corner measurements of the best iterate (corner requests).
        self.best_corner_metrics: dict[str, PerformanceMetrics] | None = None
        self.best_worst_corner: str | None = None
        self.start = time.perf_counter()
        self.result: SizingResult | None = None


class SizingEngine:
    """Batched request/response front end over one trained sizing model."""

    def __init__(
        self,
        model: SizingModel,
        cache_size: int = 256,
        width_bounds: tuple[float, float] = (0.1e-6, 200e-6),
        max_candidate_spread: float = 5.0,
        backend: EvalBackend | None = None,
        cache: object | None = None,
    ):
        self.model = model
        self.width_bounds = width_bounds
        #: Stage IV evaluation strategy, shared with registry-dispatched
        #: solvers so SPICE-call accounting flows through one place.
        self.backend = backend if backend is not None else BatchedBackend()
        #: Reject an inference whose Algorithm-1 width candidates disagree
        #: by more than this relative spread: wildly inconsistent predicted
        #: parameters cannot describe any physical device, so re-inferring
        #: beats verifying a garbage design.
        self.max_candidate_spread = max_candidate_spread
        #: ``cache=`` injects any object with the ``ResultCache`` get/put
        #: protocol — notably a :class:`SharedResultCache` so sharding
        #: workers (and single-process engines pointed at the same
        #: ``--cache-dir``) share one cross-process store.  Default: a
        #: private in-memory LRU, or none when ``cache_size`` is 0.
        if cache is not None:
            self.cache = cache
        else:
            self.cache = ResultCache(cache_size) if cache_size else None
        self.stats = EngineStats()
        self._topologies: dict[str, OTATopology] = {}
        # Lazy topology construction may race under concurrent callers;
        # building twice would fork per-topology caches.
        self._topologies_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Topology resolution
    # ------------------------------------------------------------------
    def topology(self, name: str) -> OTATopology:
        """The engine's instance of a registered topology (lazily built)."""
        with self._topologies_lock:
            if name not in self._topologies:
                self._topologies[name] = topology_by_name(name)
            return self._topologies[name]

    def adopt_topology(self, topology: OTATopology) -> None:
        """Serve an already-instantiated topology (shares its caches)."""
        with self._topologies_lock:
            self._topologies[topology.name] = topology

    # ------------------------------------------------------------------
    # Stage III: Algorithm 1 through the LUTs
    # ------------------------------------------------------------------
    def widths_from_params(
        self, topology: OTATopology, parsed_values: dict[str, dict[str, float]]
    ) -> dict[str, float] | None:
        """Translate per-group device parameters into widths.

        Returns ``None`` when the predicted parameters are physically
        inconsistent (width candidates disagree beyond
        :attr:`max_candidate_spread`, or a parameter is not positive and
        finite), signalling the caller to retry inference instead of
        wasting a verification simulation.  A batch of one through
        :meth:`widths_from_params_many`.
        """
        return self.widths_from_params_many([(topology, parsed_values)])[0]

    def widths_from_params_many(
        self, items: Sequence[tuple[OTATopology, dict[str, dict[str, float]]]]
    ) -> list[dict[str, float] | None]:
        """:meth:`widths_from_params` for many designs at once.

        Every device of every design runs through Algorithm 1 in one
        :func:`~repro.lut.estimate_widths` call per LUT, so a copilot
        round costs one vectorised width estimation per device type.
        """
        rows = [
            (index, topology, group)
            for index, (topology, _) in enumerate(items)
            for group in topology.groups
        ]
        values = np.array(
            [
                [items[index][1][group.name][name] for name in _PARAM_NAMES]
                for index, _, group in rows
            ],
            dtype=float,
        ).reshape(len(rows), len(_PARAM_NAMES))
        # gm/Id can never exceed the weak-inversion limit 1/(n*Ut); a
        # prediction above it is a transcription error on Id -- repair
        # it rather than letting Algorithm 1 chase an impossible point.
        gm_id_max = np.array([0.95 / (group.tech.n_slope * group.tech.ut) for *_, group in rows])
        values[:, 4] = np.maximum(values[:, 4], values[:, 0] / gm_id_max)
        vdd = np.array([topology.vdd for _, topology, _ in rows])

        members_by_lut: dict[LookupTable, list[int]] = {}
        for row, (_, topology, group) in enumerate(rows):
            members_by_lut.setdefault(self.model.lut_for(topology, group.name), []).append(row)
        width = np.empty(len(rows))
        accepted = np.empty(len(rows), dtype=bool)
        for lut, members in members_by_lut.items():
            estimates = estimate_widths(lut, *values[members].T, vdd=vdd[members])
            width[members] = estimates.width
            accepted[members] = estimates.valid & ~(
                estimates.spread() > self.max_candidate_spread
            )

        low, high = self.width_bounds
        results: list[dict[str, float] | None] = [{} for _ in items]
        for row, (index, _, group) in enumerate(rows):
            widths = results[index]
            if widths is None:
                continue
            if not accepted[row]:
                results[index] = None
                continue
            widths[group.name] = float(min(max(width[row], low), high))
        return results

    # ------------------------------------------------------------------
    # Stage I/II: batched inference
    # ------------------------------------------------------------------
    def _infer_round(
        self, specs_by_topology: dict[str, list[DesignSpec]]
    ) -> dict[str, list[tuple[ParsedParams, str]]]:
        start = time.perf_counter()
        total = sum(len(specs) for specs in specs_by_topology.values())
        if total == 1:
            # Single-shot path: ``predict_params`` so model subclasses that
            # override only it (e.g. oracle stand-ins) keep working.
            name = next(n for n, specs in specs_by_topology.items() if specs)
            outputs = {name: [self.model.predict_params(name, specs_by_topology[name][0])]}
        else:
            # One fused decode across every topology: the model is shared,
            # so the batch dimension spans the whole round.
            outputs = self.model.predict_params_many(specs_by_topology)
        self.stats.add(
            inference_seconds=time.perf_counter() - start,
            inference_calls=1,
            inference_sequences=total,
        )
        return outputs

    # ------------------------------------------------------------------
    # The copilot loop, round based
    # ------------------------------------------------------------------
    def _run(self, states: list[_ActiveRequest]) -> None:
        # A zero-iteration budget finishes immediately as a failed result
        # (the pre-engine flow's behavior for max_iterations=0).
        for state in states:
            self._finish_if_exhausted(state)
        active = [s for s in states if s.result is None]
        while active:
            by_topology: dict[str, list[_ActiveRequest]] = {}
            for state in active:
                by_topology.setdefault(state.request.topology, []).append(state)
            outputs = self._infer_round(
                {name: [s.current for s in group] for name, group in by_topology.items()}
            )
            # Stage III for the whole round: every complete parse goes
            # through one vectorised width estimation per LUT.  The
            # candidates that survive queue up for one bulk verification
            # per (topology, corner axis, analyses pipeline) instead of one
            # simulation per request -- corner requests stack
            # population x corners into the same batched solves, and
            # transient requests batch their step-response integrations.
            parsed_states: list[tuple[_ActiveRequest, ParsedParams]] = []
            for name, group in by_topology.items():
                for state, (parsed, text) in zip(group, outputs[name], strict=True):
                    if self._record_decode(state, parsed, text):
                        parsed_states.append((state, parsed))
            round_widths = self.widths_from_params_many(
                [(state.topology, parsed.values) for state, parsed in parsed_states]
            )
            verifiable: dict[tuple, list[tuple[_ActiveRequest, dict[str, float]]]] = {}
            for (state, _), widths in zip(parsed_states, round_widths, strict=True):
                if widths is None:
                    self._retry(state, parsed=True)
                    continue
                request = state.request
                key = (request.topology, request.corners, request.analyses)
                verifiable.setdefault(key, []).append((state, widths))
            for (name, corners, analyses), pairs in verifiable.items():
                topology = pairs[0][0].topology
                widths_list = [widths for _, widths in pairs]
                # The analyses keyword travels only on non-default
                # pipelines, so custom backends with the pre-transient
                # signature keep serving AC-only rounds unchanged.
                kwargs = {} if "tran" not in analyses else {"analyses": analyses}
                if corners:
                    sweeps = self.backend.measure_many(
                        topology, widths_list, corners=corners, **kwargs
                    )
                    for (state, widths), sweep in zip(pairs, sweeps, strict=True):
                        self._stage_iv_corners(state, widths, sweep)
                else:
                    outcomes = self.backend.measure_many(topology, widths_list, **kwargs)
                    for (state, widths), outcome in zip(pairs, outcomes, strict=True):
                        self._stage_iv(state, widths, outcome)
            active = [s for s in active if s.result is None]

    def _record_decode(self, s: _ActiveRequest, parsed: ParsedParams, text: str) -> bool:
        """Consume one inference result; ``True`` when it parsed completely.

        An unparseable decode is traced and the request nudged for the
        next round (and finished if its budget ran out).
        """
        s.iteration += 1
        s.decoded_texts.append(text)
        if not parsed.complete:
            self._retry(s, parsed=False)
        return parsed.complete

    def _retry(
        self, s: _ActiveRequest, parsed: bool, widths: dict[str, float] | None = None
    ) -> None:
        """Trace an iteration that produced nothing verifiable, then nudge."""
        requested = s.current
        s.trace.append(IterationTrace(requested, s.decoded_texts[-1], parsed, widths, None, False))
        s.current = requested.scaled(_NUDGE)
        self._finish_if_exhausted(s)

    def _stage_iv(
        self, s: _ActiveRequest, widths: dict[str, float], outcome: MeasureOutcome
    ) -> None:
        """Judge one verification outcome exactly as the sequential path."""
        requested = s.current
        text = s.decoded_texts[-1]

        if not outcome.ok:
            # Non-converging design (the backend's per-candidate stand-in
            # for ConvergenceError, from any analysis leg -- DC Newton or
            # transient integration): counts as no completed verification
            # simulation, matching the scalar path's convention that a
            # failed measure() costs nothing regardless of partial work.
            # Nudge and retry.
            return self._retry(s, parsed=True, widths=widths)

        s.spice_count += 1
        self.stats.add(spice_simulations=1)
        metrics = outcome.result.metrics
        satisfied = s.original.satisfied(metrics, rel_tol=s.request.rel_tol)
        s.trace.append(IterationTrace(requested, text, True, widths, metrics, satisfied))

        # Track the iterate with the smallest total spec shortfall, so a
        # failing run reports its closest attempt rather than its latest.
        shortfall = sum(s.original.miss_fractions(metrics).values())
        if shortfall < s.best_shortfall:
            s.best_shortfall = shortfall
            s.best = (widths, metrics)

        if satisfied:
            s.result = SizingResult(
                success=True,
                spec=s.original,
                widths=widths,
                metrics=metrics,
                iterations=s.iteration,
                spice_simulations=s.spice_count,
                wall_time_s=time.perf_counter() - s.start,
                trace=s.trace,
            )
            return

        s.current = tighten_spec(requested, s.original, metrics)
        self._finish_if_exhausted(s)

    def _stage_iv_corners(
        self, s: _ActiveRequest, widths: dict[str, float], sweep
    ) -> None:
        """Worst-case Stage IV: one candidate judged across every corner.

        The candidate passes only when **all** corners meet the original
        spec; the iteration trace and margin allocation run against the
        binding worst corner (largest total shortfall), so retries tighten
        toward the hardest operating condition.
        """
        requested = s.current
        text = s.decoded_texts[-1]

        # Partially converged sweeps still burned simulations; count them.
        s.spice_count += sweep.n_ok
        self.stats.add(spice_simulations=sweep.n_ok)

        if not sweep.ok:
            # At least one corner failed to converge: like the nominal
            # path's non-converging design -- nudge and retry inference.
            return self._retry(s, parsed=True, widths=widths)

        worst_name, worst_metrics = sweep.worst_corner(s.original)
        corner_metrics = sweep.metrics_by_corner()
        satisfied = all(
            s.original.satisfied(metrics, rel_tol=s.request.rel_tol)
            for metrics in corner_metrics.values()
        )
        s.trace.append(
            IterationTrace(requested, text, True, widths, worst_metrics, satisfied)
        )

        shortfall = sum(s.original.miss_fractions(worst_metrics).values())
        if shortfall < s.best_shortfall:
            s.best_shortfall = shortfall
            s.best = (widths, worst_metrics)
            s.best_corner_metrics = corner_metrics
            s.best_worst_corner = worst_name

        if satisfied:
            s.result = SizingResult(
                success=True,
                spec=s.original,
                widths=widths,
                metrics=worst_metrics,
                iterations=s.iteration,
                spice_simulations=s.spice_count,
                wall_time_s=time.perf_counter() - s.start,
                trace=s.trace,
                corner_metrics=corner_metrics,
                worst_corner=worst_name,
            )
            return

        s.current = tighten_spec(requested, s.original, worst_metrics)
        self._finish_if_exhausted(s)

    def _finish_if_exhausted(self, s: _ActiveRequest) -> None:
        if s.result is None and s.iteration >= s.request.iteration_budget:
            widths, metrics = s.best if s.best is not None else (None, None)
            s.result = SizingResult(
                success=False,
                spec=s.original,
                widths=widths,
                metrics=metrics,
                iterations=len(s.trace),
                spice_simulations=s.spice_count,
                wall_time_s=time.perf_counter() - s.start,
                trace=s.trace,
                corner_metrics=s.best_corner_metrics,
                worst_corner=s.best_worst_corner,
            )

    # ------------------------------------------------------------------
    # Non-copilot methods: dispatch through the solver registry
    # ------------------------------------------------------------------
    def _solve_with_method(self, request: SizingRequest) -> SizingResponse:
        """Serve one request through a registered solver (``method`` != copilot).

        Stochastic solvers are seeded from a stable hash of the request id,
        so reruns of the same request stream are reproducible while distinct
        requests explore independently.  ``rel_tol`` derates the targets the
        solver chases, matching the copilot's tolerance semantics.
        """
        from .. import solvers

        self.stats.add(solver_requests=1)

        def error_response(message: str) -> SizingResponse:
            return SizingResponse(
                request_id=request.id,
                topology=request.topology,
                method=request.method,
                success=False,
                widths=None,
                metrics=None,
                iterations=0,
                spice_simulations=0,
                wall_time_s=0.0,
                error=message,
            )

        try:
            topology = self.topology(request.topology)
        except KeyError as error:
            return error_response(str(error))
        try:
            factory = solvers.solver_factory(request.method)
        except KeyError as error:
            return error_response(str(error))

        solver_kwargs = {}
        if "tran" in request.analyses:
            # Only non-default pipelines travel, so solvers registered
            # before the transient extension keep working unchanged.
            solver_kwargs["analyses"] = request.analyses
        solver = factory(
            topology,
            model=self.model,
            backend=self.backend,
            corners=request.corners,
            **solver_kwargs,
        )
        spec = _derated_spec(request.spec, request.rel_tol)
        rng = np.random.default_rng(zlib.crc32(request.id.encode()))
        result = solver.solve(spec, budget=request.budget, rng=rng)
        self.stats.add(spice_simulations=result.spice_calls)
        return SizingResponse(
            request_id=request.id,
            topology=request.topology,
            method=request.method,
            success=result.success,
            widths=result.best_widths,
            metrics=result.best_metrics,
            iterations=result.iterations,
            spice_simulations=result.spice_calls,
            wall_time_s=result.wall_time_s,
            corner_metrics=result.corner_metrics,
            worst_corner=result.worst_corner,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def size_result(self, request: SizingRequest) -> SizingResult:
        """Single-shot path returning the full :class:`SizingResult` with
        its iteration trace.  Bypasses the result cache — this is the
        back-compat engine of ``SizingFlow.size``."""
        return self.size_results([request])[0]

    def size_results(self, requests: Sequence[SizingRequest]) -> list[SizingResult]:
        """Batched copilot path returning full :class:`SizingResult` objects
        (with iteration traces), cache-free; inference is fused across the
        whole batch exactly as in :meth:`size_batch`.  Raises for unknown
        topologies and non-copilot methods — this is the programmatic
        engine behind ``SizingFlow``/``run_sizing_study``, not the wire API.
        """
        states = []
        for request in requests:
            if request.method != "copilot":
                raise ValueError(
                    f"size_results serves the copilot flow only, got method={request.method!r} "
                    "(use size_batch for registry-dispatched solvers)"
                )
            self.stats.add(requests=1)
            states.append(_ActiveRequest(request, self.topology(request.topology)))
        self._run(states)
        results = []
        for state in states:
            assert state.result is not None
            results.append(state.result)
        return results

    def size(self, request: SizingRequest) -> SizingResponse:
        """Serve one request (cache-aware single-shot path)."""
        return self.size_batch([request])[0]

    def size_batch(self, requests: Sequence[SizingRequest]) -> list[SizingResponse]:
        """Serve many requests with batched inference; order is preserved.

        Requests whose cached result transfers (see
        :class:`~repro.service.ResultCache`) skip inference entirely, as
        do *exact* in-batch duplicates, which coalesce onto one
        computation (cache enabled only; near-duplicates run their own
        Stage IV but still share the batched decode).  An unknown
        topology or solver method yields an error response instead of
        raising, so one bad request cannot poison a batch.

        Requests naming a non-copilot ``method`` are dispatched to the
        solver registry (see :meth:`_solve_with_method`); the copilot
        requests of the batch still fuse into one decode.
        """
        self.stats.add(batches=1)
        responses: list[SizingResponse | None] = [None] * len(requests)
        states: dict[int, _ActiveRequest] = {}
        leaders: dict[object, int] = {}
        followers: dict[int, int] = {}

        for index, request in enumerate(requests):
            self.stats.add(requests=1)
            if request.method != "copilot":
                # Registry-dispatched solver: runs SPICE-in-the-loop on the
                # batched evaluation backend.  Never cached (stochastic).
                responses[index] = self._solve_with_method(request)
                continue
            if self.cache is not None:
                hit = self.cache.get(request)
                if hit is not None:
                    self.stats.add(cache_hits=1)
                    responses[index] = hit
                    continue
            try:
                topology = self.topology(request.topology)
            except KeyError as error:
                responses[index] = SizingResponse(
                    request_id=request.id,
                    topology=request.topology,
                    method=request.method,
                    success=False,
                    widths=None,
                    metrics=None,
                    iterations=0,
                    spice_simulations=0,
                    wall_time_s=0.0,
                    error=str(error),
                )
                continue
            if self.cache is not None:
                # Coalesce only *exact* in-batch duplicates: the flow is
                # deterministic, so the leader's outcome is theirs too.
                # Near-duplicates run on their own (Stage IV judges the
                # exact spec) — they still share the batched decode.
                key = (
                    request.topology, request.spec,
                    request.iteration_budget, request.rel_tol, request.corners,
                    request.analyses,
                )
                if key in leaders:
                    followers[index] = leaders[key]
                    self.stats.add(coalesced=1)
                    continue
                leaders[key] = index
            states[index] = _ActiveRequest(request, topology)

        self._run(list(states.values()))

        for index, state in states.items():
            result = state.result
            assert result is not None
            response = SizingResponse(
                request_id=state.request.id,
                topology=state.request.topology,
                method=state.request.method,
                success=result.success,
                widths=result.widths,
                metrics=result.metrics,
                iterations=result.iterations,
                spice_simulations=result.spice_simulations,
                wall_time_s=result.wall_time_s,
                decoded_texts=tuple(state.decoded_texts),
                corner_metrics=result.corner_metrics,
                worst_corner=result.worst_corner,
            )
            responses[index] = response
            if self.cache is not None:
                self.cache.put(state.request, response)

        for index, leader in followers.items():
            leader_response = responses[leader]
            assert leader_response is not None
            responses[index] = leader_response.with_request_id(requests[index].id)

        return [response for response in responses if response is not None]
