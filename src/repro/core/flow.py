"""The end-to-end sizing flow (Fig. 3): Stages I-IV glued together.

``SizingFlow.size`` takes a specification and produces a fully sized
netlist:

* Stage I/II -- the spec is serialized, tokenized and translated by the
  transformer into device parameters;
* Stage III -- Algorithm 1 converts parameters to widths through the LUTs;
* Stage IV -- one SPICE verification; on a shortfall, the copilot loop
  tightens the requested spec (margin allocation) and re-runs inference.

The flow counts verification SPICE simulations explicitly: the headline
claim of the paper is that >90% of designs need exactly one.

Since the service redesign, ``SizingFlow`` is a thin single-topology,
single-spec facade over :class:`repro.service.SizingEngine`, which owns
the shared implementation and additionally batches inference across many
requests (``engine.size_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..spice import PerformanceMetrics
from ..topologies import OTATopology
from .bundle import SizingModel
from .specs import DesignSpec

__all__ = ["SizingFlow", "SizingResult", "IterationTrace"]


@dataclass
class IterationTrace:
    """Diagnostics of one copilot iteration."""

    requested_spec: DesignSpec
    decoded_text: str
    parsed_ok: bool
    widths: dict[str, float] | None
    metrics: PerformanceMetrics | None
    satisfied: bool


@dataclass
class SizingResult:
    """Outcome of one sizing request.

    On corner-aware requests, ``metrics`` refers to the binding *worst*
    corner (a design passes only when every corner passes),
    ``corner_metrics`` carries the per-corner measurements keyed by corner
    name, and ``worst_corner`` names the binding corner.
    """

    success: bool
    spec: DesignSpec
    widths: dict[str, float] | None
    metrics: PerformanceMetrics | None
    iterations: int
    spice_simulations: int
    wall_time_s: float
    trace: list[IterationTrace] = field(default_factory=list)
    corner_metrics: dict[str, PerformanceMetrics] | None = None
    worst_corner: str | None = None

    @property
    def single_simulation(self) -> bool:
        """True when the very first verification already satisfied specs."""
        return self.success and self.spice_simulations == 1


class SizingFlow:
    """Sizes one OTA topology against specifications using a trained model.

    Delegates to a private, cache-free :class:`~repro.service.SizingEngine`
    so the sequential path and ``engine.size_batch`` share one
    implementation (and stay bit-identical, which the parity tests pin).
    """

    def __init__(
        self,
        topology: OTATopology,
        model: SizingModel,
        width_bounds: tuple[float, float] = (0.1e-6, 200e-6),
        max_candidate_spread: float = 5.0,
        backend=None,
    ):
        # Local import: repro.service builds on repro.core.
        from ..service.engine import SizingEngine

        self.topology = topology
        self.model = model
        self._engine = SizingEngine(
            model,
            cache_size=0,
            width_bounds=width_bounds,
            max_candidate_spread=max_candidate_spread,
            backend=backend,
        )
        self._engine.adopt_topology(topology)

    # ------------------------------------------------------------------
    # Engine-backed knobs (kept as mutable attributes for back-compat)
    # ------------------------------------------------------------------
    @property
    def width_bounds(self) -> tuple[float, float]:
        return self._engine.width_bounds

    @width_bounds.setter
    def width_bounds(self, bounds: tuple[float, float]) -> None:
        self._engine.width_bounds = bounds

    @property
    def max_candidate_spread(self) -> float:
        return self._engine.max_candidate_spread

    @max_candidate_spread.setter
    def max_candidate_spread(self, spread: float) -> None:
        self._engine.max_candidate_spread = spread

    def _sync_engine(self) -> None:
        """Honor post-construction reassignment of ``topology``/``model``
        (the pre-engine implementation read both on every call)."""
        self._engine.model = self.model
        self._engine.adopt_topology(self.topology)

    # ------------------------------------------------------------------
    def widths_from_params(
        self, parsed_values: dict[str, dict[str, float]]
    ) -> dict[str, float] | None:
        """Stage III: translate per-group device parameters into widths.

        Returns ``None`` when the predicted parameters are physically
        inconsistent (width candidates disagree beyond
        :attr:`max_candidate_spread`), signalling the caller to retry
        inference instead of wasting a verification simulation.
        """
        self._sync_engine()
        return self._engine.widths_from_params(self.topology, parsed_values)

    # ------------------------------------------------------------------
    def size(
        self,
        spec: DesignSpec,
        max_iterations: int = 6,
        rel_tol: float = 0.0,
        corners: Sequence = (),
        analyses: Sequence[str] | None = None,
    ) -> SizingResult:
        """Run the full Fig. 3 flow for one specification.

        ``corners`` (PVT preset names or :class:`~repro.devices.Corner`
        objects) turns Stage IV into a worst-case-across-corners
        verification: the result succeeds only when every corner meets the
        spec, and reports per-corner metrics plus the binding corner.

        ``analyses`` selects the Stage IV measurement pipeline (see
        :func:`repro.topologies.resolve_analyses`); a spec with transient
        targets pulls the transient analysis in automatically.
        """
        return self.size_many(
            [spec],
            max_iterations=max_iterations,
            rel_tol=rel_tol,
            corners=corners,
            analyses=analyses,
        )[0]

    def size_many(
        self,
        specs: Sequence[DesignSpec],
        max_iterations: int = 6,
        rel_tol: float = 0.0,
        corners: Sequence = (),
        analyses: Sequence[str] | None = None,
    ) -> list[SizingResult]:
        """Run the flow for many specifications with batched inference
        and batched verification.

        Every copilot round fuses all still-active specs into one greedy
        decode (``SizingEngine.size_results``) and verifies the round's
        surviving candidates in one ``measure_many`` call; results are
        bit-identical to calling :meth:`size` per spec, in input order,
        with full iteration traces.  With ``corners`` the round's
        verification stacks the corner axis into the same batched solves
        (see :meth:`size`); with transient analyses the round's
        step-response integrations batch the same way.
        """
        from ..service.requests import SizingRequest

        self._sync_engine()
        requests = [
            SizingRequest(
                topology=self.topology.name,
                spec=spec,
                max_iterations=max_iterations,
                rel_tol=rel_tol,
                corners=tuple(corners),
                analyses=analyses,
            )
            for spec in specs
        ]
        return self._engine.size_results(requests)
