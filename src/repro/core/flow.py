"""Results of the end-to-end sizing flow (Fig. 3).

The flow takes a specification and produces a fully sized netlist:

* Stage I/II -- the spec is serialized, tokenized and translated by the
  transformer into device parameters;
* Stage III -- Algorithm 1 converts parameters to widths through the LUTs;
* Stage IV -- one SPICE verification; on a shortfall, the copilot loop
  tightens the requested spec (margin allocation) and re-runs inference.

The flow counts verification SPICE simulations explicitly: the headline
claim of the paper is that >90% of designs need exactly one.

The flow itself runs in :class:`repro.service.SizingEngine`, which
batches every stage across many requests; ``engine.size_results`` returns
the :class:`SizingResult` objects defined here, with their iteration
traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spice import PerformanceMetrics
from .specs import DesignSpec

__all__ = ["SizingResult", "IterationTrace"]


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
