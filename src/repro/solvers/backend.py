"""Evaluation backends: how solvers talk to the SPICE substrate.

Every sizing method -- stochastic optimizer or transformer copilot --
ultimately asks the same question: *measure these candidate designs*.
The :class:`EvalBackend` abstraction decouples solvers from how that
measurement is executed.  :class:`BatchedBackend`, the default, routes
whole populations through ``topology.measure_many``: the DC Newton
solves share one vectorized assembly, the AC solves one batched Schur
reduction over the population, and with ``corners=`` the corner axis
stacks into the same batched solves, so a population x corner block
costs one DC Newton batch and one AC reduction per circuit structure.

Results are ``list[MeasureOutcome]`` for nominal calls (``corners=None``)
and ``list[CornerSweep]`` when a ``corners=`` axis is requested, with
per-(candidate, corner) failure isolation.  Custom backends (counting,
fault-injecting, remote) implement the full
:meth:`EvalBackend.measure_many` signature -- callers always pass both
``corners=`` and ``analyses=``; the test suite's sequential oracle
backend is one, and the parity tests pin the batched backend to it bit
for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from ..devices import CornerLike
from ..topologies import MeasureOutcome, OTATopology

__all__ = ["EvalBackend", "BatchedBackend"]


class EvalBackend(ABC):
    """Strategy for evaluating candidate width vectors of one topology."""

    @abstractmethod
    def measure_many(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
    ) -> list:
        """Measure every candidate; one aligned outcome per width vector.

        ``corners=None`` evaluates at the nominal corner and returns a flat
        ``list[MeasureOutcome]``.  A corner sequence evaluates every
        candidate at every corner and returns ``list[CornerSweep]`` with
        per-(candidate, corner) isolation.

        ``analyses`` selects the measurement pipeline (see
        :func:`repro.topologies.resolve_analyses`); ``None`` is the
        AC-only default.  Implementations must accept both keywords:
        callers pass them on every call.
        """

    def measure(
        self,
        topology: OTATopology,
        widths: Mapping[str, float],
        corner: CornerLike = None,
        analyses: Sequence[str] | None = None,
    ) -> MeasureOutcome:
        """Single-candidate convenience wrapper over :meth:`measure_many`."""
        if corner is None:
            return self.measure_many(topology, [widths], corners=None, analyses=analyses)[0]
        sweep = self.measure_many(topology, [widths], corners=(corner,), analyses=analyses)[0]
        return sweep.outcomes[0]


class BatchedBackend(EvalBackend):
    """Vectorized bulk backend over ``topology.measure_many``."""

    def measure_many(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
    ) -> list:
        return topology.measure_many(list(widths_list), corners=corners, analyses=analyses)
