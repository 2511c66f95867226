"""Width estimation from predicted device parameters (Algorithm 1).

Stage III of the paper's flow: given the transformer-predicted small-signal
parameters ``gm, gds, Cds, Cgs`` (plus the drain current ``Id``) of one
MOSFET, recover its width from the per-unit-width LUT using the gm/Id
methodology:

1. the ratio ``gm/Id`` is width independent, so it pins down ``Vgs`` at any
   assumed ``Vds`` (line 7 of Algorithm 1);
2. at that ``Vgs``, each predicted parameter divided by the corresponding
   per-unit-width LUT output gives a *candidate width* ``w1..w5`` as a
   function of ``Vds`` (line 10);
3. the correct ``Vds`` is the one where the candidates agree -- the cost
   ``sum_{n<m} |w_n - w_m|`` over ``w1..w4`` is minimized (lines 11-12);
4. iterate because the ``gm/Id -> Vgs`` inversion itself depends weakly on
   ``Vds`` (lines 5-15, step factor ``alpha``).

Two update rules for ``Vds`` are provided: ``"paper"`` reproduces line 14's
small signed step (``alpha = 1e-4``), while the default ``"jump"`` moves
straight to the scanned cost minimizer, which converges in 2-3 iterations
to the same fixed point (covered by a regression test).

One kernel, :func:`estimate_widths`, runs the algorithm for a whole batch
of devices that share a LUT; the sizing engine calls it once per copilot
round and LUT, over every device of every request that parsed in that
round.  Each row keeps its own active mask, so its iterations, stopping
rule and strict-``<`` best-so-far are exactly those of a lone run, and its
result is bit-identical whatever other rows share the call.  Per
iteration the batch costs:

* one grid evaluation per LUT output for the ``Vds`` scan: the spline is
  evaluated on the outer product (rows' ``Vgs`` sorted) x ``Vds`` scan
  and the rows are un-sorted, which is bit-identical to evaluating each
  row pointwise but far cheaper;
* one vectorised gm/Id -> ``Vgs`` inversion
  (:meth:`~repro.lut.LookupTable.find_vgs_for_gm_id_many`): a bisection
  with a fixed step count, so the answer is within ``1e-7`` V of a root.
  It replaced a per-device ``brentq`` solve; the two agree to within
  ``1e-6`` V in ``Vgs`` and ``1e-5`` relative width (an oracle test pins
  this), not bit for bit.

Rows whose predicted parameters are not all positive and finite are not
estimated; they come back with ``valid == False`` and an infinite spread,
so a caller rejects them like an inconsistent prediction.
:func:`estimate_width` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import LookupTable

__all__ = [
    "DeviceParams",
    "WidthEstimate",
    "WidthEstimates",
    "estimate_width",
    "estimate_widths",
]


@dataclass(frozen=True)
class DeviceParams:
    """Transformer-predicted parameters of one device (SI units).

    ``id`` is the bias drain current ``I_d^in`` Algorithm 1 takes as input.
    """

    gm: float
    gds: float
    cds: float
    cgs: float
    id: float

    def __post_init__(self) -> None:
        for field_name in ("gm", "gds", "cds", "cgs", "id"):
            value = getattr(self, field_name)
            if value <= 0 or not np.isfinite(value):
                raise ValueError(f"{field_name} must be positive and finite, got {value}")

    @property
    def gm_over_id(self) -> float:
        return self.gm / self.id


@dataclass
class WidthEstimate:
    """Result of Algorithm 1 for one device."""

    width: float
    vgs: float
    vds: float
    candidates: dict[str, float]
    cost: float
    iterations: int
    converged: bool

    def spread(self) -> float:
        """Relative disagreement of the width candidates (0 = perfect)."""
        values = np.array(list(self.candidates.values()))
        mean = float(np.mean(values))
        if mean == 0:
            return float("inf")
        return float((np.max(values) - np.min(values)) / mean)


_CANDIDATE_OUTPUTS = ("gm", "gds", "cds", "cgs", "id")
#: Candidates entering the cost (w1..w4 per line 11; w5 = Id is excluded).
_COST_OUTPUTS = ("gm", "gds", "cds", "cgs")


@dataclass(frozen=True)
class WidthEstimates:
    """Result of Algorithm 1 for a batch of devices, one row per device.

    ``candidates`` holds ``w1..w5`` per row, columns in
    ``("gm", "gds", "cds", "cgs", "id")`` order.  A row whose predicted
    parameters are not all positive and finite is not estimated:
    ``valid`` is ``False``, its values are NaN and its spread infinite.
    """

    width: np.ndarray
    vgs: np.ndarray
    vds: np.ndarray
    candidates: np.ndarray
    cost: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.width)

    def spread(self) -> np.ndarray:
        """Per-row :meth:`WidthEstimate.spread` (infinite for invalid rows)."""
        mean = np.mean(self.candidates, axis=1)
        spread = np.full(len(self), np.inf)
        ok = self.valid & (mean != 0)
        values = self.candidates[ok]
        spread[ok] = (np.max(values, axis=1) - np.min(values, axis=1)) / mean[ok]
        return spread

    def row(self, index: int) -> WidthEstimate:
        """One row as a :class:`WidthEstimate`."""
        return WidthEstimate(
            width=float(self.width[index]),
            vgs=float(self.vgs[index]),
            vds=float(self.vds[index]),
            candidates={
                name: float(value)
                for name, value in zip(_CANDIDATE_OUTPUTS, self.candidates[index], strict=True)
            },
            cost=float(self.cost[index]),
            iterations=int(self.iterations[index]),
            converged=bool(self.converged[index]),
        )


def estimate_widths(
    lut: LookupTable,
    gm: np.ndarray,
    gds: np.ndarray,
    cds: np.ndarray,
    cgs: np.ndarray,
    id: np.ndarray,
    vdd: float | np.ndarray = 1.2,
    alpha: float = 1e-4,
    epsilon: float | np.ndarray | None = None,
    max_iterations: int = 50,
    vds_points: int = 241,
    update: str = "jump",
) -> WidthEstimates:
    """Run Algorithm 1 on a batch of devices that share one LUT.

    Parameters
    ----------
    gm, gds, cds, cgs, id:
        Predicted parameters, one entry per row (broadcast together).
    lut:
        Per-unit-width lookup table for the rows' device type.
    vdd:
        Supply voltage per row (or one for all); the initial guess is
        ``Vds = Vdd/2`` (line 3).
    alpha:
        Step factor of the ``"paper"`` update rule (line 14).
    epsilon:
        Convergence threshold on the cost change (line 5); defaults per
        row to a value scaled to the candidate magnitudes.
    vds_points:
        Resolution of the ``Vds`` cost scan (line 12 minimizes over Vds).
    update:
        ``"jump"`` (default) sets the next ``Vds`` to the scanned cost
        minimizer; ``"paper"`` takes line 14's small signed step.

    Each row iterates on its own: it leaves the active set when its cost
    change falls below its epsilon (or, under ``"jump"``, when its
    ``Vds`` stops moving), so a row's result is bit-identical whatever
    other rows share the call.
    """
    if update not in ("jump", "paper"):
        raise ValueError(f"update must be 'jump' or 'paper', got {update!r}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    columns = (np.asarray(v, dtype=float).ravel() for v in (gm, gds, cds, cgs, id))
    predicted = np.column_stack(np.broadcast_arrays(*columns))
    rows = len(predicted)
    vdd = np.broadcast_to(np.asarray(vdd, dtype=float), (rows,))
    valid = np.all((predicted > 0) & np.isfinite(predicted), axis=1)
    vds_lo = float(lut.vds_grid[1])
    vds_hi = float(lut.vds_grid[-1])
    vds_scan = np.linspace(vds_lo, vds_hi, vds_points)

    if epsilon is None:
        # Scale the threshold to the size of the answer: candidate widths
        # are ~w, the cost is a sum of 6 |w_i - w_j| terms.
        gm_top = lut.query("gm", float(lut.vgs_grid[-1]), vdd / 2.0)
        rough_width = predicted[:, 0] / np.maximum(gm_top, 1e-30)
        epsilon = 1e-6 * np.maximum(rough_width, 1e-9)
    epsilon = np.broadcast_to(np.asarray(epsilon, dtype=float), (rows,))

    vds_curr = vdd / 2.0
    cost_prev = np.full(rows, np.inf)
    best_cost = np.full(rows, np.nan)
    best_vgs = np.full(rows, np.nan)
    best_vds = np.full(rows, np.nan)
    best_candidates = np.full((rows, len(_CANDIDATE_OUTPUTS)), np.nan)
    iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    active = np.flatnonzero(valid)

    for iteration in range(1, max_iterations + 1):
        if active.size == 0:
            break
        iterations[active] = iteration
        params = predicted[active]
        vds_here = vds_curr[active]
        vgs = lut.find_vgs_for_gm_id_many(params[:, 0] / params[:, 4], vds_here)
        # Candidate widths w_i(Vds) at each row's Vgs (line 10):
        # shape (rows, outputs, Vds scan).
        candidates = np.stack(
            [
                params[:, [k]] / np.maximum(lut.query_grid(name, vgs, vds_scan), 1e-30)
                for k, name in enumerate(_CANDIDATE_OUTPUTS)
            ],
            axis=1,
        )
        # Pairwise disagreement cost over w1..w4 (line 11).
        cost = np.zeros((len(active), vds_points))
        for i in range(len(_COST_OUTPUTS)):
            for j in range(i + 1, len(_COST_OUTPUTS)):
                cost = cost + np.abs(candidates[:, i] - candidates[:, j])
        k_min = np.argmin(cost, axis=1)
        picked = np.arange(len(active))
        cost_curr = cost[picked, k_min]
        vds_min = vds_scan[k_min]

        # Strict improvement keeps the earliest best (line 12's argmin).
        better = (iteration == 1) | (cost_curr < best_cost[active])
        improved = active[better]
        best_cost[improved] = cost_curr[better]
        best_vgs[improved] = vgs[better]
        best_vds[improved] = vds_min[better]
        best_candidates[improved] = candidates[picked[better], :, k_min[better]]

        delta = cost_prev[active] - cost_curr
        done = np.abs(delta) < epsilon[active]
        cost_prev[active] = cost_curr
        if update == "jump":
            done |= np.abs(vds_min - vds_here) < 1e-9
            vds_curr[active] = vds_min
        else:
            stepped = vds_here + np.sign(delta) * alpha * vds_here
            vds_curr[active] = np.clip(stepped, vds_lo, vds_hi)
        converged[active[done]] = True
        active = active[~done]

    return WidthEstimates(
        width=best_candidates[:, 0],  # W <- w1 (line 16)
        vgs=best_vgs,
        vds=best_vds,
        candidates=best_candidates,
        cost=best_cost,
        iterations=iterations,
        converged=converged,
        valid=valid,
    )


def estimate_width(
    params: DeviceParams,
    lut: LookupTable,
    vdd: float = 1.2,
    alpha: float = 1e-4,
    epsilon: float | None = None,
    max_iterations: int = 50,
    vds_points: int = 241,
    update: str = "jump",
) -> WidthEstimate:
    """Run Algorithm 1 for one device: a batch of one through
    :func:`estimate_widths` (same parameters, scalar ``vdd``/``epsilon``)."""
    estimates = estimate_widths(
        lut,
        params.gm,
        params.gds,
        params.cds,
        params.cgs,
        params.id,
        vdd=vdd,
        alpha=alpha,
        epsilon=epsilon,
        max_iterations=max_iterations,
        vds_points=vds_points,
        update=update,
    )
    return estimates.row(0)
