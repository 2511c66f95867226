"""Scipy reference for the LUT's polynomial tables and Algorithm 1.

:class:`~repro.lut.LookupTable` evaluates power-basis pieces it converts
from ``scipy.interpolate.RectBivariateSpline`` once, at construction.
This module keeps the direct formulation the library used before: the
spline itself (:class:`SplineReference`), the fixed-step gm/Id bisection
on it and the Algorithm 1 kernel that scans ``Vds`` with one sorted grid
call per output (:func:`reference_estimate_widths`), plus a dense-scan
root finder for gm/Id (:func:`gm_id_roots`).  The parity tests
compare the library against it at stated tolerances, and the Algorithm 1
bench times the library's kernel against it.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.optimize import brentq

from repro.lut import LUT_OUTPUTS, LookupTable, WidthEstimates
from repro.lut.table import VDS_SCAN_POINTS, VGS_XTOL

_CANDIDATE_OUTPUTS = ("gm", "gds", "cds", "cgs", "id")
_COST_OUTPUTS = ("gm", "gds", "cds", "cgs")


class SplineReference:
    """A LUT's tables behind ``RectBivariateSpline`` calls, as before."""

    def __init__(self, lut: LookupTable):
        self.vgs_grid = lut.vgs_grid
        self.vds_grid = lut.vds_grid
        degree = 3 if len(self.vgs_grid) > 3 and len(self.vds_grid) > 3 else 1
        self.splines = {
            name: RectBivariateSpline(
                self.vgs_grid, self.vds_grid, lut.tables[name], kx=degree, ky=degree
            )
            for name in LUT_OUTPUTS
        }
        span = float(self.vgs_grid[-1]) - float(self.vgs_grid[1])
        self.bisection_steps = int(np.ceil(np.log2(span / VGS_XTOL)))

    def query(self, output, vgs, vds):
        vgs, vds = np.broadcast_arrays(np.asarray(vgs, dtype=float), np.asarray(vds, dtype=float))
        return self.splines[output](vgs, vds, grid=False)

    def query_grid(self, output, vgs, vds):
        """One output at every ``(vgs[i], vds[j])`` pair: the spline's grid
        call on the sorted ``vgs``, rows put back in input order."""
        vgs = np.asarray(vgs, dtype=float)
        order = np.argsort(vgs, kind="stable")
        values = self.splines[output](vgs[order], np.asarray(vds, dtype=float), grid=True)
        result = np.empty_like(values)
        result[order] = values
        return result

    def gm_over_id(self, vgs, vds):
        return self.query("gm", vgs, vds) / np.maximum(self.query("id", vgs, vds), 1e-30)

    def find_vgs_for_gm_id_many(self, targets, vds):
        """Fixed-step bisection on ``[vgs_grid[1], vgs_grid[-1]]`` with the
        library's clamping rules."""
        targets = np.asarray(targets, dtype=float)
        vds = np.broadcast_to(np.asarray(vds, dtype=float), targets.shape)
        vgs_lo = float(self.vgs_grid[1])
        vgs_hi = float(self.vgs_grid[-1])
        lower = np.full(targets.shape, vgs_lo)
        upper = np.full(targets.shape, vgs_hi)
        for _ in range(self.bisection_steps):
            middle = 0.5 * (lower + upper)
            above = self.gm_over_id(middle, vds) > targets
            lower = np.where(above, middle, lower)
            upper = np.where(above, upper, middle)
        vgs = 0.5 * (lower + upper)
        vgs = np.where(targets <= self.gm_over_id(vgs_hi, vds), vgs_hi, vgs)
        return np.where(targets >= self.gm_over_id(vgs_lo, vds), vgs_lo, vgs)


def reference_estimate_widths(
    reference: SplineReference,
    gm,
    gds,
    cds,
    cgs,
    id,
    vdd=1.2,
    alpha=1e-4,
    epsilon=None,
    max_iterations=50,
    update="jump",
) -> WidthEstimates:
    """Algorithm 1 on the spline: :func:`repro.lut.estimate_widths` as it
    was before the polynomial tables (same rules, per-row masks and
    strict-``<`` best-so-far)."""
    columns = (np.asarray(v, dtype=float).ravel() for v in (gm, gds, cds, cgs, id))
    predicted = np.column_stack(np.broadcast_arrays(*columns))
    rows = len(predicted)
    vdd = np.broadcast_to(np.asarray(vdd, dtype=float), (rows,))
    valid = np.all((predicted > 0) & np.isfinite(predicted), axis=1)
    vds_lo = float(reference.vds_grid[1])
    vds_hi = float(reference.vds_grid[-1])
    vds_scan = np.linspace(vds_lo, vds_hi, VDS_SCAN_POINTS)
    if epsilon is None:
        gm_top = reference.query("gm", float(reference.vgs_grid[-1]), vdd / 2.0)
        epsilon = 1e-6 * np.maximum(predicted[:, 0] / np.maximum(gm_top, 1e-30), 1e-9)
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
        vgs = reference.find_vgs_for_gm_id_many(params[:, 0] / params[:, 4], vds_here)
        candidates = np.stack(
            [
                params[:, [k]] / np.maximum(reference.query_grid(name, vgs, vds_scan), 1e-30)
                for k, name in enumerate(_CANDIDATE_OUTPUTS)
            ],
            axis=1,
        )
        cost = np.zeros((len(active), VDS_SCAN_POINTS))
        for i in range(len(_COST_OUTPUTS)):
            for j in range(i + 1, len(_COST_OUTPUTS)):
                cost = cost + np.abs(candidates[:, i] - candidates[:, j])
        k_min = np.argmin(cost, axis=1)
        picked = np.arange(len(active))
        cost_curr = cost[picked, k_min]
        vds_min = vds_scan[k_min]

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
        width=best_candidates[:, 0],
        vgs=best_vgs,
        vds=best_vds,
        candidates=best_candidates,
        cost=best_cost,
        iterations=iterations,
        converged=converged,
        valid=valid,
    )


def gm_id_roots(reference: SplineReference, target: float, vds: float, step: float = 1e-5):
    """Every root of ``gm/Id(Vgs) = target`` on ``[vgs_grid[1], vgs_grid[-1]]``
    at one ``Vds``, ascending: a dense scan for sign changes, each
    refined by ``brentq``."""
    vgs = np.arange(float(reference.vgs_grid[1]), float(reference.vgs_grid[-1]), step)
    residual = reference.gm_over_id(vgs, vds) - target
    crossings = np.flatnonzero(np.sign(residual[:-1]) != np.sign(residual[1:]))
    return [
        brentq(
            lambda v: float(reference.gm_over_id(v, vds)) - target,
            vgs[k],
            vgs[k + 1],
            xtol=1e-12,
        )
        for k in crossings
    ]
