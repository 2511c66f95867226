"""Algorithm 1: width-estimation accuracy, convergence ablation and speed.

``test_alg1_width_estimator`` round-trips widths through the estimator
across the sweep box and compares the paper's literal Vds update rule
(line 14, alpha=1e-4) against the jump-to-minimum variant -- both must
converge to the same widths.  Each rule runs once over all 40 devices
through the batched kernel, the way the sizing engine runs a copilot
round.  The benchmarked operation is one full Algorithm 1 run for a
single device.

``test_alg1_kernel_speed`` times one engine-shaped ``estimate_widths``
call per LUT (28 and 60 rows of noisy predictions from mixed bias
points) against the scipy reference kernel in ``tests/lut_oracle.py``
(the spline, fixed-step bisection and sorted grid scan the library used
before its polynomial tables).  It asserts the widths agree and the
geometric-mean speedup clears :data:`SPEEDUP_FLOOR`, and writes
``BENCH_alg1.json``.

    PYTHONPATH=src python -m pytest benchmarks/bench_alg1_width_estimator.py -q
"""

import time

import numpy as np

from repro.devices import EKVModel, NMOS_65NM, PMOS_65NM
from repro.lut import DeviceParams, build_lut, estimate_width, estimate_widths
from tests.lut_oracle import SplineReference, reference_estimate_widths

from conftest import write_bench_json, write_result

#: Rows per call: the engine's Stage III batch per (round, LUT).
ROW_COUNTS = (28, 60)
REPEATS = 20
#: Floor on the geometric-mean reference/kernel time ratio.
SPEEDUP_FLOOR = 2.0
#: Widths agree with the reference to this relative tolerance, except on
#: rows where gm/Id has several roots (the reference may stop at a
#: higher one; the kernel keeps the lowest).
WIDTH_RTOL = 1e-5
_NAMES = ("gm", "gds", "cds", "cgs", "id")


def _params(model, vgs, vds, width):
    values = model.evaluate_all(vgs, vds, width, 180e-9)
    return DeviceParams(
        gm=float(values["gm"]),
        gds=float(values["gds"]),
        cds=float(values["cds"]),
        cgs=float(values["cgs"]),
        id=float(values["id"]),
    )


def test_alg1_width_estimator(benchmark):
    lut = build_lut(NMOS_65NM)
    model = EKVModel(NMOS_65NM)
    rng = np.random.default_rng(1)

    widths, rows = [], []
    for _ in range(40):
        width = float(rng.uniform(0.7e-6, 50e-6))
        vgs = float(rng.uniform(0.35, 0.85))
        vds = float(rng.uniform(0.2, 1.0))
        params = _params(model, vgs, vds, width)
        widths.append(width)
        rows.append((params.gm, params.gds, params.cds, params.cgs, params.id))
    widths = np.array(widths)
    columns = np.array(rows).T
    jump = estimate_widths(lut, *columns, update="jump")
    paper = estimate_widths(lut, *columns, update="paper", max_iterations=300)
    jump_errors = np.abs(jump.width - widths) / widths
    paper_errors = np.abs(paper.width - widths) / widths
    disagreements = np.abs(jump.width - paper.width) / widths
    iteration_counts = jump.iterations

    lines = [
        "Algorithm 1 -- width estimator round-trip and update-rule ablation",
        "",
        f"round-trip rel. error (jump):  median {np.median(jump_errors):.2e}, "
        f"max {np.max(jump_errors):.2e}",
        f"round-trip rel. error (paper): median {np.median(paper_errors):.2e}, "
        f"max {np.max(paper_errors):.2e}",
        f"jump vs paper disagreement:    median {np.median(disagreements):.2e}, "
        f"max {np.max(disagreements):.2e}",
        f"jump iterations: mean {np.mean(iteration_counts):.1f}",
    ]
    write_result("alg1_width_estimator", lines)

    assert np.median(jump_errors) < 0.01
    # The paper's alpha=1e-4 step converges very slowly when the optimal
    # Vds is far from the Vdd/2 starting point, so allow a few percent of
    # residual disagreement at a 300-iteration cap.
    assert np.max(disagreements) < 0.08

    params = _params(model, 0.5, 0.6, 10e-6)
    benchmark(lambda: estimate_width(params, lut))


def _noisy_rows(tech, count, rng):
    """Predicted (gm, gds, cds, cgs, id) rows: the model at random bias
    points and widths with ~10% lognormal noise, as a transformer
    prediction would be."""
    model = EKVModel(tech)
    rows = []
    for _ in range(count):
        values = model.evaluate_all(
            rng.uniform(0.3, 0.9), rng.uniform(0.15, 1.05), rng.uniform(0.7e-6, 50e-6), 180e-9
        )
        noise = rng.lognormal(0.0, 0.1, 5)
        rows.append([float(values[n]) * f for n, f in zip(_NAMES, noise, strict=True)])
    return np.array(rows).T


def _best_times(*calls):
    """Best-of-:data:`REPEATS` time of each ``(kernel, args)`` call, the
    calls taking turns so machine noise hits them alike."""
    best = [float("inf")] * len(calls)
    for repeat in range(REPEATS + 1):
        for index, (kernel, args) in enumerate(calls):
            start = time.perf_counter()
            kernel(*args)
            if repeat:  # the first round warms up
                best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_alg1_kernel_speed():
    rng = np.random.default_rng(17)
    cells = []
    for tech in (NMOS_65NM, PMOS_65NM):
        lut = build_lut(tech)
        reference = SplineReference(lut)
        for count in ROW_COUNTS:
            columns = _noisy_rows(tech, count, rng)
            got = estimate_widths(lut, *columns)
            want = reference_estimate_widths(reference, *columns)
            deviation = np.abs(got.width - want.width) / want.width
            kernel_s, reference_s = _best_times(
                (estimate_widths, (lut, *columns)),
                (reference_estimate_widths, (reference, *columns)),
            )
            cells.append(
                {
                    "lut": tech.name,
                    "rows": count,
                    "iterations_max": int(got.iterations.max()),
                    "kernel_ms": round(1e3 * kernel_s, 3),
                    "reference_ms": round(1e3 * reference_s, 3),
                    "speedup": round(reference_s / kernel_s, 2),
                    "rows_beyond_width_rtol": int(np.sum(~(deviation <= WIDTH_RTOL))),
                    "median_width_deviation": float(f"{np.median(deviation):.1e}"),
                }
            )

    speedup = float(np.exp(np.mean([np.log(c["reference_ms"] / c["kernel_ms"]) for c in cells])))
    lines = [
        "Algorithm 1 -- polynomial-table kernel vs scipy reference kernel",
        "",
        f"best of {REPEATS} calls per cell",
        f"{'LUT':>10s} {'rows':>5s} {'iters':>5s} {'kernel [ms]':>11s} "
        f"{'reference [ms]':>14s} {'speedup':>8s}",
    ]
    for cell in cells:
        lines.append(
            f"{cell['lut']:>10s} {cell['rows']:>5d} {cell['iterations_max']:>5d} "
            f"{cell['kernel_ms']:>11.3f} {cell['reference_ms']:>14.3f} {cell['speedup']:>7.2f}x"
        )
    lines.append(f"geometric mean: {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)")
    write_result("alg1_kernel_speed", lines)
    write_bench_json(
        "alg1",
        {
            "cells": cells,
            "repeats": REPEATS,
            "speedup_geomean": round(speedup, 2),
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup_floor_enforced": True,
            "width_rtol": WIDTH_RTOL,
        },
    )
    for cell in cells:
        assert cell["median_width_deviation"] <= WIDTH_RTOL, cell
        assert cell["rows_beyond_width_rtol"] <= 1, cell
    assert speedup >= SPEEDUP_FLOOR, cells
