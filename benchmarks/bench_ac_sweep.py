"""AC sweep: the default Schur reduction vs the per-frequency LU reference.

Model-free smoke.  For every registered topology, a population of designs
(each width group at its nominal width times e^U(-0.7, 0.7)) is solved
for DC once; then ``run_ac_many`` sweeps the default 133-point grid at
batch sizes 1, 3 and 16, under the default ``auto`` backend (the Schur
reduction) and under ``use_backend("dense")`` (one LU of ``G + jw C`` per
frequency).  Asserts the two agree to the AC oracle tolerance on the
output node (phasors max-norm relative, gain/f3dB/UGF relative) and that
the geometric-mean speedup at each batch size clears its floor.  Writes
``BENCH_ac.json``.

    PYTHONPATH=src python -m pytest benchmarks/bench_ac_sweep.py -q
"""

from __future__ import annotations

import time

import numpy as np

from repro.spice import ConvergenceError, extract_metrics, run_ac_many, solve_dc_many, use_backend
from repro.topologies import available_topologies, topology_by_name

from conftest import write_bench_json, write_result

BATCHES = (1, 3, 16)
REPEATS = 5
#: Sweeps per timed sample, so every sample covers 16 candidates.
CANDIDATES_PER_SAMPLE = 16
#: Same tolerance the test suite pins the default sweep to against the
#: per-frequency oracle.
AC_RTOL = 1e-8
#: Floor on the geometric-mean LU/Schur time ratio over the five
#: topologies, per batch size; about half of the first committed run
#: (2-core Xeon, BENCH_ac.json: 2.6x, 4.2x, 7.6x).
SPEEDUP_FLOORS = {1: 1.2, 3: 2.2, 16: 4.0}


def _population(topology, count, rng):
    nominal = topology.nominal_widths()
    designs = [
        {group: width * np.exp(rng.uniform(-0.7, 0.7)) for group, width in nominal.items()}
        for _ in range(3 * count)
    ]
    outcomes = solve_dc_many(
        [topology.build(widths) for widths in designs], initial_guess=topology.initial_guess()
    )
    solutions = [s for s in outcomes if not isinstance(s, ConvergenceError)][:count]
    assert len(solutions) == count, f"{topology.name}: too few simulatable designs"
    return solutions


def _best_time(solutions, mode):
    calls = CANDIDATES_PER_SAMPLE // len(solutions)
    with use_backend(mode):
        results = run_ac_many(solutions)  # warm-up
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(calls):
                run_ac_many(solutions)
            best = min(best, (time.perf_counter() - start) / calls)
    return best, results


def _assert_oracle_tolerance(name, node, reference, result):
    want, got = reference.transfer(node), result.transfer(node)
    error = np.abs(got - want).max() / np.abs(want).max()
    assert error <= AC_RTOL, (name, error)
    np.testing.assert_allclose(
        extract_metrics(result, node).as_array(),
        extract_metrics(reference, node).as_array(),
        rtol=AC_RTOL,
    )
    return error


def test_ac_sweep():
    rng = np.random.default_rng(41)
    rows = []
    worst_error = 0.0
    for name in sorted(available_topologies()):
        topology = topology_by_name(name)
        population = _population(topology, max(BATCHES), rng)
        for batch in BATCHES:
            solutions = population[:batch]
            lu_s, reference = _best_time(solutions, "dense")
            schur_s, results = _best_time(solutions, "auto")
            for want, got in zip(reference, results, strict=True):
                error = _assert_oracle_tolerance(name, topology.output_node, want, got)
                worst_error = max(worst_error, error)
            rows.append(
                {
                    "topology": name,
                    "batch": batch,
                    "lu_ms": round(1e3 * lu_s, 3),
                    "schur_ms": round(1e3 * schur_s, 3),
                    "speedup": round(lu_s / schur_s, 2),
                }
            )

    speedups = {
        batch: float(np.exp(np.mean([np.log(r["speedup"]) for r in rows if r["batch"] == batch])))
        for batch in BATCHES
    }
    lines = [
        "AC sweep -- Schur reduction (auto) vs per-frequency LU (forced dense)",
        "",
        "default 133-point grid, best of "
        f"{REPEATS} samples of {CANDIDATES_PER_SAMPLE} candidates per cell",
        f"{'topology':>9s} {'batch':>5s} {'LU [ms]':>9s} {'Schur [ms]':>10s} {'speedup':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row['topology']:>9s} {row['batch']:>5d} {row['lu_ms']:>9.3f} "
            f"{row['schur_ms']:>10.3f} {row['speedup']:>7.2f}x"
        )
    lines.append(
        "geometric mean: "
        + ", ".join(f"batch {b} {s:.2f}x" for b, s in speedups.items())
        + f"; worst output-node deviation {worst_error:.1e} (tolerance {AC_RTOL:g})"
    )
    write_result("ac_sweep", lines)
    write_bench_json(
        "ac",
        {
            "frequencies": 133,
            "rows": rows,
            "speedup_by_batch": {str(b): round(s, 2) for b, s in speedups.items()},
            "speedup_floor_by_batch": {str(b): f for b, f in SPEEDUP_FLOORS.items()},
            "speedup_floor_enforced": True,
            "worst_relative_deviation": float(f"{worst_error:.2e}"),
            "tolerance": AC_RTOL,
        },
    )
    for batch, floor in SPEEDUP_FLOORS.items():
        assert speedups[batch] >= floor, (batch, speedups[batch], rows)
