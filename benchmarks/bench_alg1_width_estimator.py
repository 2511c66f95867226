"""Algorithm 1: width-estimation accuracy and convergence ablation.

Round-trips widths through the estimator across the sweep box and compares
the paper's literal Vds update rule (line 14, alpha=1e-4) against the
jump-to-minimum variant -- both must converge to the same widths.  Each
rule runs once over all 40 devices through the batched kernel, the way
the sizing engine runs a copilot round.  The benchmarked operation is one
full Algorithm 1 run for a single device.
"""

import numpy as np

from repro.devices import EKVModel, NMOS_65NM
from repro.lut import DeviceParams, build_lut, estimate_width, estimate_widths

from conftest import write_result


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
