"""Tests of the precomputed LUT and the Algorithm 1 width estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.devices import EKVModel, NMOS_65NM, PMOS_65NM
from repro.lut import (
    LUT_OUTPUTS,
    SCAN_OUTPUTS,
    DeviceParams,
    LookupTable,
    build_lut,
    estimate_width,
    estimate_widths,
)
from tests.lut_oracle import SplineReference, gm_id_roots, reference_estimate_widths

L = 180e-9

#: Agreement of the vectorised inversion with the brentq oracle.
VGS_TOL = 1e-6
WIDTH_RTOL = 1e-5
#: Agreement of the LUT's polynomial tables with the scipy spline.
TABLE_RTOL = 1e-12


def brentq_find_vgs(lut, target, vds):
    """Oracle gm/Id inversion: the scalar brentq solve the LUT used before
    its inversion was vectorised (same clamping, ``xtol=1e-7``)."""
    vgs_lo = float(lut.vgs_grid[1])
    vgs_hi = float(lut.vgs_grid[-1])
    low, high = lut.gm_id_range(vds)
    if target >= high:
        return vgs_lo
    if target <= low:
        return vgs_hi
    return float(
        brentq(lambda vgs: float(lut.gm_over_id(vgs, vds)) - target, vgs_lo, vgs_hi, xtol=1e-7)
    )


class BrentqLookupTable(LookupTable):
    """A LUT whose batched inversion loops the brentq oracle row by row."""

    def find_vgs_for_gm_id_many(self, targets, vds):
        vds = np.broadcast_to(vds, np.shape(targets))
        return np.array([brentq_find_vgs(self, t, v) for t, v in zip(targets, vds, strict=True)])


def brentq_twin(lut):
    return BrentqLookupTable.from_arrays(
        lut.tech.name,
        length=lut.length,
        reference_width=lut.reference_width,
        vgs_grid=lut.vgs_grid,
        vds_grid=lut.vds_grid,
        tables=lut.tables,
    )


class TestLookupTable:
    def test_grid_matches_paper(self, nmos_lut):
        # 0 to 1.2 V in 60 mV steps -> 21 points per axis.
        assert len(nmos_lut.vgs_grid) == 21
        assert len(nmos_lut.vds_grid) == 21
        assert nmos_lut.vgs_grid[1] - nmos_lut.vgs_grid[0] == pytest.approx(0.06)
        assert nmos_lut.reference_width == pytest.approx(700e-9)

    def test_on_grid_queries_exact(self, nmos_lut):
        model = EKVModel(NMOS_65NM)
        vgs, vds = 0.6, 0.6
        per_width = nmos_lut.query("gm", vgs, vds)
        direct = model.transconductance(vgs, vds, 700e-9, L) / 700e-9
        assert float(per_width) == pytest.approx(float(direct), rel=1e-9)

    def test_spline_accuracy_off_grid(self, nmos_lut):
        """Cubic interpolation must track the model between grid points."""
        model = EKVModel(NMOS_65NM)
        rng = np.random.default_rng(0)
        for _ in range(30):
            vgs = float(rng.uniform(0.2, 1.1))
            vds = float(rng.uniform(0.1, 1.1))
            interpolated = float(nmos_lut.query("id", vgs, vds))
            direct = float(model.drain_current(vgs, vds, 700e-9, L)) / 700e-9
            assert interpolated == pytest.approx(direct, rel=0.02, abs=1e-9)

    def test_query_all_keys(self, nmos_lut):
        values = nmos_lut.query_all(0.5, 0.5)
        assert set(values) == {"id", "gm", "gds", "cds", "cgs"}

    def test_unknown_output_rejected(self, nmos_lut):
        with pytest.raises(KeyError):
            nmos_lut.query("bogus", 0.5, 0.5)

    def test_gm_over_id_monotone_decreasing_in_vgs(self, nmos_lut):
        # gm/Id is flat (~1/(n*Ut)) deep in weak inversion, where spline
        # wiggles at the 1e-4 level are expected; test from 0.3 V up where
        # the ratio genuinely falls.
        vgs = np.linspace(0.3, 1.1, 30)
        ratios = nmos_lut.gm_over_id(vgs, 0.6)
        assert np.all(np.diff(ratios) < 0)

    def test_find_vgs_inverts_gm_id(self, nmos_lut):
        for target in (5.0, 15.0, 25.0):
            vgs = nmos_lut.find_vgs_for_gm_id(target, 0.6)
            assert float(nmos_lut.gm_over_id(vgs, 0.6)) == pytest.approx(target, rel=1e-3)

    def test_find_vgs_clamps_out_of_range(self, nmos_lut):
        low, high = nmos_lut.gm_id_range(0.6)
        assert nmos_lut.find_vgs_for_gm_id(high * 2, 0.6) == pytest.approx(nmos_lut.vgs_grid[1])
        assert nmos_lut.find_vgs_for_gm_id(low / 2, 0.6) == pytest.approx(nmos_lut.vgs_grid[-1])

    def test_invalid_target_rejected(self, nmos_lut):
        with pytest.raises(ValueError):
            nmos_lut.find_vgs_for_gm_id(-1.0, 0.6)

    def test_save_load_roundtrip(self, nmos_lut, tmp_path):
        path = tmp_path / "lut.npz"
        nmos_lut.save(path)
        restored = LookupTable.load(path)
        assert restored.tech.name == nmos_lut.tech.name
        np.testing.assert_allclose(restored.tables["gm"], nmos_lut.tables["gm"])
        assert float(restored.query("gm", 0.55, 0.63)) == pytest.approx(
            float(nmos_lut.query("gm", 0.55, 0.63))
        )

    def test_testbench_lut_matches_direct(self):
        """The literal Fig. 5 flow (MNA testbench sweep) must agree with
        direct model evaluation."""
        direct = build_lut(NMOS_65NM, step=0.3, use_testbench=False)
        bench = build_lut(NMOS_65NM, step=0.3, use_testbench=True)
        np.testing.assert_allclose(bench.tables["id"], direct.tables["id"], rtol=1e-6, atol=1e-18)


def params_from_model(tech, vgs, vds, width):
    model = EKVModel(tech)
    values = model.evaluate_all(vgs, vds, width, L)
    return DeviceParams(
        gm=float(values["gm"]),
        gds=float(values["gds"]),
        cds=float(values["cds"]),
        cgs=float(values["cgs"]),
        id=float(values["id"]),
    )


class TestWidthEstimator:
    def test_roundtrip_simple(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.5, 0.6, 10e-6)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.width == pytest.approx(10e-6, rel=0.02)
        assert estimate.converged

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.floats(min_value=0.7e-6, max_value=50e-6),
        vgs=st.floats(min_value=0.35, max_value=0.85),
        vds=st.floats(min_value=0.2, max_value=1.0),
    )
    def test_roundtrip_property(self, nmos_lut, width, vgs, vds):
        params = params_from_model(NMOS_65NM, vgs, vds, width)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.width == pytest.approx(width, rel=0.05)

    def test_pmos_roundtrip(self, pmos_lut):
        params = params_from_model(PMOS_65NM, 0.6, 0.55, 2e-6)
        estimate = estimate_width(params, pmos_lut)
        assert estimate.width == pytest.approx(2e-6, rel=0.02)

    def test_recovers_bias_point(self, nmos_lut):
        vgs, vds = 0.45, 0.72
        params = params_from_model(NMOS_65NM, vgs, vds, 8e-6)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.vgs == pytest.approx(vgs, abs=0.02)
        assert estimate.vds == pytest.approx(vds, abs=0.05)

    def test_candidates_agree_at_solution(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.5, 0.6, 10e-6)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.spread() < 0.05

    def test_paper_update_rule_agrees_with_jump(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.55, 0.5, 5e-6)
        jump = estimate_width(params, nmos_lut, update="jump")
        paper = estimate_width(params, nmos_lut, update="paper", max_iterations=300)
        assert jump.width == pytest.approx(paper.width, rel=0.02)

    def test_unknown_update_rejected(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.5, 0.5, 5e-6)
        with pytest.raises(ValueError):
            estimate_width(params, nmos_lut, update="bogus")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DeviceParams(gm=-1.0, gds=1e-6, cds=1e-15, cgs=1e-15, id=1e-5)
        with pytest.raises(ValueError):
            DeviceParams(gm=1e-3, gds=1e-6, cds=1e-15, cgs=1e-15, id=float("nan"))

    def test_noisy_params_still_close(self, nmos_lut):
        """~10% parameter noise (transformer-scale error) must yield a
        width in the right neighbourhood -- the property the copilot loop
        relies on."""
        rng = np.random.default_rng(3)
        params = params_from_model(NMOS_65NM, 0.5, 0.6, 10e-6)
        noisy = DeviceParams(
            gm=params.gm * 1.1,
            gds=params.gds * 0.92,
            cds=params.cds * 1.05,
            cgs=params.cgs * 0.95,
            id=params.id * 1.08,
        )
        estimate = estimate_width(noisy, nmos_lut)
        assert estimate.width == pytest.approx(10e-6, rel=0.35)


def device_rows(count, seed=7):
    """Noisy (gm, gds, cds, cgs, id) rows from NMOS *and* PMOS devices."""
    rng = np.random.default_rng(seed)
    rows = []
    for index in range(count):
        tech = NMOS_65NM if index % 2 == 0 else PMOS_65NM
        values = EKVModel(tech).evaluate_all(
            rng.uniform(0.3, 0.9), rng.uniform(0.15, 1.05), rng.uniform(0.7e-6, 50e-6), L
        )
        noise = rng.lognormal(0.0, 0.1, 5)
        names = ("gm", "gds", "cds", "cgs", "id")
        rows.append([float(values[n]) * f for n, f in zip(names, noise, strict=True)])
    return np.array(rows)


def assert_rows_identical(batch, index, single):
    for field in ("width", "vgs", "vds", "cost", "iterations", "converged", "valid"):
        assert np.array_equal(
            getattr(batch, field)[index], getattr(single, field)[0], equal_nan=True
        )
    assert np.array_equal(batch.candidates[index], single.candidates[0], equal_nan=True)
    assert np.array_equal(batch.spread()[index], single.spread()[0])


class TestBatchedKernel:
    """``estimate_widths`` runs every row on its own: batching changes
    throughput, never a row's result."""

    def _rows(self, lut):
        rows = device_rows(12)
        low, high = lut.gm_id_range(0.6)
        # gm/Id targets clamped high (tiny Id) and low (huge Id).
        rows[0, 4] = rows[0, 0] / (high * 3)
        rows[1, 4] = rows[1, 0] / (low / 3)
        return rows

    @pytest.mark.parametrize("update", ["jump", "paper"])
    @pytest.mark.parametrize("lut_name", ["nmos_lut", "pmos_lut"])
    def test_batch_of_n_equals_n_batches_of_one(self, request, lut_name, update):
        lut = request.getfixturevalue(lut_name)
        rows = self._rows(lut)
        vdd = np.where(np.arange(len(rows)) % 3 == 0, 1.2, 1.0)
        kwargs = {"update": update, "max_iterations": 4 if update == "paper" else 50}
        batch = estimate_widths(lut, *rows.T, vdd=vdd, **kwargs)
        # The cover this test claims: clamped Vgs at both grid ends and,
        # under the paper rule's 4-step cap, rows that do not converge.
        assert batch.vgs[0] == pytest.approx(lut.vgs_grid[1])
        assert batch.vgs[1] == pytest.approx(lut.vgs_grid[-1])
        if update == "paper":
            assert not batch.converged.all()
        for index, row in enumerate(rows):
            single = estimate_widths(lut, *row, vdd=vdd[index], **kwargs)
            assert_rows_identical(batch, index, single)
            scalar = estimate_width(DeviceParams(*row), lut, vdd=float(vdd[index]), **kwargs)
            assert scalar == batch.row(index)
            assert scalar.spread() == batch.spread()[index]

    def test_invalid_rows_are_masked_not_raised(self, nmos_lut):
        rows = device_rows(5)
        rows[1, 0] = 0.0
        rows[2, 3] = -1e-15
        rows[3, 4] = np.nan
        batch = estimate_widths(nmos_lut, *rows.T)
        assert batch.valid.tolist() == [True, False, False, False, True]
        assert np.isinf(batch.spread()[1:4]).all()
        assert np.isnan(batch.width[1:4]).all()
        assert batch.iterations[1:4].tolist() == [0, 0, 0]
        for index in (0, 4):
            assert_rows_identical(batch, index, estimate_widths(nmos_lut, *rows[index]))

    def test_zero_iteration_budget_rejected(self, nmos_lut):
        with pytest.raises(ValueError):
            estimate_widths(nmos_lut, *device_rows(1).T, max_iterations=0)

    def test_empty_batch(self, nmos_lut):
        batch = estimate_widths(nmos_lut, [], [], [], [], [])
        assert len(batch) == 0


class TestBrentqOracle:
    """The vectorised gm/Id inversion agrees with the brentq inversion it
    replaced to within the pinned tolerances."""

    @pytest.mark.parametrize("lut_name", ["nmos_lut", "pmos_lut"])
    def test_vgs_matches_brentq(self, request, lut_name):
        lut = request.getfixturevalue(lut_name)
        rng = np.random.default_rng(2)
        vds = rng.uniform(0.1, 1.1, 200)
        low, high = lut.gm_id_range(0.6)
        targets = rng.uniform(low * 0.8, high * 1.2, 200)
        vgs = lut.find_vgs_for_gm_id_many(targets, vds)
        oracle = np.array([brentq_find_vgs(lut, t, v) for t, v in zip(targets, vds, strict=True)])
        assert np.max(np.abs(vgs - oracle)) <= VGS_TOL

    @pytest.mark.parametrize("update", ["jump", "paper"])
    @pytest.mark.parametrize("lut_name", ["nmos_lut", "pmos_lut"])
    def test_widths_match_brentq(self, request, lut_name, update):
        lut = request.getfixturevalue(lut_name)
        rows = device_rows(40, seed=11)
        max_iterations = 300 if update == "paper" else 50
        got = estimate_widths(lut, *rows.T, update=update, max_iterations=max_iterations)
        oracle = estimate_widths(
            brentq_twin(lut), *rows.T, update=update, max_iterations=max_iterations
        )
        assert np.max(np.abs(got.vgs - oracle.vgs)) <= VGS_TOL
        assert np.max(np.abs(got.width - oracle.width) / oracle.width) <= WIDTH_RTOL


class TestSplineOracle:
    """The LUT evaluates power-basis pieces of the scipy spline; they
    agree with the spline itself, in the grid and clamped outside it."""

    @pytest.mark.parametrize("lut_name", ["nmos_lut", "pmos_lut"])
    def test_tables_match_spline(self, request, lut_name):
        lut = request.getfixturevalue(lut_name)
        reference = SplineReference(lut)
        rng = np.random.default_rng(4)
        grid = lut.vgs_grid
        edges = np.array([grid[0], grid[1], grid[-2], grid[-1]])
        knots = grid[2:-2]
        vgs = np.concatenate(
            [
                rng.uniform(grid[0], grid[-1], 300),  # random
                np.repeat(grid, len(grid)),  # on grid
                knots + 1e-13,  # just past a knot
                knots - 1e-13,  # just before a knot
                np.repeat(edges, 4),  # grid edges
                rng.uniform(-0.5, 2.0, 100),  # mostly out of grid (clamped)
            ]
        )
        vds = np.concatenate(
            [
                rng.uniform(grid[0], grid[-1], 300),
                np.tile(lut.vds_grid, len(grid)),
                rng.uniform(grid[0], grid[-1], 2 * len(knots)),
                np.tile(edges, 4),
                rng.uniform(-0.5, 2.0, 100),
            ]
        )
        for name in LUT_OUTPUTS:
            np.testing.assert_allclose(
                lut.query(name, vgs, vds),
                reference.query(name, vgs, vds),
                rtol=TABLE_RTOL,
                atol=1e-30,
                err_msg=name,
            )
        scanned = [reference.query_grid(name, vgs, lut.vds_scan) for name in SCAN_OUTPUTS]
        np.testing.assert_allclose(lut.scan(vgs), np.stack(scanned, axis=1), rtol=TABLE_RTOL)

    def test_out_of_grid_queries_clamp(self, nmos_lut):
        assert nmos_lut.query("gm", 1.3, 0.6) == nmos_lut.query("gm", 1.2, 0.6)
        assert nmos_lut.query("id", 0.6, -0.2) == nmos_lut.query("id", 0.6, 0.0)

    @pytest.mark.parametrize("lut_name", ["nmos_lut", "pmos_lut"])
    def test_widths_match_reference_kernel(self, request, lut_name):
        lut = request.getfixturevalue(lut_name)
        reference = SplineReference(lut)
        rows = device_rows(200)
        got = estimate_widths(lut, *rows.T)
        want = reference_estimate_widths(reference, *rows.T)
        assert np.array_equal(got.valid, want.valid)
        off = np.flatnonzero(~(np.abs(got.width - want.width) / want.width <= WIDTH_RTOL))
        # Only where weak-inversion wiggles give gm/Id several roots may
        # the two differ: the old bisection could stop at a higher root,
        # the inversion keeps the lowest.
        assert len(off) <= 2
        for index in off:
            target = rows[index, 0] / rows[index, 4]
            assert len(gm_id_roots(reference, target, 0.6)) > 1
            assert got.vgs[index] < want.vgs[index]


class TestInversionRoots:
    def test_lowest_of_several_roots(self, nmos_lut):
        # gm/Id = 29.58 crosses three times in weak inversion at Vds = 0.6.
        roots = gm_id_roots(SplineReference(nmos_lut), 29.58, 0.6)
        assert len(roots) == 3
        assert roots[0] == pytest.approx(0.0716, abs=1e-3)
        assert roots[1:] == pytest.approx([0.1259, 0.1348], abs=1e-3)
        vgs = nmos_lut.find_vgs_for_gm_id(29.58, 0.6)
        assert abs(vgs - roots[0]) <= VGS_TOL

    def test_lowest_root_on_a_device_row(self, nmos_lut):
        # The fixed-step bisection stopped at 0.1353 V on this row, where
        # brentq finds 0.0718 V.
        row = device_rows(2000, seed=5)[1576]
        got = estimate_widths(nmos_lut, *row)
        oracle = estimate_widths(brentq_twin(nmos_lut), *row)
        assert got.vgs[0] == pytest.approx(0.0718, abs=1e-3)
        assert abs(got.vgs[0] - oracle.vgs[0]) <= VGS_TOL
        assert abs(got.width[0] - oracle.width[0]) / oracle.width[0] <= WIDTH_RTOL
        reference = reference_estimate_widths(SplineReference(nmos_lut), *row)
        assert reference.vgs[0] == pytest.approx(0.1353, abs=1e-3)

    @pytest.mark.parametrize("lut_name", ["nmos_lut", "pmos_lut"])
    def test_rebuilt_lut_is_bit_identical(self, request, lut_name, tmp_path):
        lut = request.getfixturevalue(lut_name)
        lut.save(tmp_path / "lut.npz")
        rows = device_rows(40, seed=13)
        want = estimate_widths(lut, *rows.T)
        rebuilt = LookupTable.from_arrays(
            lut.tech.name,
            length=lut.length,
            reference_width=lut.reference_width,
            vgs_grid=lut.vgs_grid,
            vds_grid=lut.vds_grid,
            tables=lut.tables,
        )
        for twin in (LookupTable.load(tmp_path / "lut.npz"), rebuilt):
            got = estimate_widths(twin, *rows.T)
            for field in ("width", "vgs", "vds", "candidates", "cost", "iterations", "converged"):
                assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)
