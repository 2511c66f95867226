"""Tests of the small-signal AC analysis and metric extraction."""

import dataclasses

import numpy as np
import pytest

from repro.devices import NMOS_65NM
from repro.spice import (
    Circuit,
    ConvergenceError,
    PerformanceMetrics,
    crossing_frequency,
    default_frequency_grid,
    extract_metrics,
    run_ac,
    run_ac_many,
    solve_dc,
    solve_dc_many,
    use_backend,
)
from repro.spice import ac
from repro.topologies import available_topologies, topology_by_name

from tests import mna_oracle as oracle
from tests.conftest import GOOD_WIDTHS

L = 180e-9


def rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit("rc")
    circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
    circuit.add_resistor("R", "in", "out", r)
    circuit.add_capacitor("C", "out", "0", c)
    return circuit


class TestACAnalysis:
    def test_rc_pole_matches_analytic(self):
        r, c = 1e3, 1e-9
        circuit = rc_lowpass(r, c)
        dc = solve_dc(circuit)
        freqs = np.logspace(3, 8, 101)
        result = run_ac(dc, freqs)
        h = result.transfer("out")
        expected = 1.0 / (1.0 + 2j * np.pi * freqs * r * c)
        np.testing.assert_allclose(h, expected, rtol=1e-10)

    def test_supply_is_small_signal_ground(self):
        circuit = Circuit("supply")
        circuit.add_vsource("VDD", "vdd", "0", 1.2, ac=0.0)
        circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
        circuit.add_resistor("R1", "in", "x", 1e3)
        circuit.add_resistor("R2", "x", "vdd", 1e3)
        dc = solve_dc(circuit)
        result = run_ac(dc, np.array([1e3]))
        assert abs(result.transfer("vdd")[0]) == pytest.approx(0.0, abs=1e-12)
        assert abs(result.transfer("x")[0]) == pytest.approx(0.5, rel=1e-9)

    def test_cs_amplifier_low_frequency_gain(self):
        circuit = Circuit("cs")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VIN", "g", "0", 0.55, ac=1.0)
        circuit.add_resistor("RL", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "g", "0", NMOS_65NM, 5e-6, L)
        dc = solve_dc(circuit)
        small = dc.op("M").small_signal
        expected = -small.gm / (1.0 / 20e3 + small.gds)
        result = run_ac(dc, np.array([10.0]))
        assert result.transfer("d")[0].real == pytest.approx(expected, rel=1e-6)

    def test_magnitude_db(self):
        circuit = rc_lowpass()
        dc = solve_dc(circuit)
        result = run_ac(dc, np.array([1.0]))
        assert result.magnitude_db("out")[0] == pytest.approx(0.0, abs=1e-6)

    def test_transfer_uses_index_map(self):
        """transfer() resolves nodes through the precomputed name map."""
        circuit = rc_lowpass()
        dc = solve_dc(circuit)
        result = run_ac(dc, np.array([1e3, 1e6]))
        for i, name in enumerate(result.node_names):
            np.testing.assert_array_equal(result.transfer(name), result.phasors[:, i])
        assert not result.transfer("0").any()  # ground is identically zero
        with pytest.raises(ValueError, match="not a node"):
            result.transfer("missing-node")

    def test_batch_of_n_equals_batch_of_one(self):
        """Under ``auto`` a candidate's phasors are the same bits whether it
        is solved alone or in a batch -- corner-mixed, several structures
        in one call, or next to other widths."""
        five_t, fc = topology_by_name("5T-OTA"), topology_by_name("FC-OTA")
        plans = [
            (topology, dict(GOOD_WIDTHS[topology.name], M1=GOOD_WIDTHS[topology.name]["M1"] * scale), corner)
            for topology in (five_t, fc)
            for corner in ("tt", "ss", "ff")
            for scale in (1.0, 1.3)
        ]
        circuits = [topology.build_circuit(w, corner=c) for topology, w, c in plans]
        guesses = [topology.initial_guess_for(c) for topology, _, c in plans]
        solutions = solve_dc_many(circuits, initial_guess=guesses)
        solutions.append(solve_dc(rc_lowpass()))
        together = run_ac_many(solutions)
        for solution, result in zip(solutions, together, strict=True):
            (alone,) = run_ac_many([solution])
            assert result.node_names == alone.node_names
            np.testing.assert_array_equal(result.phasors, alone.phasors)

    def test_forced_dense_chunking_keeps_bits(self, monkeypatch):
        """The per-frequency LU reference gives the same bits whether the
        ``(candidates, frequencies)`` stack is solved whole or in chunks
        (a one-candidate stack over the memory budget)."""
        five_t = topology_by_name("5T-OTA")
        solutions = [
            solve_dc(five_t.build(dict(GOOD_WIDTHS["5T-OTA"], M3=w)), initial_guess=five_t.initial_guess())
            for w in (10e-6, 15e-6, 20e-6)
        ]
        with use_backend("dense"):
            whole = run_ac_many(solutions)
            monkeypatch.setattr(ac, "_AC_STACK_BUDGET", 7 * 11 * 11)
            chunked = run_ac_many(solutions)
        for reference, result in zip(whole, chunked, strict=True):
            np.testing.assert_array_equal(result.phasors, reference.phasors)

    @pytest.mark.parametrize("mode", ["auto", "dense", "sparse"])
    def test_rc_closed_form(self, mode):
        """Every route reproduces the RC low-pass ``1 / (1 + jwRC)`` at
        both nodes, batched over several resistances."""
        freqs = np.logspace(2, 9, 40)
        resistances = (5e2, 1e3, 2e3, 8e3)
        c = 1e-9
        solutions = [solve_dc(rc_lowpass(r=r, c=c)) for r in resistances]
        with use_backend(mode):
            results = run_ac_many(solutions, freqs)
        for r, result in zip(resistances, results, strict=True):
            assert result.node_names == ["in", "out"]
            # |H| <= 1, so atol is a normwise bound at a few ulps.
            np.testing.assert_allclose(result.transfer("in"), 1.0, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(
                result.transfer("out"),
                1.0 / (1.0 + 2j * np.pi * freqs * r * c),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_empty_grid(self):
        (result,) = run_ac_many([solve_dc(rc_lowpass())], np.array([]))
        assert result.phasors.shape == (0, 2)

    def test_default_grid_spans_requested_range(self):
        grid = default_frequency_grid(1.0, 1e9, 10)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e9)
        assert np.all(np.diff(np.log10(grid)) > 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            default_frequency_grid(10.0, 1.0)


def assert_matches_oracle(result, solution, node):
    """``result`` agrees with the per-frequency oracle at ``node`` to
    :data:`~tests.mna_oracle.AC_RTOL` (phasors max-norm relative, metrics
    relative)."""
    reference = oracle.run_ac(solution, result.frequencies)
    got, want = result.transfer(node), reference.transfer(node)
    assert np.abs(got - want).max() <= oracle.AC_RTOL * np.abs(want).max()
    np.testing.assert_allclose(
        extract_metrics(result, node).as_array(),
        extract_metrics(reference, node).as_array(),
        rtol=oracle.AC_RTOL,
    )


def capacitor_only_node():
    """RC divider whose node ``mid`` is reached only through capacitors:
    its row of ``G`` is zero, so ``G`` is singular."""
    circuit = Circuit("floating")
    circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
    circuit.add_resistor("R", "in", "a", 1e3)
    circuit.add_capacitor("C1", "a", "mid", 1e-9)
    circuit.add_capacitor("C2", "mid", "0", 2e-9)
    return circuit


class TestACOracle:
    """The default AC sweep against the scalar per-frequency oracle."""

    @pytest.mark.parametrize("corner", ["tt", "ss", "ff"])
    @pytest.mark.parametrize("name", sorted(available_topologies()))
    def test_good_widths_at_corners(self, name, corner):
        topology = topology_by_name(name)
        circuit = topology.build_circuit(GOOD_WIDTHS[name], corner=corner)
        solution = solve_dc(circuit, initial_guess=topology.initial_guess_for(corner))
        assert_matches_oracle(run_ac(solution), solution, topology.output_node)

    @pytest.mark.parametrize("name", sorted(available_topologies()))
    def test_random_designs(self, name):
        """40 designs at widths x e^+-0.7, swept in one batch."""
        topology = topology_by_name(name)
        rng = np.random.default_rng(16)
        designs = [
            {device: w * np.exp(rng.uniform(-0.7, 0.7)) for device, w in GOOD_WIDTHS[name].items()}
            for _ in range(40)
        ]
        outcomes = solve_dc_many(
            [topology.build(w) for w in designs], initial_guess=topology.initial_guess()
        )
        solutions = [s for s in outcomes if not isinstance(s, ConvergenceError)]
        assert len(solutions) >= 30
        for solution, result in zip(solutions, run_ac_many(solutions), strict=True):
            assert_matches_oracle(result, solution, topology.output_node)

    def test_singular_conductance_falls_back_to_lu(self):
        """A capacitor-only node makes ``G`` singular: that candidate is
        swept by the per-frequency LU, alone or next to healthy OTAs,
        and the healthy candidates keep their solo bits."""
        five_t = topology_by_name("5T-OTA")
        healthy = [
            solve_dc(five_t.build(dict(GOOD_WIDTHS["5T-OTA"], M3=w)), initial_guess=five_t.initial_guess())
            for w in (10e-6, 20e-6)
        ]
        singular = solve_dc(capacitor_only_node())
        (alone,) = run_ac_many([singular])
        for node in ("a", "mid"):
            assert_matches_oracle(alone, singular, node)
        mixed = run_ac_many([healthy[0], singular, healthy[1]])
        np.testing.assert_array_equal(mixed[1].phasors, alone.phasors)
        for solution, result in zip(healthy, (mixed[0], mixed[2]), strict=True):
            np.testing.assert_array_equal(result.phasors, run_ac(solution).phasors)

    def test_singular_candidate_inside_a_group(self):
        """A singular ``G`` among same-structure siblings (a drain-only
        node whose device reports ``gds = 0``): the group splits between
        the two routes and every candidate keeps its solo bits."""
        def drain_only(width):
            circuit = Circuit("drain-only")
            circuit.add_vsource("VIN", "g", "0", 0.6, ac=1.0)
            circuit.add_mosfet("M", "x", "g", "0", NMOS_65NM, width, L)
            circuit.add_capacitor("C", "x", "0", 1e-12)
            return solve_dc(circuit)

        solutions = [drain_only(w) for w in (1e-6, 2e-6, 3e-6)]
        op = solutions[1].operating_points["M"]
        solutions[1] = dataclasses.replace(
            solutions[1],
            operating_points={
                "M": dataclasses.replace(op, small_signal=dataclasses.replace(op.small_signal, gds=0.0))
            },
        )
        together = run_ac_many(solutions)
        for solution, result in zip(solutions, together, strict=True):
            np.testing.assert_array_equal(result.phasors, run_ac(solution).phasors)
            assert_matches_oracle(result, solution, "x")


class TestMetricExtraction:
    def test_rc_f3db(self):
        r, c = 1e3, 1e-9
        circuit = rc_lowpass(r, c)
        dc = solve_dc(circuit)
        result = run_ac(dc, np.logspace(2, 9, 211))
        metrics = extract_metrics(result, "out")
        expected_pole = 1.0 / (2 * np.pi * r * c)
        assert metrics.gain_db == pytest.approx(0.0, abs=1e-4)
        assert metrics.f3db_hz == pytest.approx(expected_pole, rel=0.02)
        # A unity-gain passive filter never crosses 0 dB from above at
        # finite frequency after the pole; UGF equals f3dB region crossing.
        assert np.isfinite(metrics.ugf_hz) or np.isnan(metrics.ugf_hz)

    def test_crossing_interpolation(self):
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 20.0, 0.0])
        crossing = crossing_frequency(freqs, mags, 10.0)
        assert 10.0 < crossing < 100.0

    def test_no_crossing_returns_nan(self):
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([5.0, 5.0, 5.0])
        assert np.isnan(crossing_frequency(freqs, mags, 0.0))

    def test_level_above_response_returns_nan(self):
        """A response entirely below the level never crosses from above."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([5.0, 4.0, 3.0])
        assert np.isnan(crossing_frequency(freqs, mags, 10.0))

    def test_first_point_crossing(self):
        """Crossing within the very first grid interval."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 5.0, 1.0])
        frac = (20.0 - 10.0) / (20.0 - 5.0)
        expected = 10.0 ** (0.0 + frac * (np.log10(10.0) - np.log10(1.0)))
        assert crossing_frequency(freqs, mags, 10.0) == expected

    def test_flat_segment_before_crossing(self):
        """A flat at-level plateau: the crossing interval starts at the
        plateau's last point, and interpolation lands exactly on it."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 20.0, 0.0])
        assert crossing_frequency(freqs, mags, 20.0) == 10.0

    def test_grid_exact_crossing_at_final_sample(self):
        """Regression: a response that lands grid-exactly on the level at
        the *last* grid point is a crossing (the old right-edge-below scan
        returned nan because no interval had a below-level right edge)."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 12.0, 10.0])
        assert crossing_frequency(freqs, mags, 10.0) == 100.0

    def test_grid_exact_touch_mid_grid(self):
        """A grid-exact hit from strictly above mid-grid resolves to that
        grid point, even when the response recovers afterwards."""
        freqs = np.array([1.0, 10.0, 100.0, 1000.0])
        mags = np.array([20.0, 10.0, 15.0, 5.0])
        assert crossing_frequency(freqs, mags, 10.0) == 10.0

    def test_flat_at_level_plateau_is_not_a_crossing(self):
        """Riding *along* the level never counts as crossing it from
        above; the interpolation therefore never sees m1 == m2."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([10.0, 10.0, 10.0])
        assert np.isnan(crossing_frequency(freqs, mags, 10.0))

    def test_vectorized_scan_matches_reference_loop(self):
        """Bit-identity pin of the numpy sign-change scan against a
        pure-Python loop, over random grids (NaN tails included)."""

        def reference(freqs, mags, level_db):
            for i in range(len(freqs) - 1):
                m1, m2 = mags[i], mags[i + 1]
                if (m1 >= level_db and m2 < level_db) or (
                    m1 > level_db and m2 == level_db
                ):
                    log_f1, log_f2 = np.log10(freqs[i]), np.log10(freqs[i + 1])
                    frac = (m1 - level_db) / (m1 - m2)
                    return float(10.0 ** (log_f1 + frac * (log_f2 - log_f1)))
            return float("nan")

        rng = np.random.default_rng(8)
        freqs = np.logspace(0, 9, 181)
        for case in range(50):
            mags = np.cumsum(rng.normal(-0.5, 2.0, freqs.size))
            if case % 5 == 0:
                mags[-rng.integers(1, 20):] = np.nan  # unresolved band edge
            for level in (-10.0, 0.0, float(mags[0]), 10.0):
                expected = reference(freqs, mags, level)
                got = crossing_frequency(freqs, mags, level)
                assert (np.isnan(expected) and np.isnan(got)) or expected == got

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crossing_frequency(np.array([1.0, 2.0]), np.array([1.0]), 0.0)

    def test_ota_metrics_sane(self, five_t_measurement):
        metrics = five_t_measurement.metrics
        assert metrics.is_valid()
        assert 15.0 < metrics.gain_db < 40.0
        assert 1e6 < metrics.f3db_hz < 1e8
        assert 1e7 < metrics.ugf_hz < 1e9
        # Single-pole-ish consistency: UGF ~ gain * f3dB.
        assert metrics.ugf_hz == pytest.approx(
            metrics.gain_linear * metrics.f3db_hz, rel=0.4
        )

    def test_metrics_as_array(self):
        metrics = PerformanceMetrics(20.0, 1e6, 1e8)
        np.testing.assert_allclose(metrics.as_array(), [20.0, 1e6, 1e8])
        assert metrics.gain_linear == pytest.approx(10.0)

    def test_invalid_metrics_flagged(self):
        metrics = PerformanceMetrics(20.0, float("nan"), 1e8)
        assert not metrics.is_valid()
