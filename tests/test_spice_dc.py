"""Tests of the nonlinear DC operating-point solver."""

from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import NMOS_65NM, PMOS_65NM
from repro.spice import Circuit, ConvergenceError, solve_dc, solve_dc_many, use_backend
from repro.spice.linsolve import HAVE_SPARSE

from tests import mna_oracle as oracle
from tests.conftest import GOOD_WIDTHS

L = 180e-9


def resistor_divider(r1=1e3, r2=3e3, vin=1.2):
    circuit = Circuit("divider")
    circuit.add_vsource("VIN", "in", "0", vin)
    circuit.add_resistor("R1", "in", "mid", r1)
    circuit.add_resistor("R2", "mid", "0", r2)
    return circuit


class TestLinearCircuits:
    def test_resistor_divider_voltage(self):
        solution = solve_dc(resistor_divider())
        assert solution.voltage("mid") == pytest.approx(1.2 * 3.0 / 4.0, rel=1e-9)

    def test_source_current(self):
        solution = solve_dc(resistor_divider())
        # SPICE convention: the branch current of a sourcing supply is
        # negative (it flows out of the + terminal into the circuit).
        assert solution.source_currents["VIN"] == pytest.approx(-0.3e-3, rel=1e-4)

    def test_current_source_into_resistor(self):
        circuit = Circuit("ir")
        circuit.add_resistor("R", "n", "0", 10e3)
        circuit.add_isource("I1", "0", "n", 1e-3)  # pulls 1 mA out of ground into n
        solution = solve_dc(circuit)
        assert solution.voltage("n") == pytest.approx(10.0, rel=1e-6)

    def test_ground_alias(self):
        circuit = Circuit("alias")
        circuit.add_vsource("V1", "a", "gnd", 1.0)
        circuit.add_resistor("R", "a", "GND", 1e3)
        solution = solve_dc(circuit)
        assert solution.voltage("a") == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        r1=st.floats(min_value=10.0, max_value=1e6),
        r2=st.floats(min_value=10.0, max_value=1e6),
        vin=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_divider_property(self, r1, r2, vin):
        if abs(vin) < 1e-6:
            return
        solution = solve_dc(resistor_divider(r1, r2, vin))
        expected = vin * r2 / (r1 + r2)
        assert solution.voltage("mid") == pytest.approx(expected, rel=1e-6)

    def test_kcl_residual_small(self):
        solution = solve_dc(resistor_divider())
        assert solution.kcl_residual() < 1e-9


class TestNonlinearCircuits:
    def test_diode_connected_nmos(self):
        circuit = Circuit("diode")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_resistor("R", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "d", "0", NMOS_65NM, 5e-6, L)
        solution = solve_dc(circuit)
        vd = solution.voltage("d")
        assert 0.3 < vd < 0.8  # around a Vgs drop
        # KCL: resistor current equals device current.
        device = circuit.mosfet("M")
        i_res = (1.2 - vd) / 20e3
        assert device.ids(vd, vd, 0.0) == pytest.approx(i_res, rel=1e-6)

    def test_common_source_operating_point(self):
        circuit = Circuit("cs")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VG", "g", "0", 0.55)
        circuit.add_resistor("RL", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "g", "0", NMOS_65NM, 5e-6, L)
        solution = solve_dc(circuit)
        assert 0.0 < solution.voltage("d") < 1.2
        op = solution.op("M")
        assert op.small_signal.gm > 0

    def test_initial_guess_independence(self, five_t):
        widths = {"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6}
        circuit = five_t.build(widths)
        sol_a = solve_dc(circuit, initial_guess=five_t.initial_guess())
        sol_b = solve_dc(circuit, initial_guess={n: 0.9 for n in circuit.nodes()})
        for node in circuit.nodes():
            assert sol_a.voltage(node) == pytest.approx(sol_b.voltage(node), abs=1e-6)
        # Any Mapping is one shared guess, not a per-circuit sequence.
        (sol_c,) = solve_dc_many(
            [circuit], initial_guess=MappingProxyType(five_t.initial_guess())
        )
        assert sol_c.node_voltages == sol_a.node_voltages

    def test_operating_points_recorded_for_all_devices(self, five_t_measurement):
        ops = five_t_measurement.dc.operating_points
        assert set(ops) == {"M1", "M2", "M3", "M4", "M5"}

    def test_symmetric_ota_has_symmetric_op(self, five_t_measurement):
        dc = five_t_measurement.dc
        # Perfect matching + equal inputs -> mirror symmetry of the OP.
        assert dc.voltage("d1") == pytest.approx(dc.voltage("out"), abs=1e-6)

    def test_pmos_source_follower(self):
        circuit = Circuit("psf")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VG", "g", "0", 0.4)
        circuit.add_mosfet("M", "0", "g", "s", PMOS_65NM, 10e-6, L)
        circuit.add_resistor("RS", "vdd", "s", 50e3)
        solution = solve_dc(circuit)
        # Source should sit roughly a |Vgs| above the gate.
        assert solution.voltage("s") > 0.4


class TestRobustness:
    def test_floating_node_is_conditioned_by_gmin(self):
        circuit = Circuit("float")
        circuit.add_vsource("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_capacitor("C1", "b", "c", 1e-12)  # c floats in DC
        circuit.add_resistor("R2", "c", "0", 1e3)
        solution = solve_dc(circuit)
        assert solution.voltage("c") == pytest.approx(0.0, abs=1e-6)

    def test_solution_strategy_reported(self):
        solution = solve_dc(resistor_divider())
        assert solution.strategy in ("newton", "gmin-stepping", "source-stepping")


class TestSolveDCMany:
    def _cs_stage(self, width):
        circuit = Circuit("cs")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VIN", "g", "0", 0.55)
        circuit.add_resistor("RL", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "g", "0", NMOS_65NM, width, L)
        return circuit

    def test_bitwise_matches_scalar_over_width_batch(self):
        widths = [1e-6, 2e-6, 5e-6, 12e-6, 30e-6]
        batched = solve_dc_many([self._cs_stage(w) for w in widths])
        for width, solution in zip(widths, batched, strict=True):
            reference = oracle.solve_dc(self._cs_stage(width))
            assert solution.node_voltages == reference.node_voltages
            assert solution.source_currents == reference.source_currents
            assert solution.iterations == reference.iterations
            assert solution.strategy == reference.strategy
            assert solution.operating_points == reference.operating_points

    def test_mosfet_free_batch(self):
        """A structure group with no MOSFETs (nothing to vectorize) still
        solves every candidate."""
        solutions = solve_dc_many([resistor_divider(), resistor_divider()])
        assert len(solutions) == 2
        for solution in solutions:
            assert solution.voltage("mid") == pytest.approx(1.2 * 3.0 / 4.0, rel=1e-9)

    def test_mixed_structures_are_grouped(self):
        """Structurally different circuits in one call still all solve."""
        mixed = [self._cs_stage(2e-6), resistor_divider(), self._cs_stage(5e-6)]
        solutions = solve_dc_many(mixed)
        assert solutions[1].voltage("mid") == pytest.approx(1.2 * 3.0 / 4.0, rel=1e-9)
        assert solutions[0].node_voltages == oracle.solve_dc(self._cs_stage(2e-6)).node_voltages
        assert solutions[2].node_voltages == oracle.solve_dc(self._cs_stage(5e-6)).node_voltages


class TestBatchedContinuation:
    """The fallback strategies run batched over the candidates plain Newton
    left behind.  A 5T-OTA capped at 10 Newton iterations per stage is
    steered into each strategy: the default start converges plainly, all
    nodes started at 1 V need gmin stepping, at 3 V source stepping, and a
    20 V supply defeats every strategy."""

    MAX_ITERATIONS = 10

    @pytest.mark.parametrize(
        "mode",
        ["dense", pytest.param("sparse", marks=pytest.mark.skipif(
            not HAVE_SPARSE, reason="scipy not installed"))],
    )
    def test_each_strategy_bit_identical_to_oracle(self, five_t, mode):
        expected = ["newton", "gmin-stepping", "source-stepping", None]
        circuits = [five_t.build(GOOD_WIDTHS["5T-OTA"]) for _ in expected]
        circuits[3].vsource("VDD").dc = 20.0
        nodes = circuits[0].nodes()
        guesses = [
            five_t.initial_guess(),
            {node: 1.0 for node in nodes},
            {node: 3.0 for node in nodes},
            five_t.initial_guess(),
        ]
        with use_backend(mode):
            batched = solve_dc_many(
                circuits, initial_guess=guesses, max_iterations=self.MAX_ITERATIONS
            )
            for circuit, guess, strategy, solution in zip(
                circuits, guesses, expected, batched, strict=True
            ):
                if strategy is None:
                    assert isinstance(solution, ConvergenceError)
                    with pytest.raises(ConvergenceError, match="all strategies"):
                        oracle.solve_dc(circuit, guess, self.MAX_ITERATIONS)
                    continue
                reference = oracle.solve_dc(circuit, guess, self.MAX_ITERATIONS)
                assert reference.strategy == solution.strategy == strategy
                assert solution.node_voltages == reference.node_voltages
                assert solution.source_currents == reference.source_currents
                assert solution.iterations == reference.iterations
                assert solution.operating_points == reference.operating_points
                assert solution.kcl_residual() < 1e-9
