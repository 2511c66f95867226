"""Tests of the SPICE-in-the-loop baselines (SA / PSO / DE) of Table IX.

The baselines are the registered ``sa`` / ``pso`` / ``de`` solvers of
:mod:`repro.solvers`; these tests pin their search space, objective
bookkeeping and budget accounting through that API.
"""

import numpy as np
import pytest

from repro import solvers
from repro.core import DesignSpec
from repro.solvers import SearchObjective, SearchSpace

from tests.conftest import GOOD_WIDTHS


@pytest.fixture(scope="module")
def easy_spec(five_t_module):
    """A specification a known design comfortably exceeds."""
    metrics = five_t_module.measure(GOOD_WIDTHS["5T-OTA"]).metrics
    return DesignSpec(metrics.gain_db * 0.9, metrics.f3db_hz * 0.5, metrics.ugf_hz * 0.5)


@pytest.fixture(scope="module")
def five_t_module():
    from repro.topologies import FiveTransistorOTA

    return FiveTransistorOTA()


class TestSearchSpace:
    def test_decode_bounds(self, five_t_module):
        space = SearchSpace(five_t_module)
        lows = space.decode(np.zeros(space.dimension))
        highs = space.decode(np.ones(space.dimension))
        for name in space.names:
            low, high = five_t_module.group(name).width_bounds
            assert lows[name] == pytest.approx(low)
            assert highs[name] == pytest.approx(high)

    def test_decode_clips(self, five_t_module):
        space = SearchSpace(five_t_module)
        widths = space.decode(np.full(space.dimension, 2.0))
        for name, width in widths.items():
            assert width == pytest.approx(five_t_module.group(name).width_bounds[1])


class TestObjective:
    def test_counts_spice_calls(self, five_t_module, easy_spec):
        objective = SearchObjective(five_t_module, easy_spec)
        rng = np.random.default_rng(0)
        objective.evaluate_many([objective.space.random_point(rng) for _ in range(3)])
        objective.evaluate_one(objective.space.random_point(rng))
        assert objective.spice_calls == 4

    def test_zero_cost_when_satisfied(self, five_t_module, easy_spec):
        objective = SearchObjective(five_t_module, easy_spec)
        # Encode the known-good design into the normalized space.
        space = objective.space
        point = np.zeros(space.dimension)
        for i, name in enumerate(space.names):
            low, high = five_t_module.group(name).width_bounds
            width = GOOD_WIDTHS["5T-OTA"][name]
            point[i] = (np.log(width) - np.log(low)) / (np.log(high) - np.log(low))
        assert objective.evaluate_one(point) == pytest.approx(0.0)
        assert objective.satisfied


@pytest.mark.parametrize("algorithm", ["sa", "pso", "de"], ids=["SA", "PSO", "DE"])
class TestBaselineAlgorithms:
    def _solve(self, algorithm, topology, spec, seed, budget):
        solver = solvers.create(algorithm, topology)
        return solver.solve(spec, budget=budget, rng=np.random.default_rng(seed))

    def test_finds_easy_spec(self, algorithm, five_t_module, easy_spec):
        result = self._solve(algorithm, five_t_module, easy_spec, 5, 250)
        assert result.success, f"{result.solver} best={result.best_value}"
        assert result.best_widths is not None
        assert result.spice_calls <= 250

    def test_respects_evaluation_budget(self, algorithm, five_t_module):
        hard = DesignSpec(gain_db=80.0, f3db_hz=1e10, ugf_hz=1e12)
        result = self._solve(algorithm, five_t_module, hard, 6, 30)
        assert not result.success
        assert result.spice_calls <= 30

    def test_history_monotone_nonincreasing(self, algorithm, five_t_module, easy_spec):
        result = self._solve(algorithm, five_t_module, easy_spec, 7, 100)
        assert np.all(np.diff(np.array(result.history)) <= 1e-12)

    def test_spice_call_accounting(self, algorithm, five_t_module, easy_spec):
        """Every optimizer evaluation is counted as a SPICE call."""
        result = self._solve(algorithm, five_t_module, easy_spec, 8, 250)
        assert result.spice_calls >= 1
        assert len(result.history) == result.spice_calls
