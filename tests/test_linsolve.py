"""Tests of the pluggable linear-solve layer (``repro.spice.linsolve``).

Three layers of guarantees:

* the dense backend is the bit-identity reference -- routing through
  :func:`solve_stacked` reproduces ``np.linalg.solve`` (and its per-item
  ``lstsq`` recovery on singular batches) bit for bit;
* the sparse backend agrees with the dense one to a pinned tolerance on
  every registered topology at every PVT corner across all three
  analyses, and shares the dense fallback semantics on singular systems;
* :class:`StructurePattern` is a faithful symbolic CSC skeleton for any
  coordinate set (property-tested), and the auto-dispatch policy only
  engages SuperLU above the size threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice import (
    SPARSE_MIN_SIZE,
    StructurePattern,
    backend_mode,
    factorize_structure,
    pattern_from_matrices,
    solve_dc_many,
    solve_stacked,
    use_backend,
)
from repro.spice.linsolve import HAVE_SPARSE
from repro.topologies import available_topologies, topology_by_name

from tests.conftest import GOOD_WIDTHS
from tests.mna_oracle import AC_RTOL
from tests.mna_oracle import solve_dc as oracle_solve_dc

requires_sparse = pytest.mark.skipif(
    not HAVE_SPARSE, reason="scipy not installed; sparse backend degrades to dense"
)

#: Pinned sparse-vs-dense agreement on raw solve_stacked solutions.
#: Measured ~1e-16 relative on well-conditioned MNA-scale systems; two
#: orders of slack keep the pin meaningful without flaking.
SOLVE_RTOL = 1e-12

#: Pinned sparse-vs-dense agreement on end-to-end measured metrics
#: (Newton iteration and metric extraction amplify the solver-level ulps).
METRIC_RTOL = 1e-6


def _well_conditioned(shape, size, rng, complex_=False):
    """A diagonally dominated random stack: never singular, cond ~ O(1)."""
    jac = rng.standard_normal(shape + (size, size))
    if complex_:
        jac = jac + 1j * rng.standard_normal(shape + (size, size))
    jac = jac + size * np.eye(size)
    rhs = rng.standard_normal(shape + (size,))
    if complex_:
        rhs = rhs + 1j * rng.standard_normal(shape + (size,))
    return jac, rhs


def _full_pattern(size):
    rows, cols = np.mgrid[0:size, 0:size]
    return factorize_structure(rows.ravel(), cols.ravel(), size)


class TestDenseBackend:
    def test_matches_numpy_bitwise(self, rng):
        jac, rhs = _well_conditioned((3, 4), 9, rng)
        expected = np.linalg.solve(jac, rhs[..., None])[..., 0]
        assert np.array_equal(solve_stacked(jac, rhs), expected)

    def test_auto_stays_dense_below_threshold(self, rng):
        """A pattern alone must not change bits on paper-scale systems."""
        size = SPARSE_MIN_SIZE // 4
        jac, rhs = _well_conditioned((5,), size, rng)
        expected = np.linalg.solve(jac, rhs[..., None])[..., 0]
        assert backend_mode() == "auto"
        assert np.array_equal(solve_stacked(jac, rhs, _full_pattern(size)), expected)

    def test_dense_mode_pins_reference_at_any_size(self, rng):
        size = SPARSE_MIN_SIZE + 16
        jac, rhs = _well_conditioned((2,), size, rng)
        expected = np.linalg.solve(jac, rhs[..., None])[..., 0]
        with use_backend("dense"):
            assert np.array_equal(solve_stacked(jac, rhs, _full_pattern(size)), expected)

    def test_singular_batch_falls_back_per_item(self, rng):
        """One singular item must not poison the batch: the healthy items
        keep their ``np.linalg.solve`` answers, the singular one gets the
        scalar path's ``lstsq`` minimum-norm solution."""
        jac, rhs = _well_conditioned((3,), 4, rng)
        jac[1, 2] = jac[1, 3]  # duplicate row: exactly rank-deficient
        out = solve_stacked(jac, rhs)
        for k in (0, 2):
            assert np.array_equal(out[k], np.linalg.solve(jac[k], rhs[k]))
        expected = np.linalg.lstsq(jac[1], rhs[1], rcond=None)[0]
        assert np.array_equal(out[1], expected)

    def test_complex_systems_supported(self, rng):
        jac, rhs = _well_conditioned((2, 3), 7, rng, complex_=True)
        expected = np.linalg.solve(jac, rhs[..., None])[..., 0]
        assert np.array_equal(solve_stacked(jac, rhs), expected)


@requires_sparse
class TestSparseBackend:
    def test_parity_with_dense_real(self, rng):
        jac, rhs = _well_conditioned((4,), 24, rng)
        expected = solve_stacked(jac, rhs)
        with use_backend("sparse"):
            out = solve_stacked(jac, rhs, _full_pattern(24))
        np.testing.assert_allclose(out, expected, rtol=SOLVE_RTOL, atol=0.0)

    def test_parity_with_dense_complex(self, rng):
        jac, rhs = _well_conditioned((2, 3), 24, rng, complex_=True)
        expected = solve_stacked(jac, rhs)
        with use_backend("sparse"):
            out = solve_stacked(jac, rhs, _full_pattern(24))
        np.testing.assert_allclose(out, expected, rtol=SOLVE_RTOL, atol=0.0)

    def test_pattern_superset_with_explicit_zeros(self, rng):
        """The pattern may hold entries that are numerically zero in a
        given iterate (the structural superset the engines rely on)."""
        size = 16
        jac = np.diag(rng.standard_normal(size) + 3.0)[None]
        rhs = rng.standard_normal((1, size))
        with use_backend("sparse"):
            out = solve_stacked(jac, rhs, _full_pattern(size))
        np.testing.assert_allclose(
            out, np.linalg.solve(jac, rhs[..., None])[..., 0],
            rtol=SOLVE_RTOL, atol=0.0,
        )

    def test_singular_fallback_matches_dense_backend(self, rng):
        """SuperLU raises on an exactly singular factor; the recovery must
        agree with the dense backend's lstsq answer bit for bit (it runs
        the identical per-item dense code on the identical values)."""
        size = 6
        jac = np.zeros((2, size, size))
        jac[:] = rng.standard_normal((size, size))
        jac[:, size - 1, :] = 0.0  # zero row: an exact zero pivot, every item
        rhs = rng.standard_normal((2, size))
        expected = solve_stacked(jac, rhs)
        with use_backend("sparse"):
            out = solve_stacked(jac, rhs, _full_pattern(size))
        assert np.array_equal(out, expected)

    def test_auto_dispatch_threshold(self, rng, monkeypatch):
        """Auto engages SuperLU exactly at ``sparse_min_size`` unknowns."""
        import repro.spice.linsolve as linsolve

        calls = []
        real_splu = linsolve._splu
        monkeypatch.setattr(
            linsolve, "_splu", lambda m: calls.append(m.shape) or real_splu(m)
        )
        with use_backend(sparse_min_size=8):
            small_jac, small_rhs = _well_conditioned((2,), 7, rng)
            solve_stacked(small_jac, small_rhs, _full_pattern(7))
            assert calls == []
            big_jac, big_rhs = _well_conditioned((2,), 8, rng)
            solve_stacked(big_jac, big_rhs, _full_pattern(8))
            assert len(calls) == 2  # one factorization per stacked item
            calls.clear()
            solve_stacked(big_jac, big_rhs)  # no pattern: always dense
            assert calls == []
        with use_backend("dense", sparse_min_size=8):
            solve_stacked(big_jac, big_rhs, _full_pattern(8))
            assert calls == []

    def test_pattern_size_mismatch_rejected(self, rng):
        jac, rhs = _well_conditioned((1,), 5, rng)
        with use_backend("sparse"), pytest.raises(ValueError, match="size"):
            solve_stacked(jac, rhs, _full_pattern(6))


class TestBackendSelection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown linsolve mode"):
            with use_backend("cholesky"):
                pass  # pragma: no cover

    def test_mode_restored_after_exception(self):
        assert backend_mode() == "auto"
        with pytest.raises(RuntimeError):
            with use_backend("dense"):
                assert backend_mode() == "dense"
                raise RuntimeError("boom")
        assert backend_mode() == "auto"

    def test_nested_overrides_unwind(self):
        with use_backend("dense"):
            with use_backend("sparse"):
                assert backend_mode() == "sparse"
            assert backend_mode() == "dense"
        assert backend_mode() == "auto"


# ----------------------------------------------------------------------
# StructurePattern: property-based symbolic-skeleton checks
# ----------------------------------------------------------------------
coordinate_sets = st.integers(min_value=2, max_value=12).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.lists(
            st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1)
            ),
            min_size=size,  # keep the diagonal coverable
            max_size=4 * size,
        ),
    )
)


class TestStructurePattern:
    @given(coordinate_sets)
    @settings(max_examples=60, deadline=None)
    def test_csc_skeleton_is_faithful(self, case):
        """Dedup, CSC ordering, and the flat gather map all agree with the
        dense matrix the coordinates came from."""
        size, coords = case
        coords = coords + [(d, d) for d in range(size)]  # duplicates welcome
        rows = np.array([r for r, _ in coords])
        cols = np.array([c for _, c in coords])
        pattern = factorize_structure(rows, cols, size)

        unique_pairs = {(int(r), int(c)) for r, c in zip(rows, cols)}
        assert pattern.nnz == len(unique_pairs)
        assert pattern.indptr[0] == 0 and pattern.indptr[-1] == pattern.nnz
        assert np.all(np.diff(pattern.indptr) >= 0)

        dense = np.arange(1.0, size * size + 1).reshape(size, size)
        data = dense.ravel()[pattern.flat]
        for col in range(size):
            span = slice(pattern.indptr[col], pattern.indptr[col + 1])
            col_rows = pattern.indices[span]
            assert np.all(np.diff(col_rows) > 0)  # strictly ascending, deduped
            assert {(int(r), col) for r in col_rows} == {
                p for p in unique_pairs if p[1] == col
            }
            assert np.array_equal(data[span], dense[col_rows, col])

    @given(coordinate_sets)
    @settings(max_examples=25, deadline=None)
    def test_diagonal_dominant_solve_parity(self, case):
        """Any pattern covering the matrix nonzeros solves to dense parity."""
        if not HAVE_SPARSE:
            pytest.skip("scipy not installed")
        size, coords = case
        coords = coords + [(d, d) for d in range(size)]
        matrix = np.zeros((size, size))
        for r, c in coords:
            matrix[r, c] = 0.1 * (r + 2) * (c + 3)
        matrix += size * np.eye(size)
        rhs = np.arange(1.0, size + 1)
        pattern = factorize_structure(
            np.array([r for r, _ in coords]), np.array([c for _, c in coords]), size
        )
        with use_backend("sparse"):
            out = solve_stacked(matrix[None], rhs[None], pattern)
        np.testing.assert_allclose(
            out[0], np.linalg.solve(matrix, rhs), rtol=1e-10, atol=0.0
        )

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            StructurePattern(np.array([0, 5]), np.array([0, 1]), 5)
        with pytest.raises(ValueError, match="out of range"):
            StructurePattern(np.array([-1]), np.array([0]), 3)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            StructurePattern(np.array([0, 1]), np.array([0]), 3)

    def test_pattern_from_matrices_unions_nonzeros(self):
        g = np.zeros((2, 4, 4))
        c = np.zeros((4, 4))
        g[0, 0, 1] = 1.0
        g[1, 2, 3] = 2.0
        c[3, 0] = 5.0
        pattern = pattern_from_matrices(g, c)
        entries = set()
        for col in range(4):
            for row in pattern.indices[pattern.indptr[col]:pattern.indptr[col + 1]]:
                entries.add((int(row), col))
        assert entries == {(0, 1), (2, 3), (3, 0)}

    def test_pattern_from_matrices_requires_input(self):
        with pytest.raises(ValueError, match="at least one"):
            pattern_from_matrices()


# ----------------------------------------------------------------------
# End-to-end parity: every topology x corner x analysis, sparse vs dense
# ----------------------------------------------------------------------
@requires_sparse
class TestTopologyParity:
    """The engines' contract with the layer: forcing the sparse backend on
    the real MNA hot paths (DC Newton, the stacked AC sweep, transient
    stepping) reproduces the dense measurements to the pinned tolerance
    for every registered topology at every PVT corner."""

    @pytest.mark.parametrize("corner", ["tt", "ss", "ff"])
    @pytest.mark.parametrize("name", sorted(available_topologies()))
    def test_measurement_parity(self, name, corner):
        topology = topology_by_name(name)
        widths = GOOD_WIDTHS[name]
        analyses = ("dc", "ac", "tran")
        with use_backend("dense"):
            reference = topology.measure(widths, corner=corner, analyses=analyses)
        with use_backend("sparse"):
            result = topology.measure(widths, corner=corner, analyses=analyses)

        for node, voltage in reference.dc.node_voltages.items():
            assert result.dc.node_voltages[node] == pytest.approx(
                voltage, rel=METRIC_RTOL, abs=1e-12
            ), node
        np.testing.assert_allclose(
            result.metrics.as_array(),
            reference.metrics.as_array(),
            rtol=METRIC_RTOL,
        )
        np.testing.assert_allclose(
            result.metrics.tran_as_array(),
            reference.metrics.tran_as_array(),
            rtol=METRIC_RTOL,
        )

    def test_default_mode_unchanged_bits(self):
        """Under ``auto`` the paper-scale topologies keep the dense DC
        path, so the layer changes no DC bits in the default flow.  AC
        under ``auto`` is the Schur reduction rather than the forced
        ``dense`` per-frequency LU, so the metrics agree to the AC oracle
        tolerance."""
        topology = topology_by_name("5T-OTA")
        widths = GOOD_WIDTHS["5T-OTA"]
        with use_backend("dense"):
            reference = topology.measure(widths)
        result = topology.measure(widths)  # auto (the default)
        assert reference.dc.node_voltages == result.dc.node_voltages
        np.testing.assert_allclose(
            result.metrics.as_array(), reference.metrics.as_array(), rtol=AC_RTOL
        )


# ----------------------------------------------------------------------
# Mixed-size structure grouping through the bulk DC path
# ----------------------------------------------------------------------
@requires_sparse
class TestMixedSizeBatches:
    def test_solve_dc_many_groups_by_structure(self):
        """One bulk call over circuits of three different MNA sizes (plus
        a structure-sharing duplicate) must solve each against its own
        pattern -- parity with the oracle per circuit."""
        five_t = topology_by_name("5T-OTA")
        fc = topology_by_name("FC-OTA")
        tele = topology_by_name("TELE-OTA")
        wider = dict(GOOD_WIDTHS["5T-OTA"], M3=20e-6)
        plans = [
            (five_t, GOOD_WIDTHS["5T-OTA"]),
            (fc, GOOD_WIDTHS["FC-OTA"]),
            (tele, GOOD_WIDTHS["TELE-OTA"]),
            (five_t, wider),
        ]
        circuits = [topo.build(w) for topo, w in plans]
        guesses = [topo.initial_guess() for topo, _ in plans]

        references = [
            oracle_solve_dc(topo.build(w), initial_guess=topo.initial_guess())
            for topo, w in plans
        ]
        with use_backend("sparse"):
            solutions = solve_dc_many(circuits, initial_guess=guesses)

        sizes = {len(sol.node_voltages) for sol in solutions}
        assert len(sizes) == 3  # three distinct structures went through
        for reference, solution in zip(references, solutions, strict=True):
            for node, voltage in reference.node_voltages.items():
                assert solution.node_voltages[node] == pytest.approx(
                    voltage, rel=METRIC_RTOL, abs=1e-12
                ), node

    def test_auto_mode_bulk_path_bit_identical(self):
        """Same mixed batch under the default auto mode: every circuit is
        below the sparse threshold, so the bulk path stays bit-identical
        to the oracle's dense solves."""
        five_t = topology_by_name("5T-OTA")
        fc = topology_by_name("FC-OTA")
        plans = [(five_t, GOOD_WIDTHS["5T-OTA"]), (fc, GOOD_WIDTHS["FC-OTA"])]
        circuits = [topo.build(w) for topo, w in plans]
        guesses = [topo.initial_guess() for topo, _ in plans]
        references = [
            oracle_solve_dc(topo.build(w), initial_guess=topo.initial_guess())
            for topo, w in plans
        ]
        solutions = solve_dc_many(circuits, initial_guess=guesses)
        for reference, solution in zip(references, solutions, strict=True):
            assert reference.node_voltages == solution.node_voltages
