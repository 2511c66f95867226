"""Pluggable linear-solve layer for the stacked MNA kernels.

DC Newton, transient time stepping and the per-frequency AC ``Y(jw)``
sweep bottom out in the same operation: solve a stack of square MNA
systems that share one sparsity *structure* while only the matrix
*values* differ — across candidates, Newton iterations, time steps and
the frequency grid.  This module owns that operation behind two entry
points so those engines never touch a LAPACK/SuperLU call directly:

* :func:`factorize_structure` turns the structural ``(row, col)`` stamp
  coordinates of one structure-key group into a :class:`StructurePattern`
  — the symbolic CSR/CSC skeleton (sorted indices, column pointers, and
  a flat gather map from the dense stamp buffers) computed **once** per
  group and reused for every solve in it;
* :func:`solve_stacked` solves ``A x = b`` over arbitrary leading stack
  dimensions, choosing a backend:

  - **dense** — exactly today's arithmetic: one stacked
    ``np.linalg.solve`` with the per-item ``lstsq`` fallback on singular
    batches.  This is the bit-identity reference; routing a hot path
    through the layer with the dense backend changes *no* bits.
  - **sparse** — per-item SuperLU on a CSC matrix whose symbolic pattern
    comes from the :class:`StructurePattern`; only the ``O(nnz)`` value
    gather and the numeric factorization run per matrix.  Dense LU is
    ``O(size^3)`` per item while MNA matrices hold a handful of entries
    per row, so past a few dozen unknowns SuperLU wins by integer
    factors (pinned by the node-count scaling bench).

The default ``auto`` mode picks sparse only when a pattern is supplied
*and* the system has at least :data:`SPARSE_MIN_SIZE` unknowns: below
that, LAPACK on a tiny dense matrix beats SuperLU's setup cost, so the
paper's 5T/CM/2S-scale topologies keep their existing dense path (and
its bit-exact outputs) untouched.  Below that threshold the ``auto`` AC
sweep does not come here at all (:func:`auto_dense`): it runs its own
Schur reduction (:mod:`repro.spice.ac`), one real solve and one Schur
form per candidate instead of one complex LU per frequency.  Forcing
``dense`` or ``sparse`` keeps the per-frequency LU for AC too, so
``use_backend("dense")`` is the AC reference.

Backend selection is process-global and test-controllable through
:func:`use_backend`; the sparse backend degrades to dense when SciPy is
absent (the layer adds no hard dependency).

Singular systems fall back per item to ``np.linalg.lstsq`` in *both*
backends — SuperLU raises on an exactly singular factor, and the sparse
path reuses the dense backend's per-item recovery so the two backends
agree on fallback semantics (pinned by the parity suite).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - exercised implicitly on scipy-less installs
    from scipy.sparse import csc_matrix as _csc_matrix
    from scipy.sparse.linalg import splu as _splu

    HAVE_SPARSE = True
except ImportError:  # pragma: no cover
    _csc_matrix = None
    _splu = None
    HAVE_SPARSE = False

__all__ = [
    "HAVE_SPARSE",
    "SPARSE_MIN_SIZE",
    "StructurePattern",
    "auto_dense",
    "backend_mode",
    "factorize_structure",
    "pattern_from_matrices",
    "solve_stacked",
    "use_backend",
    "uses_sparse",
]

#: ``auto`` switches to the sparse backend at this many MNA unknowns.
#: Chosen from the node-count scaling bench: below ~64 unknowns LAPACK's
#: dense factorization of the whole stack beats per-item SuperLU setup;
#: above it the O(size^3) dense cost takes over.  Every paper-scale
#: topology (5T/CM/2S/FC/TELE, 11-23 unknowns) stays dense under auto.
SPARSE_MIN_SIZE = 64

_MODES = ("auto", "dense", "sparse")


class StructurePattern:
    """Symbolic sparsity pattern of one MNA structure.

    Holds the deduplicated, CSC-ordered coordinates of every Jacobian
    entry the assembly can touch for the structure (a superset of any
    single iterate's numeric nonzeros — entries may hold explicit zeros,
    which SuperLU accepts).  Building it costs one sort per structure
    group; every subsequent solve only gathers values through ``flat``.
    """

    __slots__ = ("size", "nnz", "indices", "indptr", "flat")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same shape")
        if rows.size and (
            rows.min() < 0 or cols.min() < 0 or rows.max() >= size or cols.max() >= size
        ):
            raise ValueError(f"coordinates out of range for size {size}")
        # Deduplicate (stamps touch diagonals repeatedly) and sort into
        # CSC order: by column, rows ascending within each column.
        flat_cm = np.unique(cols * size + rows)
        self.size = int(size)
        self.nnz = int(flat_cm.size)
        self.indices = (flat_cm % size).astype(np.int32)  # row of each entry
        counts = np.bincount(flat_cm // size, minlength=size)
        self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        #: Row-major flat index of each CSC entry into a dense (size, size)
        #: matrix: ``dense.ravel()[flat]`` is the CSC data array.
        self.flat = (flat_cm % size) * size + flat_cm // size


def factorize_structure(rows, cols, size: int) -> StructurePattern:
    """Build the reusable symbolic pattern of one structure-key group.

    ``rows``/``cols`` are the structural stamp coordinates (duplicates
    welcome — assembly touches diagonals once per element); the returned
    pattern is shared by every matrix of the group across Newton
    iterations, time steps, and the whole AC frequency grid.
    """
    return StructurePattern(np.asarray(rows), np.asarray(cols), size)


def pattern_from_matrices(*stacks: np.ndarray) -> StructurePattern:
    """Pattern from the union of nonzeros over already-stacked matrices.

    Used by the AC per-frequency LU when SuperLU will read the pattern:
    the chunk's ``G`` and ``C`` matrices are in hand and every
    ``Y(jw) = G + jw C`` nonzero lies inside ``nonzero(G) | nonzero(C)``
    for *every* frequency — so the union mask is a valid structural
    superset for the whole grid.
    """
    if not stacks:
        raise ValueError("need at least one matrix stack")
    size = stacks[0].shape[-1]
    mask = np.zeros((size, size), dtype=bool)
    for stack in stacks:
        flat = stack.reshape(-1, size, size)
        mask |= (flat != 0).any(axis=0)
    rows, cols = np.nonzero(mask)
    return StructurePattern(rows, cols, size)


@dataclass
class _Config:
    mode: str = "auto"
    sparse_min_size: int = SPARSE_MIN_SIZE


_CONFIG = _Config()


def backend_mode() -> str:
    """Current backend mode: ``auto`` (default), ``dense`` or ``sparse``."""
    return _CONFIG.mode


@contextmanager
def use_backend(mode: str | None = None, sparse_min_size: int | None = None):
    """Temporarily override backend selection (benches and parity tests).

    ``mode="sparse"`` forces the sparse backend for every solve that has
    a pattern regardless of size (how the parity suite exercises sparse
    arithmetic on the small paper topologies); ``mode="dense"`` pins the
    bit-identity reference.  Solves without a pattern are always dense.
    """
    if mode is not None and mode not in _MODES:
        raise ValueError(f"unknown linsolve mode {mode!r} (known: {', '.join(_MODES)})")
    previous = (_CONFIG.mode, _CONFIG.sparse_min_size)
    if mode is not None:
        _CONFIG.mode = mode
    if sparse_min_size is not None:
        _CONFIG.sparse_min_size = int(sparse_min_size)
    try:
        yield
    finally:
        _CONFIG.mode, _CONFIG.sparse_min_size = previous


def uses_sparse(size: int) -> bool:
    """True when a solve of ``size`` unknowns given a pattern runs on
    SuperLU under the current backend selection (callers skip building
    a pattern otherwise)."""
    if not HAVE_SPARSE or _CONFIG.mode == "dense":
        return False
    return _CONFIG.mode == "sparse" or size >= _CONFIG.sparse_min_size


def auto_dense(size: int) -> bool:
    """True when the default ``auto`` mode is selected and a system of
    ``size`` unknowns is below its sparse threshold -- where the AC sweep
    replaces the per-frequency LU by its Schur reduction."""
    return _CONFIG.mode == "auto" and size < _CONFIG.sparse_min_size


def solve_stacked(
    jac: np.ndarray,
    rhs: np.ndarray,
    pattern: StructurePattern | None = None,
) -> np.ndarray:
    """Solve ``jac @ x = rhs`` over arbitrary leading stack dimensions.

    ``jac`` has shape ``(..., size, size)`` and ``rhs`` the matching
    ``(..., size)``; real and complex systems are both supported.  The
    dense backend reproduces the historical hot-path arithmetic bit for
    bit (one stacked ``np.linalg.solve``, per-item ``solve``-then-
    ``lstsq`` recovery on a singular batch); the sparse backend gathers
    each item's values through ``pattern`` and factorizes with SuperLU,
    falling back to the same per-item dense recovery on exactly singular
    factors.
    """
    size = jac.shape[-1]
    if pattern is not None and uses_sparse(size):
        return _solve_sparse(jac, rhs, pattern)
    return _solve_dense(jac, rhs)


def _solve_dense(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        size = jac.shape[-1]
        flat_jac = jac.reshape(-1, size, size)
        flat_rhs = rhs.reshape(-1, size)
        out = np.empty_like(flat_rhs)
        for k in range(flat_jac.shape[0]):
            out[k] = _solve_item_dense(flat_jac[k], flat_rhs[k])
        return out.reshape(rhs.shape)


def _solve_item_dense(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One item's solve, recovering a singular system with lstsq."""
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jac, rhs, rcond=None)[0]


def _solve_sparse(
    jac: np.ndarray, rhs: np.ndarray, pattern: StructurePattern
) -> np.ndarray:
    size = jac.shape[-1]
    if pattern.size != size:
        raise ValueError(
            f"pattern is for size {pattern.size}, got a size-{size} system"
        )
    flat_jac = np.ascontiguousarray(jac).reshape(-1, size * size)
    flat_rhs = rhs.reshape(-1, size)
    dtype = np.result_type(jac.dtype, rhs.dtype)
    out = np.empty((flat_rhs.shape[0], size), dtype=dtype)
    # Symbolic work (dedup/sort/column pointers) was paid once in the
    # pattern; per item only the value gather and numeric factorization
    # remain.  The per-item Python loop is the intended shape here: each
    # iteration is one SuperLU factorization, not a dense LAPACK call.
    for k in range(flat_jac.shape[0]):
        values = flat_jac[k, pattern.flat].astype(dtype, copy=False)
        matrix = _csc_matrix(
            (values, pattern.indices, pattern.indptr), shape=(size, size)
        )
        try:
            out[k] = _splu(matrix).solve(flat_rhs[k].astype(dtype, copy=False))
        except RuntimeError:
            # SuperLU raises on an exactly singular factor; recover with
            # the same per-item dense path the dense backend uses.
            out[k] = _solve_item_dense(flat_jac[k].reshape(size, size), flat_rhs[k])
    return out.reshape(rhs.shape[:-1] + (size,)).astype(dtype, copy=False)
