"""Small-signal AC analysis on the linearized circuit.

After a DC solve, every MOSFET is replaced by its four-element small-signal
model -- exactly the parameter set the paper's LUT stores and its DP-SFG
uses (Sec. II-B, III-B):

* a VCCS ``gm * (vg - vs)`` from drain to source,
* an output conductance ``gds`` between drain and source,
* ``Cgs`` between gate and source, and
* ``Cds`` between drain and source.

The complex MNA system ``(G + jw C) x = b`` is then solved over a
frequency grid.  Independent sources contribute through their ``ac``
magnitudes (supplies and bias sources have ``ac = 0`` and act as
small-signal grounds).

:func:`run_ac_many` is the one kernel.  ``G``, ``C`` and ``b`` of every
candidate in a structure group are stamped together along the
``(candidates, devices)`` axis through the DC kernel's stamp plans
(:class:`~repro.spice.dc._MNASystem`): ``G`` is the Newton Jacobian at
the operating point with ``gmin = 0``, ``C`` the transient engine's
capacitor companion stamps.  Two solvers share those matrices:

* **Schur reduction** (the default ``auto`` linsolve mode, systems below
  its sparse threshold).  One real solve gives ``A = G^-1 C`` and
  ``u = G^-1 b``; one complex Schur form ``A = Z T Z^H`` per candidate
  turns every frequency into the triangular system
  ``(I + jw T) y = Z^H u`` with ``x = Z y`` -- the triangular variant of
  Laub's Hessenberg method (A. J. Laub, "Efficient multivariable
  frequency response computations", IEEE TAC 26(2), 1981).  A candidate
  costs O(n^3 + F n^2) instead of O(F n^3) and no ``(F, n, n)`` stack is
  formed.  Only the capacitor nodes no grounded source pins carry state,
  so ``A`` is taken on those alone (3 to 7 of the OTAs' 11 to 21
  unknowns) and a Woodbury step maps back to every node
  (:func:`_schur_sweep`).
* **Per-frequency LU** of ``G + jw C`` through
  :func:`repro.spice.linsolve.solve_stacked`: under a forced ``dense``
  or ``sparse`` backend (the reference and parity switches), at or above
  the sparse threshold, and for any candidate whose ``G`` is singular
  (a node reached only through capacitors).  Large RC ladders are why
  it stays: there the Schur route is normwise exact but loses the deeply
  attenuated far nodes, and sparse LU is faster.

Either way a candidate's phasors do not depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import schur

from . import linsolve
from .dc import (
    DCSolution,
    _capacitances,
    _MNASystem,
    _scatter_add,
    _system,
    _tran_structure_key,
)
from .netlist import GROUND

__all__ = ["ACResult", "run_ac", "run_ac_many", "default_frequency_grid"]


def default_frequency_grid(
    f_start: float = 1.0, f_stop: float = 1e11, points_per_decade: int = 12
) -> np.ndarray:
    """Logarithmic frequency grid (Hz) covering the OTA metric range."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    n_points = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n_points)


@dataclass
class ACResult:
    """Frequency response of every node voltage.

    ``phasors`` has shape ``(n_freq, n_nodes)`` in the order of
    ``node_names``; ground is implicit (always 0).
    """

    frequencies: np.ndarray
    node_names: list[str]
    phasors: np.ndarray

    def __post_init__(self) -> None:
        # Name -> column map so transfer() is O(1) instead of a linear
        # scan of node_names on every call (metric extraction hits it in a
        # loop over output nodes and bulk paths hit it per candidate).
        self._node_index = {name: i for i, name in enumerate(self.node_names)}

    def transfer(self, node: str) -> np.ndarray:
        """Complex response of ``node`` versus frequency."""
        if node == GROUND:
            return np.zeros_like(self.frequencies, dtype=complex)
        try:
            idx = self._node_index[node]
        except KeyError:
            raise ValueError(f"{node!r} is not a node of this AC result") from None
        return self.phasors[:, idx]

    def magnitude_db(self, node: str) -> np.ndarray:
        """Magnitude response in dB (floors at -400 dB to avoid log(0))."""
        mag = np.abs(self.transfer(node))
        return 20.0 * np.log10(np.maximum(mag, 1e-20))


def run_ac(
    solution: DCSolution,
    frequencies: np.ndarray | None = None,
) -> ACResult:
    """Run a small-signal AC analysis at the given DC operating point.

    A batch of one of :func:`run_ac_many`.

    Parameters
    ----------
    solution:
        Result of :func:`repro.spice.dc.solve_dc`; it carries the linearized
        device parameters.
    frequencies:
        Frequency grid in Hz (defaults to :func:`default_frequency_grid`).
    """
    return run_ac_many([solution], frequencies)[0]


#: Candidates per stacked per-frequency LU; bounds the transient ``Y``
#: stack to a few tens of MB even for large populations and wide
#: frequency grids.
_AC_CHUNK = 64

#: Complex elements allowed in one ``(chunk, freqs, size, size)`` LU
#: stack (~64 MB); large structures shrink the candidate chunk, and a
#: single candidate whose own stack is larger solves its grid in
#: frequency chunks.  Chunking never changes values -- each matrix is
#: factorized independently either way.
_AC_STACK_BUDGET = 4_000_000


def run_ac_many(  # checks: hot-path
    solutions: list,
    frequencies: np.ndarray | None = None,
) -> list:
    """Run the AC analysis of many operating points together.

    ``solutions`` may mix circuit structures; candidates are grouped by
    the structure key of the capacitive analyses, each group is stamped
    in one pass and swept by the Schur reduction or the per-frequency LU
    (see the module docstring for which).  A candidate's phasors are the
    same bits whatever else is in the batch.
    """
    freqs = default_frequency_grid() if frequencies is None else np.asarray(frequencies, dtype=float)
    omegas = 2.0 * np.pi * freqs
    results: list = [None] * len(solutions)
    groups: dict = {}
    for index, solution in enumerate(solutions):
        groups.setdefault(_tran_structure_key(solution.circuit), []).append(index)
    for key, indices in groups.items():
        system = _system(*key)
        members = [solutions[i] for i in indices]
        phasors = _sweep(system, *_assemble(system, members), omegas)
        for row, i in enumerate(indices):
            results[i] = ACResult(
                frequencies=freqs, node_names=system.node_names, phasors=phasors[row].copy()
            )
    return results


def _assemble(
    system: _MNASystem, solutions: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``G``, ``C`` ``(candidates, size, size)`` and ``b`` ``(candidates,
    size)`` of one structure group.

    Both matrices come out of one scatter of the Jacobian plan: the ``G``
    rows feed its device columns ``[gds | gm | gm + gds]`` with the
    operating points' conductances on top of the ``gmin = 0`` base
    Jacobian, the ``C`` rows feed its companion columns with the
    capacitances the transient engine integrates.
    """
    batch, size, k = len(solutions), system.size, system.polarity.size
    small = [
        [solution.op(mosfet.name).small_signal for mosfet in solution.circuit.mosfets]
        for solution in solutions
    ]
    gm = np.array([[s.gm for s in row] for row in small]).reshape(batch, k)
    gds = np.array([[s.gds for s in row] for row in small]).reshape(batch, k)
    values = np.zeros((2 * batch, 3 * k + system.n_caps))
    values[:batch, : 3 * k] = np.concatenate((gds, gm, gm + gds), axis=1)
    values[batch:, 3 * k :] = _capacitances(solutions).reshape(batch, system.n_caps)
    matrices = np.zeros((2 * batch, size * size))
    matrices[:batch] = system.base_jacobian(0.0).ravel()
    _scatter_add(matrices, system.j_plan, values)
    g, c = matrices.reshape(2, batch, size, size)

    # Sources: current sources inject at their nodes, voltage sources set
    # their branch rows; index ``size`` is the discarded ground slot.
    rhs = np.zeros((batch, size + 1))
    isource_ac = np.array([[s.ac for s in sol.circuit.isources] for sol in solutions])
    for j, (pos, neg) in enumerate(zip(*system.isource_nodes.tolist(), strict=True)):
        rhs[:, pos] -= isource_ac[:, j]
        rhs[:, neg] += isource_ac[:, j]
    vsource_ac = [[s.ac for s in sol.circuit.vsources] for sol in solutions]
    rhs[:, system.n_nodes : size] = np.reshape(vsource_ac, (batch, system.n_sources))
    return g, c, rhs[:, :size]


def _sweep(
    system: _MNASystem, g: np.ndarray, c: np.ndarray, rhs: np.ndarray, omegas: np.ndarray
) -> np.ndarray:
    """Node phasors ``(candidates, frequencies, nodes)`` of
    ``(G + jw C) x = b``.

    The Schur reduction where the default backend keeps the system dense;
    the per-frequency LU otherwise and for candidates with a singular
    ``G``.
    """
    n = system.n_nodes
    if not linsolve.auto_dense(system.size):
        return _lu_sweep(g, c, rhs, omegas)[:, :, :n]
    free, pinned, branches, signs = _dynamic_nodes(system)
    # Nodes a grounded voltage source pins carry its ac value at every
    # frequency, so their capacitor columns move to the right-hand side:
    # (G + jw C_free E^T) x = b - jw d with d = C_pinned x_pinned.
    d = (c[:, :, pinned] * (rhs[:, branches] * signs)[:, None, :]).sum(axis=2)
    columns = np.concatenate((c[:, :, free], d[:, :, None], rhs[:, :, None]), axis=2)
    solved, singular = _solve_real(g, columns)
    if not singular.any():
        return _schur_sweep(solved, free, n, omegas)
    out = np.empty((rhs.shape[0], omegas.size, n), dtype=complex)
    out[singular] = _lu_sweep(g[singular], c[singular], rhs[singular], omegas)[:, :, :n]
    healthy = ~singular
    if healthy.any():
        out[healthy] = _schur_sweep(solved[healthy], free, n, omegas)
    return out


@lru_cache(maxsize=256)
def _dynamic_nodes(system: _MNASystem) -> tuple[np.ndarray, ...]:
    """Structural index sets of the Schur reduction: the capacitor nodes
    no grounded voltage source pins (the reduced state), and the pinned
    capacitor nodes with their source's branch row and sign
    (``x_node = sign * b[row]``)."""
    size = system.size
    pins = {}
    for k, (pos, neg) in enumerate(zip(*system.vsource_nodes.tolist(), strict=True)):
        if neg == size and pos != size:
            pins.setdefault(pos, (system.n_nodes + k, 1.0))
        elif pos == size and neg != size:
            pins.setdefault(neg, (system.n_nodes + k, -1.0))
    touched = sorted(set(system.cap_nodes.ravel().tolist()) - {size})
    pinned = [node for node in touched if node in pins]
    return (
        np.array([node for node in touched if node not in pins], dtype=np.intp),
        np.array(pinned, dtype=np.intp),
        np.array([pins[node][0] for node in pinned], dtype=np.intp),
        np.array([pins[node][1] for node in pinned]),
    )


def _solve_real(g: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``G^-1 columns`` per candidate, plus a mask of the candidates whose
    ``G`` is singular (their rows are left as zeros)."""
    singular = np.zeros(g.shape[0], dtype=bool)
    try:
        solved = np.linalg.solve(g, columns)
    except np.linalg.LinAlgError:
        # A one-item solve is the same arithmetic as its slot of the
        # stacked call, so healthy candidates keep their bits.
        solved = np.zeros_like(columns)
        for j in range(g.shape[0]):
            try:
                solved[j] = np.linalg.solve(g[j], columns[j])
            except np.linalg.LinAlgError:
                singular[j] = True
    singular |= ~np.isfinite(solved).all(axis=(1, 2))
    return solved, singular


def _schur_sweep(
    solved: np.ndarray, free: np.ndarray, n_nodes: int, omegas: np.ndarray
) -> np.ndarray:
    """Node phasors from ``solved = G^-1 [C_free | d | b] = [U | v | u]``.

    With ``A = U[free] = Z T Z^H`` (complex Schur form), Woodbury gives
    ``x = u - jw (v + U Z y)`` where ``y`` solves the upper-triangular
    ``(I + jw T) y = Z^H (u - jw v)[free]``.  Per candidate only stacked
    matmuls and elementwise arithmetic run, so its phasors are the same
    bits in any batch.
    """
    m = free.size
    u_cols, v, u = solved[:, :, :m], solved[:, :, m], solved[:, :, m + 1]
    # Finiteness was checked after the real solve; below the sparse
    # threshold LAPACK takes its unblocked paths, which need no more than
    # the minimal workspace (skipping scipy's workspace query).
    t, z = schur(u_cols[:, free, :], output="complex", lwork=max(1, 2 * m), check_finite=False)
    zh = z.conj().transpose(0, 2, 1)
    jw = 1j * omegas
    # State-major ``(m, candidates, frequencies)`` keeps every row of the
    # back-substitution contiguous.
    zu, zv = ((zh @ part[:, free, None])[:, :, 0].T[:, :, None] for part in (u, v))
    y = zu - jw * zv
    reciprocal = 1.0 / (1.0 + jw * np.diagonal(t, axis1=1, axis2=2).T[:, :, None])
    columns = t.transpose(2, 1, 0)[:, :, :, None]  # columns[i, k, c] = T_c[k, i]
    for i in range(m - 1, -1, -1):
        y[i] *= reciprocal[i]
        if i:
            y[:i] -= (jw * y[i]) * columns[i, :i]
    w = (u_cols[:, :n_nodes, :] @ z).transpose(0, 2, 1)
    return u[:, None, :n_nodes] - jw[:, None] * (v[:, None, :n_nodes] + y.transpose(1, 2, 0) @ w)


def _lu_sweep(g: np.ndarray, c: np.ndarray, rhs: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Per-frequency LU of ``Y(jw) = G + jw C`` through the linsolve
    layer, in ``(candidates, frequencies)`` chunks that bound the stack."""
    batch, size = rhs.shape
    out = np.empty((batch, omegas.size, size), dtype=complex)
    chunk_size = max(1, min(_AC_CHUNK, _AC_STACK_BUDGET // max(1, omegas.size * size * size)))
    # Only a lone candidate over budget needs more than one pass.
    freq_chunk = max(1, min(omegas.size, _AC_STACK_BUDGET // (size * size)))
    for start in range(0, batch, chunk_size):
        rows = slice(start, start + chunk_size)
        g_stack, c_stack = g[rows], c[rows]
        # One symbolic pattern per chunk, only where SuperLU reads it: the
        # nonzeros of every candidate's Y(jw) lie inside the union of the
        # chunk's G/C nonzeros at every frequency.
        pattern = (
            linsolve.pattern_from_matrices(g_stack, c_stack)
            if linsolve.uses_sparse(size)
            else None
        )
        b = rhs[rows, None, :].astype(complex)
        for f_start in range(0, omegas.size, freq_chunk):
            cols = slice(f_start, f_start + freq_chunk)
            w = omegas[cols]
            y_stack = g_stack[:, None, :, :] + (1j * w)[None, :, None, None] * c_stack[:, None, :, :]
            out[rows, cols] = linsolve.solve_stacked(
                y_stack, np.broadcast_to(b, y_stack.shape[:3]), pattern=pattern
            )
    return out
