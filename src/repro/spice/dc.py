"""Nonlinear DC operating-point solver (Newton-Raphson on MNA).

This is the substrate that stands in for the Spectre/SPICE operating-point
analyses used throughout the paper (dataset generation, LUT
characterization, verification).  It builds the standard modified nodal
analysis (MNA) system

* one KCL residual per non-ground node,
* one branch-current unknown plus one voltage constraint per independent
  voltage source,

and solves ``f(x) = 0`` with damped Newton iterations.  Convergence
robustness comes from three stacked strategies, tried in order:

1. plain damped Newton from the initial guess,
2. gmin stepping (a large conductance to ground is ramped down decade by
   decade), and
3. source stepping (supplies ramped from 0 to full value).

These are the same continuation tricks production SPICE engines use.

There is one kernel: :func:`solve_dc_many` groups circuits by MNA
structure and solves each group together, with the residual/Jacobian
assembly vectorized over a ``(candidates, devices)`` axis and each
continuation strategy run as one batched pass over the candidates every
earlier strategy left unconverged.  :func:`solve_dc` is a batch of one
that makes no structure pattern, so its linear solves stay dense under
every :mod:`~repro.spice.linsolve` mode; only the bulk path uses the
sparse backend.
The transient engine (:mod:`repro.spice.tran`) reuses the same assembly
and Newton loop with capacitor companion stamps added, and the AC sweep
(:mod:`repro.spice.ac`) stamps its small-signal ``G`` and ``C`` through
the same plans.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..devices import EKVModel, OperatingPoint, SmallSignal
from ..devices.ekv import _dc_currents
from . import linsolve
from .netlist import GROUND, Circuit

__all__ = ["DCSolution", "ConvergenceError", "solve_dc", "solve_dc_many"]

#: Shunt conductance to ground added at every node for conditioning (S).
GMIN = 1e-12

#: Maximum allowed Newton voltage update per iteration (V).
MAX_STEP = 0.5


class ConvergenceError(RuntimeError):
    """Raised when all DC continuation strategies fail to converge."""


@dataclass
class DCSolution:
    """Result of a DC operating-point solve."""

    circuit: Circuit
    node_voltages: dict[str, float]
    source_currents: dict[str, float]
    iterations: int
    strategy: str
    operating_points: dict[str, OperatingPoint] = field(default_factory=dict)

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` (ground is always 0 V)."""
        if node == GROUND:
            return 0.0
        return self.node_voltages[node]

    def op(self, mosfet_name: str) -> OperatingPoint:
        """Operating point of the named MOSFET."""
        return self.operating_points[mosfet_name]

    def kcl_residual(self) -> float:
        """Max KCL residual (A) over all nodes -- a correctness self-check."""
        system = _system(_structure_key(self.circuit))
        x = system.pack(self.node_voltages, self.source_currents)[None, :]
        residual, _ = _residual_and_jacobian_batch(
            system, _BatchStamps([self.circuit]), x, 1.0, GMIN
        )
        n = system.n_nodes
        return float(np.max(np.abs(residual[0, :n]))) if n else 0.0


def _scatter_layers(ops: list[tuple[int, int, float]]):
    """Order an assembly's additive contributions into scatter layers.

    ``ops[i] = (target, column, sign)`` is the i-th stamp operation of the
    element-by-element assembly: ``target += sign * values[:, column]``.
    Floating-point sums depend on order, so the contributions are grouped
    into layers whose targets are distinct: layer ``k`` holds every
    target's ``k``-th contribution.  Applying the layers in turn with one
    fancy-indexed ``+=`` each reproduces every entry's sequential sum bit
    for bit.  Returns ``(targets, columns, signs, bounds)`` in layer
    order, or ``None`` when there is nothing to stamp.
    """
    if not ops:
        return None
    seen: Counter = Counter()
    layer = []
    for target, _, _ in ops:
        layer.append(seen[target])
        seen[target] += 1
    order = np.argsort(layer, kind="stable")
    edges = np.concatenate(([0], np.cumsum(np.bincount(layer)))).tolist()
    targets, columns, signs = (np.asarray(part)[order] for part in zip(*ops, strict=True))
    return targets, columns, signs, list(zip(edges[:-1], edges[1:], strict=True))


class _MNASystem:
    """Unknown-vector layout and stamp plan of one MNA structure.

    A pure function of the structure key (see :func:`_structure_key`), so
    one instance serves every circuit, batch and call with that structure
    (:func:`_system` caches them).  Unknowns are the node voltages
    followed by one branch current per voltage source; index ``size``
    addresses a zero column appended for ground, so every element's
    terminal voltages are one gather.  ``capacitors`` (node pairs) turns
    on the transient companion stamps: the capacitors, then each MOSFET's
    gate-source and drain-source capacitance.
    """

    def __init__(self, key: tuple, capacitors: tuple | None = None):
        nodes, resistors, isources, vsources, mosfets = key
        self.node_names = list(nodes)
        n = self.n_nodes = len(nodes)
        self.vsource_names = [name for name, _, _ in vsources]
        self.n_sources = len(vsources)
        size = self.size = n + self.n_sources
        self._index = {name: i for i, name in enumerate(nodes)}

        def at(node: str) -> int:
            return size if node == GROUND else self._index[node]

        drains = [at(d) for _, d, _, _, _, _ in mosfets]
        gates = [at(g) for _, _, g, _, _, _ in mosfets]
        sources = [at(s) for _, _, _, s, _, _ in mosfets]
        self.terminals = np.asarray(drains + gates + sources, dtype=np.intp)
        self.polarity = np.array([float(m[4]) for m in mosfets])
        self.lengths = np.array([m[5] for m in mosfets])
        resistor_pairs = [(at(a), at(b)) for a, b, _ in resistors]
        self.resistor_nodes = np.asarray(resistor_pairs, dtype=np.intp).reshape(-1, 2).T
        self.conductance = np.array([1.0 / r for _, _, r in resistors])
        self.isource_dc = np.array([dc for _, _, dc in isources])
        isource_pairs = [(at(pos), at(neg)) for pos, neg, _ in isources]
        self.isource_nodes = np.asarray(isource_pairs, dtype=np.intp).reshape(-1, 2).T
        vsource_pairs = [(at(pos), at(neg)) for _, pos, neg in vsources]
        self.vsource_nodes = np.asarray(vsource_pairs, dtype=np.intp).reshape(-1, 2).T
        caps: list[tuple[int, int]] = []
        if capacitors is not None:
            caps = [(at(a), at(b)) for a, b in capacitors]
            for d, g, s in zip(drains, gates, sources, strict=True):
                caps += [(g, s), (d, s)]
        self.cap_nodes = np.asarray(caps, dtype=np.intp).reshape(-1, 2).T
        self.n_caps = len(caps)

        # Residual: additive node contributions in assembly order, reading
        # value columns [resistor currents | isources | MOSFET currents |
        # branch currents | capacitor currents].
        f_ops: list[tuple[int, int, float]] = []
        column = 0
        for pairs in (resistor_pairs, isource_pairs, list(zip(drains, sources, strict=True)),
                      vsource_pairs, caps):
            for plus, minus in pairs:
                f_ops += [(plus, column, 1.0), (minus, column, -1.0)]
                column += 1
        # Jacobian: value columns [gds | gm | gm + gds | companion g].
        k = len(mosfets)
        j_ops: list[tuple[int, int, int, float]] = []
        for i, (d, g, s) in enumerate(zip(drains, gates, sources, strict=True)):
            j_ops += [
                (d, d, i, 1.0), (d, g, k + i, 1.0), (d, s, 2 * k + i, -1.0),
                (s, s, 2 * k + i, 1.0), (s, d, i, -1.0), (s, g, k + i, -1.0),
            ]
        for e, (c1, c2) in enumerate(caps):
            col = 3 * k + e
            j_ops += [(c1, c1, col, 1.0), (c1, c2, col, -1.0), (c2, c2, col, 1.0), (c2, c1, col, -1.0)]
        # Stamps on ground rows or columns vanish.
        j_ops = [op for op in j_ops if op[0] != size and op[1] != size]
        self.f_plan = _scatter_layers([op for op in f_ops if op[0] != size])
        self.j_plan = _scatter_layers([(r * size + c, col, sign) for r, c, col, sign in j_ops])
        self._j_coords = [(r, c) for r, c, _, _ in j_ops]
        self._base: dict[float, np.ndarray] = {}
        self._pattern: linsolve.StructurePattern | None = None

    # ------------------------------------------------------------------
    def node_index(self, name: str) -> int | None:
        """Index of a node in the unknown vector; ``None`` for ground."""
        if name == GROUND:
            return None
        return self._index[name]

    def pack(self, voltages: Mapping[str, float], currents: Mapping[str, float]) -> np.ndarray:
        x = np.zeros(self.size)
        for name, idx in self._index.items():
            x[idx] = voltages.get(name, 0.0)
        for k, name in enumerate(self.vsource_names):
            x[self.n_nodes + k] = currents.get(name, 0.0)
        return x

    def unpack(self, x: np.ndarray) -> tuple[dict[str, float], dict[str, float]]:
        values = x.tolist()
        voltages = dict(zip(self.node_names, values[: self.n_nodes], strict=True))
        currents = dict(zip(self.vsource_names, values[self.n_nodes :], strict=True))
        return voltages, currents

    # ------------------------------------------------------------------
    def _linear_stamps(self, gmin: float) -> list[tuple[int, int, float]]:
        """``(row, col, value)`` of the Jacobian stamps that do not depend
        on the iterate, in assembly order: gmin shunts, resistors,
        voltage-source incidences (ground rows and columns dropped)."""
        n, size = self.n_nodes, self.size
        entries = [(i, i, gmin) for i in range(n)]
        r1s, r2s = self.resistor_nodes.tolist()
        for i1, i2, g in zip(r1s, r2s, self.conductance.tolist(), strict=True):
            entries += [(i1, i1, g), (i1, i2, -g), (i2, i2, g), (i2, i1, -g)]
        for k, (ip, in_) in enumerate(zip(*self.vsource_nodes.tolist(), strict=True)):
            row = n + k
            entries += [(ip, row, 1.0), (in_, row, -1.0), (row, ip, 1.0), (row, in_, -1.0)]
        return [(r, c, v) for r, c, v in entries if r != size and c != size]

    def base_jacobian(self, gmin: float) -> np.ndarray:
        """Jacobian part that does not depend on the iterate (cached)."""
        base = self._base.get(gmin)
        if base is None:
            base = np.zeros((self.size, self.size))
            for r, c, value in self._linear_stamps(gmin):
                base[r, c] += value
            self._base[gmin] = base
        return base

    @property
    def pattern(self) -> linsolve.StructurePattern:
        """Symbolic solve pattern: every Jacobian entry any stamp touches."""
        if self._pattern is None:
            coords = [(r, c) for r, c, _ in self._linear_stamps(0.0)] + self._j_coords
            rows, cols = zip(*coords) if coords else ((), ())
            self._pattern = linsolve.factorize_structure(rows, cols, self.size)
        return self._pattern


@lru_cache(maxsize=256)
def _system(key: tuple, capacitors: tuple | None = None) -> _MNASystem:
    """The :class:`_MNASystem` of a structure, shared by every call."""
    return _MNASystem(key, capacitors)


def _tran_structure_key(circuit: Circuit):
    """Grouping key of the capacitive analyses (AC and transient): DC
    structure plus capacitor connectivity.

    Capacitors are open circuits at DC and deliberately absent from
    :func:`_structure_key`, but the companion stamps align capacitor
    *slots* across a batch, so circuits differing in capacitor count or
    connectivity must never share a group.  Capacitance values stay out
    of the key: they are per-candidate data (:func:`_capacitances`),
    exactly like widths.  ``_system(*key)`` is the structure's
    :class:`_MNASystem` with the companion stamps turned on.
    """
    return (
        _structure_key(circuit),
        tuple((cap.node1, cap.node2) for cap in circuit.capacitors),
    )


def _capacitances(solutions: list) -> np.ndarray:
    """Companion-element capacitances, ``(candidates, elements)``, in the
    element order of :class:`_MNASystem`: explicit capacitors keep their
    netlist value, then each MOSFET contributes its operating-point
    ``Cgs`` and ``Cds``."""
    rows = []
    for solution in solutions:
        row = [cap.capacitance for cap in solution.circuit.capacitors]
        for mosfet in solution.circuit.mosfets:
            small = solution.op(mosfet.name).small_signal
            row += [small.cgs, small.cds]
        rows.append(row)
    return np.array(rows)


def solve_dc(
    circuit: Circuit,
    initial_guess: Mapping[str, float] | None = None,
    max_iterations: int = 150,
) -> DCSolution:
    """Solve the DC operating point of ``circuit`` (a batch of one).

    The solve carries no structure pattern, so its Newton steps use the
    dense linear solve under every linsolve backend mode.

    Parameters
    ----------
    circuit:
        The netlist to solve.
    initial_guess:
        Optional mapping from node name to starting voltage; unknown nodes
        fall back to the built-in heuristic.
    max_iterations:
        Newton iteration cap per continuation stage.

    Raises
    ------
    ConvergenceError
        If plain Newton, gmin stepping and source stepping all fail.
    """
    (outcome,) = _solve_batch([circuit], [initial_guess], max_iterations, sparse=False)
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


def solve_dc_many(  # checks: hot-path
    circuits: list,
    initial_guess: Mapping[str, float] | Sequence[Mapping[str, float] | None] | None = None,
    max_iterations: int = 150,
) -> list:
    """Solve the DC operating point of many structurally similar circuits.

    Circuits that share one MNA structure (same nodes and element
    connectivity -- exactly what one topology's ``build`` produces over a
    population of width vectors, including the same population rebuilt at
    several PVT corners) are solved *together*: the residual/Jacobian
    assembly is vectorized over candidates and devices, and every Newton
    iteration makes one stacked linear solve.  Candidates of one group may
    differ in MOSFET widths, MOSFET technology parameters (corner-skewed
    ``vt0``/``kp``/``ut``) and voltage-source DC values (corner-scaled
    supplies).  Each candidate's floating-point operations are exactly
    those of a one-circuit solve, so results do not depend on what else is
    in the batch.

    ``initial_guess`` is either one mapping shared by every candidate or a
    sequence of per-candidate mappings aligned with ``circuits`` (the
    corner path uses this: each corner pins the supply node at its own
    scaled rail).

    Failures are isolated per candidate: a design whose plain Newton stage
    diverges moves on to gmin stepping, then to source stepping, together
    with the other candidates that need the same strategy; if all fail its
    slot holds the :class:`ConvergenceError` instead of a
    :class:`DCSolution` -- one bad design never aborts the batch.

    Returns a list aligned with ``circuits`` whose entries are either
    :class:`DCSolution` or :class:`ConvergenceError`.
    """
    guesses = _per_candidate_guesses(initial_guess, len(circuits))
    results: list = [None] * len(circuits)
    groups: dict = {}
    for index, circuit in enumerate(circuits):
        groups.setdefault(_structure_key(circuit), []).append(index)
    for indices in groups.values():
        batch = [circuits[i] for i in indices]
        batch_guesses = [guesses[i] for i in indices]
        outcomes = _solve_batch(batch, batch_guesses, max_iterations, sparse=True)
        for i, outcome in zip(indices, outcomes, strict=True):
            results[i] = outcome
    return results


def _per_candidate_guesses(initial_guess, count: int) -> list:
    """Normalize the ``initial_guess`` argument to one entry per circuit."""
    if initial_guess is None or isinstance(initial_guess, Mapping):
        return [initial_guess] * count
    guesses = list(initial_guess)
    if len(guesses) != count:
        raise ValueError(
            f"initial_guess sequence has {len(guesses)} entries for {count} circuits"
        )
    return guesses


def _structure_key(circuit: Circuit):
    """Hashable MNA-structure signature.

    Everything the vectorized assembly cannot express per candidate goes
    into the key; widths, MOSFET technology parameters and voltage-source
    DC values are deliberately *excluded* so one population evaluated at
    several PVT corners still forms a single batch (the corner axis stacks
    into the candidate axis).  Device polarity stays in the key: the
    assembly treats it as a per-device constant.
    """
    return (
        tuple(circuit.nodes()),
        tuple((r.node1, r.node2, r.resistance) for r in circuit.resistors),
        tuple((s.pos, s.neg, s.dc) for s in circuit.isources),
        tuple((s.name, s.pos, s.neg) for s in circuit.vsources),
        tuple(
            (m.name, m.drain, m.gate, m.source, m.tech.polarity, m.length)
            for m in circuit.mosfets
        ),
    )


#: TechParams fields the device-axis evaluation reads.
_TECH_FIELDS = ("vt0", "n_slope", "kp", "ut", "lambda_l", "cox", "cov", "cj", "pb", "mj")


class _DeviceTech:
    """Technology parameters along the ``(candidates, devices)`` axis.

    Duck-types :class:`~repro.devices.TechParams` for :class:`EKVModel`:
    every field is an array of shape ``(1, devices)`` when all candidates
    share each device's parameters, or ``(candidates, devices)`` when the
    batch mixes PVT corners.  ``ut_sq`` holds each device's ``ut**2``
    computed exactly as :meth:`TechParams.spec_current` does.
    """

    __slots__ = (*_TECH_FIELDS, "ut_sq")

    def __init__(self, rows: list):
        for name in _TECH_FIELDS:
            setattr(self, name, np.array([[getattr(t, name) for t in row] for row in rows]))
        self.ut_sq = np.array([[t.ut**2 for t in row] for row in rows])

    def take(self, indices) -> _DeviceTech:
        subset = _DeviceTech.__new__(_DeviceTech)
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(subset, name, value if value.shape[0] == 1 else value[indices])
        return subset

    def spec_current(self, width, length):
        # TechParams.spec_current arithmetic; widths were validated when
        # the MOSFETs were built.
        return 2.0 * self.n_slope * self.kp * (width / length) * self.ut_sq


class _BatchStamps:
    """Per-candidate element data of one structure-sharing batch.

    MOSFET widths, technology parameters and the derived ``Ispec`` and
    channel-length-modulation ``lambda`` live on a ``(candidates,
    devices)`` axis (computed once per stamp set, not per iteration);
    voltage-source DC values on ``(candidates, sources)``.  Shared values
    keep a leading axis of one and broadcast.
    """

    __slots__ = ("widths", "tech", "ispec", "lam", "vsource_dc")

    def __init__(self, circuits: list):
        techs = [tuple(m.tech for m in circuit.mosfets) for circuit in circuits]
        uniform = all(row == techs[0] for row in techs[1:])
        self.tech = _DeviceTech(techs[:1] if uniform else techs)
        self.widths = np.array([[m.width for m in circuit.mosfets] for circuit in circuits])
        lengths = np.array([m.length for m in circuits[0].mosfets])
        self.ispec = self.tech.spec_current(self.widths, lengths)
        self.lam = self.tech.lambda_l / lengths
        dcs = [[s.dc for s in circuit.vsources] for circuit in circuits]
        self.vsource_dc = np.array(dcs[:1] if all(row == dcs[0] for row in dcs[1:]) else dcs)

    def take(self, indices) -> _BatchStamps:
        subset = _BatchStamps.__new__(_BatchStamps)
        subset.tech = self.tech.take(indices)
        for name in ("widths", "ispec", "lam", "vsource_dc"):
            value = getattr(self, name)
            setattr(subset, name, value if value.shape[0] == 1 else value[indices])
        return subset


def _with_ground(x: np.ndarray) -> np.ndarray:
    """``(P, size)`` unknowns plus the zero ground column at index ``size``."""
    return np.concatenate((x, np.zeros((x.shape[0], 1))), axis=1)


def _device_bias(system: _MNASystem, xe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polarity-normalized ``(vgs, vds)`` of every device, ``(P, devices)``."""
    k = system.polarity.size
    v = xe[:, system.terminals]
    vd, vg, vs = v[:, :k], v[:, k : 2 * k], v[:, 2 * k :]
    return system.polarity * (vg - vs), system.polarity * (vd - vs)


def _scatter_add(flat: np.ndarray, plan, values: np.ndarray) -> None:
    """Apply one layered contribution plan (see :func:`_scatter_layers`)."""
    if plan is None:
        return
    targets, columns, signs, bounds = plan
    contributions = values[:, columns] * signs
    for start, stop in bounds:
        flat[:, targets[start:stop]] += contributions[:, start:stop]


def _residual_and_jacobian_batch(  # checks: hot-path
    system: _MNASystem,
    stamps: _BatchStamps,
    x: np.ndarray,
    source_scale: float,
    gmin: float,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    companion: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``f(x)`` and ``J(x)`` for every candidate of a batch.

    ``x`` has shape ``(P, size)`` -- one unknown vector per candidate.
    ``source_scale`` multiplies every independent source value (the
    source-stepping continuation) and ``gmin`` is the shunt conductance
    to ground at each node.  All MOSFETs are evaluated in one call along
    the device axis; stamps accumulate in element order (gmin, resistors,
    current sources, MOSFETs, voltage sources, capacitor companions), so
    every entry's sum is the same whatever the batch.

    ``companion`` adds the transient capacitor companions as
    ``(x_prev, hist, g)``: element ``e`` carries the current
    ``g[e] * (dv - dv_prev) - hist[e]`` and conductance ``g[e]``.

    ``out`` optionally supplies ``(f, jac)`` buffers of shape
    ``(P, size)`` / ``(P, size, size)``; they are overwritten.
    """
    n, size = system.n_nodes, system.size
    batch = x.shape[0]
    if out is None:
        f = np.empty((batch, size))
        jac = np.empty((batch, size, size))
    else:
        f, jac = out
    xe = _with_ground(x)
    vgs, vds = _device_bias(system, xe)
    tech = stamps.tech
    ids, gm, gds = _dc_currents(vgs, vds, tech.vt0, tech.n_slope, tech.ut, stamps.ispec, stamps.lam)

    r1, r2 = system.resistor_nodes
    columns = [
        system.conductance * (xe[:, r1] - xe[:, r2]),
        np.broadcast_to(system.isource_dc * source_scale, (batch, system.isource_dc.size)),
        system.polarity * ids,
        x[:, n:],
    ]
    jac_columns = [gds, gm, gm + gds]
    if companion is not None:
        x_prev, hist, g = companion
        c1, c2 = system.cap_nodes
        xpe = _with_ground(x_prev)
        columns.append(g * ((xe[:, c1] - xe[:, c2]) - (xpe[:, c1] - xpe[:, c2])) - hist)
        jac_columns.append(g)

    f[:] = 0.0
    f[:, :n] += gmin * x[:, :n]
    _scatter_add(f, system.f_plan, np.concatenate(columns, axis=1))
    vp, vn = system.vsource_nodes
    f[:, n:] = (xe[:, vp] - xe[:, vn]) - stamps.vsource_dc * source_scale

    jac[:] = system.base_jacobian(gmin)
    _scatter_add(jac.reshape(batch, size * size), system.j_plan, np.concatenate(jac_columns, axis=1))
    return f, jac


def _solve_newton_steps(  # checks: hot-path
    jac: np.ndarray,
    f: np.ndarray,
    pattern: linsolve.StructurePattern | None = None,
) -> np.ndarray:
    """Stacked ``J dx = -f`` through the pluggable linsolve layer.

    The dense backend is one stacked ``np.linalg.solve`` with a per-item
    lstsq fallback on singular systems; structures at or above the sparse
    threshold ride SuperLU via the group's precomputed symbolic
    ``pattern``.
    """
    return linsolve.solve_stacked(jac, -f, pattern=pattern)


def _newton_batch(  # checks: hot-path
    system: _MNASystem,
    stamps: _BatchStamps,
    x0s: np.ndarray,
    source_scale: float,
    gmin: float,
    max_iterations: int = 150,
    abstol: float = 1e-10,
    reltol: float = 1e-9,
    pattern: linsolve.StructurePattern | None = None,
    companion: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton over one candidate group; per-candidate convergence.

    The one Newton loop of the DC and transient engines.  ``x0s`` has
    shape ``(batch, size)`` -- one starting point per candidate (for a
    transient step, the previous time point, with ``companion`` carrying
    the capacitor stamps).  Candidates freeze the moment their own
    convergence criterion fires, so each trajectory is exactly the
    one-candidate iteration.  Returns ``(solutions, iterations,
    converged)``; unconverged rows of ``solutions`` hold their start.

    ``pattern`` is the structure's symbolic solve pattern when the
    linsolve layer should consider the sparse backend, else ``None``
    (always dense).

    ``work`` optionally carries preallocated ``(f, jac)`` buffers with
    leading dimension >= ``batch`` (the transient driver shares one pair
    across every time step).
    """
    n = system.n_nodes
    batch = x0s.shape[0]
    solutions = np.array(x0s, copy=True)
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    x = np.array(x0s, copy=True)  # the active candidates' iterates
    active_stamps, active_companion = stamps, companion
    if work is None:
        work = (np.empty((batch, system.size)), np.empty((batch, system.size, system.size)))
    f_buf, jac_buf = work

    for iteration in range(1, max_iterations + 1):
        m = active.size
        f, jac = _residual_and_jacobian_batch(
            system, active_stamps, x, source_scale, gmin,
            out=(f_buf[:m], jac_buf[:m]), companion=active_companion,
        )
        dx = _solve_newton_steps(jac, f, pattern)
        # Voltage-step damping: scale each candidate's update so no node
        # moves more than MAX_STEP volts in one iteration.
        if n:
            v_step = np.abs(dx[:, :n]).max(axis=1)
            over = v_step > MAX_STEP
            if over.any():
                dx[over] *= (MAX_STEP / v_step[over])[:, None]
        x += dx
        node_residual = np.abs(f[:, :n]).max(axis=1, initial=0.0)
        done = (node_residual < abstol) & (np.abs(dx).max(axis=1, initial=0.0) < reltol)
        if done.any():
            newly = active[done]
            solutions[newly] = x[done]
            iterations[newly] = iteration
            converged[newly] = True
            keep = ~done
            active, x = active[keep], x[keep]
            if active.size == 0:
                break
            # Re-gather stamps only when the active set shrinks.
            active_stamps = stamps.take(active)
            if companion is not None:
                active_companion = tuple(part[active] for part in companion)
    return solutions, iterations, converged


#: The continuation strategies in the order they are tried: name, the
#: ``(source_scale, gmin)`` stages, and whether to start from the initial
#: guess (else from all zeros).  Each stage starts where the last ended.
_STRATEGIES = (
    ("newton", ((1.0, GMIN),), True),
    ("gmin-stepping", tuple((1.0, 10.0 ** (-exponent)) for exponent in range(3, 13)), True),
    ("source-stepping", tuple((float(scale), GMIN) for scale in np.linspace(0.1, 1.0, 10)), False),
)


def _continuation(
    system: _MNASystem,
    stamps: _BatchStamps,
    x0s: np.ndarray,
    max_iterations: int,
    pattern: linsolve.StructurePattern | None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Run the stacked strategies over a batch; each strategy is one
    batched pass over the candidates every earlier strategy failed.
    ``pattern`` is handed to every Newton pass (see :func:`_newton_batch`).

    Returns ``(solutions, iterations, strategy names)``; a candidate no
    strategy converged has strategy ``None``.  Iterations count every
    stage of the strategy that succeeded.
    """
    batch = x0s.shape[0]
    solutions = np.zeros_like(x0s)
    iterations = np.zeros(batch, dtype=int)
    strategies: list = [None] * batch
    pending = np.arange(batch)
    for name, stages, from_guess in _STRATEGIES:
        x = x0s[pending] if from_guess else np.zeros((pending.size, system.size))
        total = np.zeros(pending.size, dtype=int)
        alive = np.arange(pending.size)
        for source_scale, gmin in stages:
            subset = stamps if alive.size == batch else stamps.take(pending[alive])
            x[alive], stage_iterations, converged = _newton_batch(
                system, subset, x[alive], source_scale, gmin, max_iterations, pattern=pattern
            )
            total[alive] += stage_iterations
            alive = alive[converged]
            if alive.size == 0:
                break
        done = pending[alive]
        solutions[done] = x[alive]
        iterations[done] = total[alive]
        for j in done.tolist():
            strategies[j] = name
        pending = np.delete(pending, alive)
        if pending.size == 0:
            break
    return solutions, iterations, strategies


def _solve_batch(circuits: list, guesses: list, max_iterations: int, sparse: bool) -> list:
    """Solve one structure-sharing group; see :func:`solve_dc_many`.
    ``sparse=False`` keeps every linear solve dense (:func:`solve_dc`)."""
    system = _system(_structure_key(circuits[0]))
    stamps = _BatchStamps(circuits)
    x0s = _initial_points(system, stamps, guesses)
    pattern = system.pattern if sparse and linsolve.uses_sparse(system.size) else None
    xs, iterations, strategies = _continuation(system, stamps, x0s, max_iterations, pattern)
    solved = [j for j, strategy in enumerate(strategies) if strategy is not None]
    solutions = iter(
        _finalize(
            system,
            stamps.take(solved),
            [circuits[j] for j in solved],
            xs[solved],
            [(int(iterations[j]), strategies[j]) for j in solved],
        )
    )
    return [
        next(solutions) if strategy is not None
        else ConvergenceError(f"DC solve failed for circuit {circuit.name!r} with all strategies")
        for circuit, strategy in zip(circuits, strategies, strict=True)
    ]


def _initial_points(
    system: _MNASystem, stamps: _BatchStamps, guesses: list
) -> np.ndarray:
    """Per-candidate starting points.

    Nodes start at half the largest source magnitude, nodes pinned to
    ground by a voltage source start at its value, then each candidate's
    guess overrides its named nodes.  The heuristic reads every
    candidate's own source values, so corner-scaled supplies start at
    their own rails.
    """
    batch = len(guesses)
    n = system.n_nodes
    dc = np.broadcast_to(stamps.vsource_dc, (batch, system.n_sources))
    supply = np.max(np.abs(dc), axis=1) if system.n_sources else np.ones(batch)
    x0s = np.zeros((batch, system.size))
    x0s[:, :n] = (supply / 2.0)[:, None]
    for k, (ip, in_) in enumerate(zip(*system.vsource_nodes.tolist())):
        if ip != system.size and in_ == system.size:
            x0s[:, ip] = dc[:, k]
        elif ip == system.size and in_ != system.size:
            x0s[:, in_] = -dc[:, k]
    shared = all(guess is guesses[0] for guess in guesses)
    for j, guess in enumerate(guesses[:1] if shared else guesses):
        rows = slice(None) if shared else j
        for name, value in (guess or {}).items():
            idx = system.node_index(name)
            if idx is not None:
                x0s[rows, idx] = value
    return x0s


def _finalize(
    system: _MNASystem,
    stamps: _BatchStamps,
    circuits: list,
    xs: np.ndarray,
    convergence: list,
) -> list[DCSolution]:
    """Solutions plus every MOSFET's operating point, evaluated along the
    device axis in one pass."""
    if not circuits:
        return []
    vgs, vds = _device_bias(system, _with_ground(xs))
    tech = stamps.tech
    model = EKVModel(tech)
    ids, gm, gds = _dc_currents(vgs, vds, tech.vt0, tech.n_slope, tech.ut, stamps.ispec, stamps.lam)
    cgs = model.gate_source_capacitance(vgs, vds, stamps.widths, system.lengths)
    # The Cds grading ``bias**mj`` of a one-device evaluation is a scalar
    # pow, which can round differently from numpy's vectorized pow in the
    # last place; grade device by device so every operating point is the
    # one MOSFET.operating_point reports.
    bias = np.maximum(1.0 + vds / tech.pb, 0.5)
    mj = np.broadcast_to(tech.mj, bias.shape)
    grading = np.reshape(list(map(pow, bias.ravel().tolist(), mj.ravel().tolist())), bias.shape)
    cds = tech.cj * stamps.widths / grading
    columns = {
        name: value.tolist()
        for name, value in (("id", ids), ("gm", gm), ("gds", gds), ("cgs", cgs), ("cds", cds))
    }
    ic = model.inversion_coefficient(vgs, vds).tolist()
    saturated = model.is_saturated(vgs, vds).tolist()
    vgs, vds = vgs.tolist(), vds.tolist()
    solutions = []
    for j, (circuit, (iterations, strategy)) in enumerate(zip(circuits, convergence, strict=True)):
        voltages, currents = system.unpack(xs[j])
        ops = {
            mosfet.name: OperatingPoint(
                vgs=vgs[j][k],
                vds=vds[j][k],
                small_signal=SmallSignal(
                    id=columns["id"][j][k],
                    gm=columns["gm"][j][k],
                    gds=columns["gds"][j][k],
                    cgs=columns["cgs"][j][k],
                    cds=columns["cds"][j][k],
                ),
                inversion_coefficient=ic[j][k],
                saturated=saturated[j][k],
            )
            for k, mosfet in enumerate(circuit.mosfets)
        }
        solutions.append(
            DCSolution(
                circuit=circuit,
                node_voltages=voltages,
                source_currents=currents,
                iterations=iterations,
                strategy=strategy,
                operating_points=ops,
            )
        )
    return solutions
