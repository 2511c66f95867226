"""Scalar reference implementations the production kernels are pinned to.

The library evaluates every analysis through one batched kernel: DC
Newton with gmin/source-stepping continuation (``solve_dc_many``), the
small-signal AC sweep (``run_ac_many``), the step-response integrator
(``run_tran_many``) and the topology measurement (``measure_many``); the
single-candidate entry points are batch-of-one calls into them.  This
module keeps the straightforward one-circuit formulation of each -- a
per-element MNA assembly, a plain damped Newton loop, the three stacked
continuation strategies, a per-frequency AC solve, per-step transient
Newton -- so the parity suites can compare the kernels against an
independent implementation.  It also holds the full-prefix greedy decoder
the KV-cached transformer decode is checked against.

DC and transient linear solves go through
:func:`repro.spice.linsolve.solve_stacked` with the same structural
pattern the kernels use, so those oracles follow the selected backend
(dense reference or sparse) exactly like the kernels do and match them
bit for bit.  The AC oracle is a per-frequency ``np.linalg.solve``; the
kernel's default Schur reduction is pinned to it by a stated tolerance.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.devices import resolve_corners
from repro.spice import (
    ACResult,
    ConvergenceError,
    DCSolution,
    TranResult,
    default_frequency_grid,
    linsolve,
    run_ac_many,
    step_sources,
)
from repro.spice.netlist import GROUND
from repro.solvers import EvalBackend
from repro.topologies import CornerSweep, MeasureOutcome, resolve_analyses
from repro.transformer.functional import causal_mask, padding_mask

#: Shunt conductance and damping limit of the production DC solver.
GMIN = 1e-12
MAX_STEP = 0.5


# ----------------------------------------------------------------------
# MNA assembly
# ----------------------------------------------------------------------
class MNASystem:
    """Residual and Jacobian of one circuit's nonlinear MNA equations."""

    def __init__(self, circuit):
        self.circuit = circuit
        self.node_names = circuit.nodes()
        self.n_nodes = len(self.node_names)
        self.size = self.n_nodes + len(circuit.vsources)
        self._index = {name: i for i, name in enumerate(self.node_names)}

    def node_index(self, name: str) -> int | None:
        return None if name == GROUND else self._index[name]

    def pack(self, voltages, currents) -> np.ndarray:
        x = np.zeros(self.size)
        for name, idx in self._index.items():
            x[idx] = voltages.get(name, 0.0)
        for k, source in enumerate(self.circuit.vsources):
            x[self.n_nodes + k] = currents.get(source.name, 0.0)
        return x

    def pattern(self, cap_pairs: Sequence[tuple[int | None, int | None]] = ()):
        """Structural solve pattern: every entry any stamp can touch."""
        n = self.n_nodes
        rows, cols = list(range(n)), list(range(n))

        def entry(r, c):
            if r is not None and c is not None:
                rows.append(r)
                cols.append(c)

        pairs = [
            (self.node_index(r.node1), self.node_index(r.node2))
            for r in self.circuit.resistors
        ]
        for i1, i2 in [*pairs, *cap_pairs]:
            for r in (i1, i2):
                for c in (i1, i2):
                    entry(r, c)
        for mosfet in self.circuit.mosfets:
            terminals = [self.node_index(t) for t in (mosfet.drain, mosfet.gate, mosfet.source)]
            for r in (terminals[0], terminals[2]):
                for c in terminals:
                    entry(r, c)
        for k, src in enumerate(self.circuit.vsources):
            for node in (self.node_index(src.pos), self.node_index(src.neg)):
                entry(node, n + k)
                entry(n + k, node)
        return linsolve.factorize_structure(rows, cols, self.size)

    def residual_and_jacobian(self, x, source_scale, gmin):
        circuit = self.circuit
        n = self.n_nodes
        f = np.zeros(self.size)
        jac = np.zeros((self.size, self.size))

        def volt(idx):
            return 0.0 if idx is None else float(x[idx])

        for i in range(n):
            f[i] += gmin * x[i]
            jac[i, i] += gmin

        for res in circuit.resistors:
            i1, i2 = self.node_index(res.node1), self.node_index(res.node2)
            g = res.conductance
            current = g * (volt(i1) - volt(i2))
            if i1 is not None:
                f[i1] += current
                jac[i1, i1] += g
                if i2 is not None:
                    jac[i1, i2] -= g
            if i2 is not None:
                f[i2] -= current
                jac[i2, i2] += g
                if i1 is not None:
                    jac[i2, i1] -= g

        for src in circuit.isources:
            ip, in_ = self.node_index(src.pos), self.node_index(src.neg)
            value = src.dc * source_scale
            if ip is not None:
                f[ip] += value
            if in_ is not None:
                f[in_] -= value

        for mosfet in circuit.mosfets:
            id_, ig, is_ = (
                self.node_index(mosfet.drain),
                self.node_index(mosfet.gate),
                self.node_index(mosfet.source),
            )
            vd, vg, vs = volt(id_), volt(ig), volt(is_)
            ids = mosfet.ids(vd, vg, vs)
            gm, gds = mosfet.conductances(vd, vg, vs)
            if id_ is not None:
                f[id_] += ids
                jac[id_, id_] += gds
                if ig is not None:
                    jac[id_, ig] += gm
                if is_ is not None:
                    jac[id_, is_] -= gm + gds
            if is_ is not None:
                f[is_] -= ids
                jac[is_, is_] += gm + gds
                if id_ is not None:
                    jac[is_, id_] -= gds
                if ig is not None:
                    jac[is_, ig] -= gm

        for k, src in enumerate(circuit.vsources):
            row = n + k
            ip, in_ = self.node_index(src.pos), self.node_index(src.neg)
            branch_current = float(x[row])
            if ip is not None:
                f[ip] += branch_current
                jac[ip, row] += 1.0
            if in_ is not None:
                f[in_] -= branch_current
                jac[in_, row] -= 1.0
            f[row] = volt(ip) - volt(in_) - src.dc * source_scale
            if ip is not None:
                jac[row, ip] += 1.0
            if in_ is not None:
                jac[row, in_] -= 1.0

        return f, jac


def _damped_newton(system, residual, x0, max_iterations, pattern, abstol=1e-10, reltol=1e-9):
    """Damped Newton on ``residual(x) -> (f, jac)``; ``(x, iterations)``."""
    n = system.n_nodes
    x = x0.copy()
    for iteration in range(1, max_iterations + 1):
        f, jac = residual(x)
        dx = linsolve.solve_stacked(jac, -f, pattern=pattern)
        v_step = np.max(np.abs(dx[:n])) if n else 0.0
        if v_step > MAX_STEP:
            dx *= MAX_STEP / v_step
        x += dx
        node_residual = float(np.max(np.abs(f[:n]))) if n else 0.0
        if node_residual < abstol and float(np.max(np.abs(dx), initial=0.0)) < reltol:
            return x, iteration
    raise ConvergenceError(f"Newton failed after {max_iterations} iterations")


# ----------------------------------------------------------------------
# DC operating point
# ----------------------------------------------------------------------
def newton(system, x0, source_scale, gmin, max_iterations=150, pattern=None):
    """One continuation stage: Newton at a fixed source scale and gmin."""
    return _damped_newton(
        system,
        lambda x: system.residual_and_jacobian(x, source_scale, gmin),
        x0,
        max_iterations,
        pattern,
    )


def initial_point(system, initial_guess) -> np.ndarray:
    """Mid-rail start, source-pinned nodes, then the caller's hints."""
    circuit = system.circuit
    supply = max((abs(src.dc) for src in circuit.vsources), default=1.0)
    x = np.zeros(system.size)
    x[: system.n_nodes] = supply / 2.0
    for src in circuit.vsources:
        ip, in_ = system.node_index(src.pos), system.node_index(src.neg)
        if ip is not None and in_ is None:
            x[ip] = src.dc
        elif ip is None and in_ is not None:
            x[in_] = -src.dc
    for name, value in (initial_guess or {}).items():
        idx = system.node_index(name)
        if idx is not None:
            x[idx] = value
    return x


def finalize(system, x, iterations, strategy) -> DCSolution:
    """Per-device operating points through the scalar MOSFET API."""
    voltages = {name: float(x[i]) for i, name in enumerate(system.node_names)}
    currents = {
        src.name: float(x[system.n_nodes + k])
        for k, src in enumerate(system.circuit.vsources)
    }

    def volt(node):
        return 0.0 if node == GROUND else voltages[node]

    ops = {
        m.name: m.operating_point(volt(m.drain), volt(m.gate), volt(m.source))
        for m in system.circuit.mosfets
    }
    return DCSolution(
        circuit=system.circuit,
        node_voltages=voltages,
        source_currents=currents,
        iterations=iterations,
        strategy=strategy,
        operating_points=ops,
    )


def solve_dc(circuit, initial_guess=None, max_iterations=150) -> DCSolution:
    """Plain Newton, then gmin stepping, then source stepping."""
    system = MNASystem(circuit)
    pattern = system.pattern()
    x0 = initial_point(system, initial_guess)
    try:
        x, iterations = newton(system, x0, 1.0, GMIN, max_iterations, pattern)
        return finalize(system, x, iterations, "newton")
    except ConvergenceError:
        pass

    x, total = x0.copy(), 0
    try:
        for exponent in range(3, 13):
            x, iterations = newton(system, x, 1.0, 10.0 ** (-exponent), max_iterations, pattern)
            total += iterations
        return finalize(system, x, total, "gmin-stepping")
    except ConvergenceError:
        pass

    x, total = np.zeros(system.size), 0
    try:
        for scale in np.linspace(0.1, 1.0, 10):
            x, iterations = newton(system, x, float(scale), GMIN, max_iterations, pattern)
            total += iterations
        return finalize(system, x, total, "source-stepping")
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"DC solve failed for circuit {circuit.name!r} with all strategies"
        ) from exc


# ----------------------------------------------------------------------
# Small-signal AC
# ----------------------------------------------------------------------
#: Pinned agreement of the kernel's default AC sweep (Schur reduction) with
#: :func:`run_ac`: max-norm relative on a node's phasors over the grid, and
#: relative on gain/f3dB/UGF.  Measured <= 6e-12 over the five topologies
#: at every corner and at widths x e^+-0.7.
AC_RTOL = 1e-8


def ac_matrices(solution: DCSolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``G``, ``C`` and ``b`` of the linearized circuit, stamped element by
    element from the operating points."""
    circuit = solution.circuit
    system = MNASystem(circuit)
    n, size = system.n_nodes, system.size
    g_matrix = np.zeros((size, size))
    c_matrix = np.zeros((size, size))
    rhs = np.zeros(size, dtype=complex)

    def admittance(matrix, i1, i2, value):
        if i1 is not None:
            matrix[i1, i1] += value
            if i2 is not None:
                matrix[i1, i2] -= value
        if i2 is not None:
            matrix[i2, i2] += value
            if i1 is not None:
                matrix[i2, i1] -= value

    def vccs(matrix, out_pos, out_neg, ctrl_pos, ctrl_neg, gm):
        # Current gm * (v_ctrl_pos - v_ctrl_neg) flows out_pos -> out_neg.
        for out, sign_out in ((out_pos, 1.0), (out_neg, -1.0)):
            for ctrl, sign_ctrl in ((ctrl_pos, 1.0), (ctrl_neg, -1.0)):
                if out is not None and ctrl is not None:
                    matrix[out, ctrl] += sign_out * sign_ctrl * gm

    node = system.node_index
    for res in circuit.resistors:
        admittance(g_matrix, node(res.node1), node(res.node2), res.conductance)
    for cap in circuit.capacitors:
        admittance(c_matrix, node(cap.node1), node(cap.node2), cap.capacitance)
    for mosfet in circuit.mosfets:
        small = solution.op(mosfet.name).small_signal
        drain, gate, source = node(mosfet.drain), node(mosfet.gate), node(mosfet.source)
        admittance(g_matrix, drain, source, small.gds)
        admittance(c_matrix, drain, source, small.cds)
        admittance(c_matrix, gate, source, small.cgs)
        vccs(g_matrix, drain, source, gate, source, small.gm)
    for src in circuit.isources:
        ip, in_ = node(src.pos), node(src.neg)
        if ip is not None:
            rhs[ip] -= src.ac
        if in_ is not None:
            rhs[in_] += src.ac
    for k, src in enumerate(circuit.vsources):
        row = n + k
        for terminal, sign in ((node(src.pos), 1.0), (node(src.neg), -1.0)):
            if terminal is not None:
                g_matrix[terminal, row] += sign
                g_matrix[row, terminal] += sign
        rhs[row] = src.ac
    return g_matrix, c_matrix, rhs


def run_ac(solution: DCSolution, frequencies=None) -> ACResult:
    """One dense ``np.linalg.solve`` of ``G + jw C`` per frequency."""
    freqs = default_frequency_grid() if frequencies is None else np.asarray(frequencies, dtype=float)
    g_matrix, c_matrix, rhs = ac_matrices(solution)
    node_names = solution.circuit.nodes()
    phasors = np.array(
        [np.linalg.solve(g_matrix + 2j * np.pi * f * c_matrix, rhs) for f in freqs]
    ).reshape(freqs.size, -1)
    return ACResult(
        frequencies=freqs, node_names=node_names, phasors=phasors[:, : len(node_names)]
    )


# ----------------------------------------------------------------------
# Transient step response
# ----------------------------------------------------------------------
def run_tran(
    solution: DCSolution,
    t_stop: float,
    n_steps: int = 160,
    method: str = "trap",
    step_amplitude: float = 1e-3,
    max_newton_iterations: int = 50,
) -> TranResult:
    """Per-step damped Newton over DC stamps plus capacitor companions."""
    dt = t_stop / n_steps
    times = np.linspace(0.0, t_stop, n_steps + 1)
    system = MNASystem(step_sources(solution.circuit, step_amplitude))
    caps = [
        (system.node_index(c.node1), system.node_index(c.node2), c.capacitance)
        for c in solution.circuit.capacitors
    ]
    for mosfet in solution.circuit.mosfets:
        small = solution.op(mosfet.name).small_signal
        gate, drain, source = (
            system.node_index(mosfet.gate),
            system.node_index(mosfet.drain),
            system.node_index(mosfet.source),
        )
        caps += [(gate, source, small.cgs), (drain, source, small.cds)]
    pattern = system.pattern([(i1, i2) for i1, i2, _ in caps])

    def dv(x, i1, i2):
        return (0.0 if i1 is None else x[i1]) - (0.0 if i2 is None else x[i2])

    def residual(x, x_prev, hist, coef):
        f, jac = system.residual_and_jacobian(x, 1.0, GMIN)
        for e, (i1, i2, c) in enumerate(caps):
            g = coef * c
            current = g * (dv(x, i1, i2) - dv(x_prev, i1, i2)) - hist[e]
            if i1 is not None:
                f[i1] += current
                jac[i1, i1] += g
                if i2 is not None:
                    jac[i1, i2] -= g
            if i2 is not None:
                f[i2] -= current
                jac[i2, i2] += g
                if i1 is not None:
                    jac[i2, i1] -= g
        return f, jac

    x = system.pack(solution.node_voltages, solution.source_currents)
    waveforms = np.empty((n_steps + 1, system.n_nodes))
    waveforms[0] = x[: system.n_nodes]
    hist = np.zeros(len(caps))
    total = 0
    for step in range(1, n_steps + 1):
        # Trapezoidal integration starts with one backward-Euler step.
        coef = 1.0 / dt if method == "be" or step == 1 else 2.0 / dt
        x_new, iterations = _damped_newton(
            system,
            lambda z, x=x, coef=coef: residual(z, x, hist, coef),
            x,
            max_newton_iterations,
            pattern,
        )
        total += iterations
        if method == "trap":
            for e, (i1, i2, c) in enumerate(caps):
                hist[e] = coef * c * (dv(x_new, i1, i2) - dv(x, i1, i2)) - hist[e]
        x = x_new
        waveforms[step] = x[: system.n_nodes]
    return TranResult(
        times=times,
        node_names=system.node_names,
        waveforms=waveforms,
        method=method,
        step_amplitude=step_amplitude,
        newton_iterations=total,
    )


# ----------------------------------------------------------------------
# Topology measurement and the sequential evaluation backend
# ----------------------------------------------------------------------
def measure(topology, widths, vcm=None, frequencies=None, corner=None, analyses=None):
    """One candidate's DC + AC (+ transient) measurement, sequentially."""
    circuit = topology.build_circuit(widths, vcm=vcm, corner=corner)
    dc = solve_dc(circuit, initial_guess=topology.initial_guess_for(corner))
    # The kernel's AC (a batch of one), so whole measurements stay
    # bit-comparable with measure_many; run_ac above is the AC oracle.
    (ac,) = run_ac_many([dc], frequencies=frequencies)
    tran = None
    if "tran" in resolve_analyses(analyses):
        tran = run_tran(
            dc,
            t_stop=topology.tran_t_stop,
            n_steps=topology.tran_steps,
            method=topology.tran_method,
            step_amplitude=topology.tran_step_v,
        )
    return topology._package_measurement(circuit, dc, ac, tran=tran)


def _outcome(topology, widths, corner, analyses) -> MeasureOutcome:
    outcome = MeasureOutcome(widths=dict(widths))
    try:
        outcome.result = measure(topology, widths, corner=corner, analyses=analyses)
    except (ConvergenceError, KeyError, ValueError) as error:
        outcome.error = str(error)
    return outcome


class OracleBackend(EvalBackend):
    """Sequential reference backend: one oracle measurement per candidate
    (per candidate-corner pair on the corner axis)."""

    def measure_many(
        self,
        topology,
        widths_list: Sequence[Mapping[str, float]],
        corners=None,
        analyses=None,
    ) -> list:
        if corners is None:
            return [_outcome(topology, w, None, analyses) for w in widths_list]
        resolved = resolve_corners(corners)
        if not resolved:
            raise ValueError("corners must be non-empty (use corners=None for nominal)")
        return [
            CornerSweep(
                widths=dict(widths),
                corners=resolved,
                outcomes=tuple(_outcome(topology, widths, c, analyses) for c in resolved),
            )
            for widths in widths_list
        ]


# ----------------------------------------------------------------------
# Transformer decoding
# ----------------------------------------------------------------------
def greedy_decode_naive(model, src_ids, src_pad, bos_id, eos_id, max_len=None):
    """Greedy decoding that re-runs the decoder over the full prefix each
    step -- the reference for the KV-cached ``Transformer.greedy_decode``."""
    if max_len is None:
        max_len = model.config.max_len
    if max_len < 2:
        raise ValueError(f"max_len must be at least 2, got {max_len}")
    limit = min(max_len, model.config.max_len)
    batch = src_ids.shape[0]
    memory = model.encode(src_ids, src_pad, training=False)
    cross_mask = padding_mask(src_pad)

    generated = np.full((batch, 1), bos_id, dtype=np.int64)
    finished = np.zeros(batch, dtype=bool)
    for _ in range(limit - 1):
        t = generated.shape[1]
        y = model.tgt_embed.forward(generated) * model._scale + model.positional[:t]
        self_mask = causal_mask(t)
        for block in model.decoder_blocks:
            y = block.forward(y, memory, self_mask, cross_mask, training=False)
        logits = model.out_proj.forward(y[:, -1:, :])
        next_ids = np.argmax(logits[:, 0, :], axis=-1)
        next_ids = np.where(finished, eos_id, next_ids)
        generated = np.concatenate([generated, next_ids[:, None]], axis=1)
        finished |= next_ids == eos_id
        if finished.all():
            break
    return model._strip_generated(generated, eos_id)
