"""Nonlinear transient analysis (step response) on the MNA system.

This is the time-domain leg of the SPICE substrate: the serving stack's
slew-rate / settling-time / overshoot specs are measured on the step
response computed here.  The formulation reuses the DC machinery of
:mod:`repro.spice.dc` wholesale:

* the resistive part of the residual/Jacobian at every time point is the
  *same* EKV MNA assembly and damped Newton loop the DC solver runs
  (:func:`repro.spice.dc._newton_batch`), so device physics and the
  iteration exist in exactly one place;
* capacitive elements -- explicit capacitors plus each MOSFET's
  operating-point ``Cgs``/``Cds`` (the same linearization the AC analysis
  stamps) -- are discretized with backward-Euler or trapezoidal
  companion models and enter that assembly as extra stamps.

The testbench is a *step*: the simulation starts from a converged DC
operating point (capacitor currents are zero -- a consistent initial
condition) and at ``t = 0+`` every independent source jumps by
``step_amplitude`` times its AC magnitude, so the transient excites
exactly the port the AC analysis drives (for the OTA testbenches: a
differential input step of ``step_amplitude`` volts).

:func:`run_tran_many` is the one kernel: solutions whose (stepped)
circuits share one MNA structure -- one topology's population of width
vectors, including the same population rebuilt at several PVT corners --
integrate *together*, with the per-step Newton iterations vectorized over
the candidate axis and one stacked linear solve per iteration.  Each
candidate's floating-point operations are those of a one-circuit
integration, so waveforms do not depend on what else is in the batch;
:func:`run_tran` is a batch of one.  Failures are isolated per
candidate: a design whose Newton diverges at some time step holds a
:class:`~repro.spice.dc.ConvergenceError` in its slot instead of
aborting the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .dc import (
    GMIN,
    ConvergenceError,
    DCSolution,
    _BatchStamps,
    _capacitances,
    _MNASystem,
    _newton_batch,
    _system,
    _tran_structure_key,
    _with_ground,
)
from .netlist import GROUND, Circuit

__all__ = ["TranResult", "run_tran", "run_tran_many", "step_sources"]

#: Supported integration methods: backward-Euler and trapezoidal.
METHODS = ("be", "trap")

#: Newton iteration cap per time step (steps are small, so this is ample).
MAX_TRAN_ITERATIONS = 50

#: Default differential step amplitude (V).  Small enough that the OTA
#: stays near its linearization (settling is well defined), large enough
#: that the output excursion dominates float noise.
DEFAULT_STEP_AMPLITUDE = 1e-3


@dataclass
class TranResult:
    """Step response of every node voltage.

    ``waveforms`` has shape ``(n_times, n_nodes)`` in the order of
    ``node_names``; ground is implicit (always 0).  ``times[0]`` is 0 and
    holds the pre-step DC operating point.
    """

    times: np.ndarray
    node_names: list[str]
    waveforms: np.ndarray
    method: str
    step_amplitude: float
    newton_iterations: int

    def __post_init__(self) -> None:
        self._node_index = {name: i for i, name in enumerate(self.node_names)}

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of ``node`` versus time."""
        if node == GROUND:
            return np.zeros_like(self.times)
        try:
            idx = self._node_index[node]
        except KeyError:
            raise ValueError(f"{node!r} is not a node of this transient result") from None
        return self.waveforms[:, idx]


def step_sources(circuit: Circuit, amplitude: float) -> Circuit:
    """The post-step netlist: every source jumps by ``amplitude * ac``.

    Supplies and bias sources carry ``ac = 0`` and stay put; the stimulus
    sources (the OTA testbenches drive ``ac = +-0.5`` on the differential
    inputs) step by their share of the amplitude.  The copy leaves the
    original circuit untouched.
    """
    stepped = circuit.copy()
    for source in stepped.vsources:
        source.dc = source.dc + amplitude * source.ac
    for source in stepped.isources:
        source.dc = source.dc + amplitude * source.ac
    return stepped


def _step_coef(method: str, dt: float, step: int) -> float:
    """Companion-model conductance factor of one time step.

    The trapezoidal rule takes its *first* step with backward-Euler: the
    source step at ``t = 0+`` makes the capacitor currents jump, so the
    zero-current steady-state history would otherwise seed the trap
    recursion with the pre-step value (the classic trap startup
    artifact).  The history update formula is the same for both
    coefficients, so the BE step also initializes ``hist`` correctly.
    """
    if method == "be" or (method == "trap" and step == 1):
        return 1.0 / dt
    if method == "trap":
        return 2.0 / dt
    raise ValueError(f"unknown integration method {method!r} (known: {', '.join(METHODS)})")


def run_tran(
    solution: DCSolution,
    t_stop: float,
    n_steps: int = 160,
    method: str = "trap",
    step_amplitude: float = DEFAULT_STEP_AMPLITUDE,
    max_newton_iterations: int = MAX_TRAN_ITERATIONS,
) -> TranResult:
    """Integrate the step response of a solved circuit over ``[0, t_stop]``.

    A batch of one through :func:`run_tran_many`.

    Parameters
    ----------
    solution:
        Converged DC operating point (:func:`repro.spice.dc.solve_dc`);
        it is the initial condition and carries the per-device
        linearized capacitances.
    t_stop:
        Simulation end time (s).
    n_steps:
        Number of uniform time steps (``n_steps + 1`` samples including
        ``t = 0``).
    method:
        ``"trap"`` (trapezoidal, second order, the default) or ``"be"``
        (backward-Euler, first order, heavily damped).
    step_amplitude:
        Source step scale: every source jumps by ``step_amplitude * ac``
        at ``t = 0+`` (see :func:`step_sources`).
    max_newton_iterations:
        Newton cap per time step.

    Raises
    ------
    ConvergenceError
        If any time step's Newton iteration fails to converge.
    """
    (outcome,) = run_tran_many(
        [solution], t_stop, n_steps, method, step_amplitude, max_newton_iterations
    )
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


def _grid(method: str, t_stop: float, n_steps: int) -> tuple[float, np.ndarray]:
    """Validate the request and build ``(dt, time grid)``."""
    if method not in METHODS:
        raise ValueError(
            f"unknown integration method {method!r} (known: {', '.join(METHODS)})"
        )
    if t_stop <= 0:
        raise ValueError(f"t_stop must be positive, got {t_stop}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    dt = t_stop / n_steps
    return dt, np.linspace(0.0, t_stop, n_steps + 1)


def run_tran_many(  # checks: hot-path
    solutions: list,
    t_stop: float,
    n_steps: int = 160,
    method: str = "trap",
    step_amplitude: float = DEFAULT_STEP_AMPLITUDE,
    max_newton_iterations: int = MAX_TRAN_ITERATIONS,
) -> list:
    """Integrate the step responses of many operating points together.

    Solutions whose stepped circuits share one MNA structure (one
    topology's candidate population, corner-mixed batches included -- the
    structure key is the corner-agnostic one of
    :func:`repro.spice.dc.solve_dc_many`) run every time step's Newton
    iteration *together*, with vectorized assembly and one stacked linear
    solve per iteration; see :func:`run_tran` for the parameters.

    Returns a list aligned with ``solutions`` whose entries are either
    :class:`TranResult` or :class:`ConvergenceError` (per-candidate
    failure isolation: one diverging design never aborts the batch).
    """
    dt, times = _grid(method, t_stop, n_steps)
    results: list = [None] * len(solutions)
    stepped = [step_sources(solution.circuit, step_amplitude) for solution in solutions]
    groups: dict = {}
    for index, circuit in enumerate(stepped):
        groups.setdefault(_tran_structure_key(circuit), []).append(index)
    for indices in groups.values():
        batch_solutions = [solutions[i] for i in indices]
        batch_stepped = [stepped[i] for i in indices]
        outcomes = _tran_batch(
            batch_solutions,
            batch_stepped,
            times,
            dt,
            method,
            step_amplitude,
            max_newton_iterations,
        )
        for i, outcome in zip(indices, outcomes, strict=True):
            results[i] = outcome
    return results


def _branch_voltages(system: _MNASystem, x: np.ndarray) -> np.ndarray:
    """``v(i1) - v(i2)`` of every companion element, ``(candidates, elements)``."""
    c1, c2 = system.cap_nodes
    xe = _with_ground(x)
    return xe[:, c1] - xe[:, c2]


def _tran_batch(  # checks: hot-path
    solutions: list,
    stepped: list,
    times: np.ndarray,
    dt: float,
    method: str,
    step_amplitude: float,
    max_newton_iterations: int,
) -> list:
    """Integrate one structure-sharing group; see :func:`run_tran_many`."""
    system = _system(*_tran_structure_key(stepped[0]))
    stamps = _BatchStamps(stepped)
    caps = _capacitances(solutions)
    batch = len(solutions)
    n_steps = len(times) - 1
    x = np.stack(
        [
            system.pack(solution.node_voltages, solution.source_currents)
            for solution in solutions
        ]
    )
    waveforms = np.empty((batch, n_steps + 1, system.n_nodes))
    waveforms[:, 0, :] = x[:, : system.n_nodes]
    # Starting from DC steady state, every capacitor current is zero.
    hist = np.zeros((batch, system.n_caps))
    newton_totals = np.zeros(batch, dtype=int)
    alive = np.ones(batch, dtype=bool)
    # Hoisted out of the time-step loop: the stamp subset changes only
    # when a candidate diverges, and the Newton work buffers are shared
    # across every step (the assembly overwrites them).
    active = np.arange(batch)
    active_stamps = stamps
    work = (np.empty((batch, system.size)), np.empty((batch, system.size, system.size)))
    pattern = system.pattern if linsolve.uses_sparse(system.size) else None

    for step in range(1, n_steps + 1):
        if active.size == 0:
            break
        coef = _step_coef(method, dt, step)
        x_prev, hist_prev = x[active], hist[active]
        g = coef * caps[active]
        x_new, iterations, converged = _newton_batch(
            system,
            active_stamps,
            x_prev,
            1.0,
            GMIN,
            max_newton_iterations,
            pattern=pattern,
            companion=(x_prev, hist_prev, g),
            work=work,
        )
        newton_totals[active] += iterations
        survivors = active[converged]
        if method == "trap":
            dv = _branch_voltages(system, x_new) - _branch_voltages(system, x_prev)
            hist[survivors] = (g * dv - hist_prev)[converged]
        x[survivors] = x_new[converged]
        waveforms[survivors, step, :] = x_new[converged][:, : system.n_nodes]
        if survivors.size < active.size:
            alive[active[~converged]] = False
            active = survivors
            if active.size:
                active_stamps = stamps.take(active)

    outcomes: list = []
    for j in range(batch):
        if alive[j]:
            outcomes.append(
                TranResult(
                    times=times,
                    node_names=system.node_names,
                    waveforms=waveforms[j].copy(),
                    method=method,
                    step_amplitude=step_amplitude,
                    newton_iterations=int(newton_totals[j]),
                )
            )
        else:
            outcomes.append(
                ConvergenceError(
                    f"transient Newton failed after {max_newton_iterations} iterations"
                )
            )
    return outcomes
