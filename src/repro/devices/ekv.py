"""EKV-style long-channel MOSFET compact model.

This is the device substrate that replaces the foundry SPICE models used in
the paper.  It provides the five quantities the paper's precomputed lookup
table stores per unit width::

    [Id  gm  gds  Cds  Cgs] = f(Vgs, Vds)

The model is the classic EKV long-channel formulation (Enz-Krummenacher-
Vittoz) with a first-order channel-length-modulation term:

* normalized forward/reverse currents ``i_f = F((Vp - Vs)/Ut)`` and
  ``i_r = F((Vp - Vd)/Ut)`` with the interpolation function
  ``F(v) = ln^2(1 + e^(v/2))``, which is smooth and accurate from weak to
  strong inversion;
* pinch-off voltage ``Vp = (Vgs - Vt0) / n``;
* drain current ``Id = Ispec (i_f - i_r) clm(Vds)`` with
  ``Ispec = 2 n kp (W/L) Ut^2`` and the channel-length-modulation factor
  ``clm(Vds) = 1 + lambda * Ut * softplus(Vds/Ut)``.  The softplus form
  equals the familiar ``1 + lambda Vds`` for ``Vds >> Ut`` but stays
  positive and smooth for the negative-``Vds`` excursions Newton iterations
  take, which matters because short-channel 65 nm devices need a large
  ``lambda`` (~1/V) to reproduce the paper's low intrinsic gains.

Because ``Ispec`` is proportional to ``W`` and the capacitance terms are
built from per-width constants, every output scales linearly in width --
the property that lets the paper characterize a single reference width
(700 nm) and ratio against it (gm/Id methodology).

All functions are vectorized over numpy arrays.  Voltages are
polarity-normalized: pass ``Vgs, Vds >= 0`` for normal operation of both
NMOS and PMOS; the circuit-level wrapper in :mod:`repro.devices.mosfet`
performs the polarity mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import TechParams

__all__ = ["EKVModel", "SmallSignal", "interp_f", "interp_f_prime"]

ArrayLike = float | np.ndarray


def interp_f(v: ArrayLike) -> np.ndarray:
    """EKV interpolation function ``F(v) = ln^2(1 + exp(v/2))``.

    Smoothly interpolates between weak inversion (``F ~ e^v``) and strong
    inversion (``F ~ (v/2)^2``).  Implemented with ``logaddexp`` for
    numerical stability at large ``|v|``.
    """
    half = np.asarray(v, dtype=float) / 2.0
    log_term = np.logaddexp(0.0, half)
    return log_term * log_term


def interp_f_prime(v: ArrayLike) -> np.ndarray:
    """Derivative ``dF/dv = sqrt(F(v)) * sigmoid(v/2)`` of :func:`interp_f`."""
    half = np.asarray(v, dtype=float) / 2.0
    log_term = np.logaddexp(0.0, half)
    # sigmoid(half) computed stably through exp of the negative branch.
    sigmoid = np.exp(half - np.logaddexp(0.0, half))
    return log_term * sigmoid


@dataclass(frozen=True)
class SmallSignal:
    """Operating-point small-signal parameters of one device.

    All values are in SI units and refer to the device's own orientation
    (polarity-normalized); currents and conductances are non-negative in
    normal operation.
    """

    id: float
    gm: float
    gds: float
    cgs: float
    cds: float

    def as_array(self) -> np.ndarray:
        """Return ``[Id, gm, gds, Cds, Cgs]`` in the paper's LUT ordering."""
        return np.array([self.id, self.gm, self.gds, self.cds, self.cgs])


def _dc_currents(vgs, vds, vt0, n_slope, ut, ispec, lam):
    """``(Id, gm, gds)`` of the EKV core with ``Ispec`` and ``lambda`` given.

    The one implementation of the model's DC physics: normalized
    forward/reverse currents ``i_f``/``i_r`` and their derivatives share
    one ``logaddexp`` per term, and the channel-length-modulation factor
    ``clm = 1 + lambda Ut softplus(Vds/Ut)`` with its ``d/dVds`` shares
    one softplus.  Every argument broadcasts, so the same call evaluates
    one bias point, a LUT grid, or a ``(candidates, devices)`` stamp
    array whose technology parameters vary along the device axis.
    """
    vds = np.asarray(vds, dtype=float)
    vp = (np.asarray(vgs, dtype=float) - vt0) / n_slope
    half_f = vp / ut / 2.0
    half_r = (vp - vds) / ut / 2.0
    log_f = np.logaddexp(0.0, half_f)
    log_r = np.logaddexp(0.0, half_r)
    dir_ = log_r * np.exp(half_r - log_r)
    v = vds / ut
    softplus = np.logaddexp(0.0, v)
    clm = 1.0 + lam * ut * softplus
    channel = ispec * (log_f * log_f - log_r * log_r)
    ids = channel * clm
    gm = ispec * (log_f * np.exp(half_f - log_f) - dir_) * clm / (n_slope * ut)
    gds = ispec * dir_ * clm / ut + channel * (lam * np.exp(v - softplus))
    return ids, gm, gds


class EKVModel:
    """Evaluator for the EKV-style model over a :class:`TechParams` set."""

    #: Ordering of the vector-valued LUT outputs, matching Eq. (3).
    OUTPUT_NAMES = ("id", "gm", "gds", "cds", "cgs")

    def __init__(self, tech: TechParams):
        self.tech = tech

    # ------------------------------------------------------------------
    # Core current model
    # ------------------------------------------------------------------
    def _normalized_currents(
        self, vgs: ArrayLike, vds: ArrayLike
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward and reverse normalized currents ``(i_f, i_r)``."""
        tech = self.tech
        vp = (np.asarray(vgs, dtype=float) - tech.vt0) / tech.n_slope
        i_f = interp_f(vp / tech.ut)
        i_r = interp_f((vp - np.asarray(vds, dtype=float)) / tech.ut)
        return i_f, i_r

    def ids_gm_gds(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain current ``Id`` (A), ``gm = dId/dVgs`` and ``gds = dId/dVds`` (S).

        ``Id`` is positive for ``vds > 0`` in normal operation; the EKV
        formulation is source/drain symmetric, so negative ``vds`` yields a
        negative current (reverse conduction), which keeps Newton
        iterations well behaved.
        """
        tech = self.tech
        return _dc_currents(
            vgs,
            vds,
            tech.vt0,
            tech.n_slope,
            tech.ut,
            tech.spec_current(width, length),
            tech.lambda_l / length,
        )

    def drain_current(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Drain current ``Id`` (A); see :meth:`ids_gm_gds`."""
        return self.ids_gm_gds(vgs, vds, width, length)[0]

    def inversion_coefficient(
        self, vgs: ArrayLike, vds: ArrayLike
    ) -> np.ndarray:
        """Inversion coefficient ``IC = i_f`` (width independent).

        ``IC < 1`` indicates weak inversion, ``1 <= IC <= 10`` moderate, and
        ``IC > 10`` strong inversion; the paper's data generation enforces
        weak inversion for differential pairs and strong inversion for
        current mirrors.
        """
        i_f, _ = self._normalized_currents(vgs, vds)
        return i_f

    # ------------------------------------------------------------------
    # Small-signal conductances
    # ------------------------------------------------------------------
    def transconductance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Gate transconductance ``gm = dId/dVgs`` (S)."""
        return self.ids_gm_gds(vgs, vds, width, length)[1]

    def output_conductance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Output conductance ``gds = dId/dVds`` (S)."""
        return self.ids_gm_gds(vgs, vds, width, length)[2]

    # ------------------------------------------------------------------
    # Capacitances
    # ------------------------------------------------------------------
    def gate_source_capacitance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Gate-source capacitance ``Cgs`` (F).

        Sum of the constant overlap term ``W * cov`` and an intrinsic channel
        term that rises smoothly from ~0 in weak inversion to the saturation
        value ``(2/3) Cox W L`` in strong inversion, gated by the inversion
        coefficient.  Linear in ``W`` by construction.
        """
        tech = self.tech
        ic = self.inversion_coefficient(vgs, vds)
        occupancy = ic / (ic + 2.0)
        intrinsic = (2.0 / 3.0) * tech.cox * width * length * occupancy
        overlap = tech.cov * width
        return intrinsic + overlap

    def drain_source_capacitance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Drain-source (junction) capacitance ``Cds`` (F).

        Modeled as the reverse-biased drain junction capacitance per unit
        width with the standard grading law ``cj / (1 + Vds/pb)^mj``; the
        junction never forward-biases in normal operation, and the expression
        is clamped at ``Vds = -pb/2`` so Newton excursions stay finite.
        """
        tech = self.tech
        bias = np.maximum(1.0 + np.asarray(vds, dtype=float) / tech.pb, 0.5)
        return tech.cj * width / bias**tech.mj

    # ------------------------------------------------------------------
    # Bundles
    # ------------------------------------------------------------------
    def evaluate_all(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> dict[str, np.ndarray]:
        """Evaluate all five LUT outputs at once.

        Returns a dict keyed by :attr:`OUTPUT_NAMES` with numpy arrays all
        broadcast to the common ``vgs``/``vds`` shape, in the paper's
        Eq. (3) ordering semantics.  (Individually, ``Cds`` depends only on
        ``Vds`` and the ``Cgs`` inversion term only on ``Vgs``; the
        broadcast hides that asymmetry from table-building callers.)
        """
        ids, gm, gds = self.ids_gm_gds(vgs, vds, width, length)
        values = {
            "id": ids,
            "gm": gm,
            "gds": gds,
            "cds": self.drain_source_capacitance(vgs, vds, width, length),
            "cgs": self.gate_source_capacitance(vgs, vds, width, length),
        }
        shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
        return {name: np.broadcast_to(v, shape).copy() for name, v in values.items()}

    def small_signal(
        self, vgs: float, vds: float, width: float, length: float
    ) -> SmallSignal:
        """Scalar operating-point bundle for circuit linearization."""
        values = self.evaluate_all(vgs, vds, width, length)
        return SmallSignal(
            id=float(values["id"]),
            gm=float(values["gm"]),
            gds=float(values["gds"]),
            cgs=float(values["cgs"]),
            cds=float(values["cds"]),
        )

    def saturation_voltage(self, vgs: ArrayLike) -> np.ndarray:
        """Approximate ``Vds,sat`` for a region-of-operation check.

        Uses the EKV estimate ``Vds,sat ~= Ut * (2 sqrt(IC) + 4)`` with the
        inversion coefficient evaluated in saturation, which degrades
        gracefully into weak inversion (~4 Ut) and matches the strong
        inversion overdrive asymptotically.
        """
        tech = self.tech
        vp = (np.asarray(vgs, dtype=float) - tech.vt0) / tech.n_slope
        ic = interp_f(vp / tech.ut)
        return tech.ut * (2.0 * np.sqrt(ic) + 4.0)

    def is_saturated(
        self, vgs: ArrayLike, vds: ArrayLike, margin: float = 0.0
    ) -> np.ndarray:
        """Elementwise saturation check ``Vds >= Vds,sat + margin``."""
        return np.asarray(vds, dtype=float) >= self.saturation_voltage(vgs) + margin
