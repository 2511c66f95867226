"""Technology parameter sets for the EKV-style MOSFET compact model.

The paper characterizes devices in a 65 nm technology with a 1.2 V supply,
a reference width of 700 nm and a fixed channel length of 180 nm.  We do not
have access to the foundry PDK, so this module defines a self-consistent
65 nm-flavoured parameter set for the long-channel EKV model implemented in
:mod:`repro.devices.ekv`.  The parameters are chosen so that

* threshold voltages, mobility factors and capacitances are in the right
  ballpark for a 65 nm bulk process,
* all five LUT outputs (``Id``, ``gm``, ``gds``, ``Cds``, ``Cgs``) scale
  linearly with the device width, which is the property the paper's
  precomputed-LUT methodology relies on, and
* the ``gm/Id`` ratio is width independent, the cornerstone of the gm/Id
  sizing methodology (Silveira et al., Jespers & Murmann).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TechParams",
    "NMOS_65NM",
    "PMOS_65NM",
    "VDD",
    "TEMPERATURE_K",
    "THERMAL_VOLTAGE",
]

#: Nominal supply voltage of the target technology (V).
VDD = 1.2

#: Nominal simulation temperature (K).
TEMPERATURE_K = 300.15

#: Thermal voltage kT/q at ``TEMPERATURE_K`` (V).
THERMAL_VOLTAGE = 0.025865


@dataclass(frozen=True)
class TechParams:
    """Parameters of the EKV-style long-channel model for one device type.

    Attributes
    ----------
    name:
        Human readable identifier, e.g. ``"nmos_65nm"``.
    polarity:
        ``+1`` for NMOS, ``-1`` for PMOS.  The model core always works with
        source-referenced, polarity-normalized voltages; the polarity is used
        by callers to map circuit voltages onto the normalized frame.
    vt0:
        Zero-bias threshold voltage (V), polarity-normalized (positive for
        both NMOS and PMOS).
    n_slope:
        Subthreshold slope factor ``n`` (dimensionless, typically 1.2-1.5).
    kp:
        Transconductance parameter ``mu * Cox`` (A/V^2).
    ut:
        Thermal voltage (V).
    lambda_l:
        Channel-length-modulation coefficient normalized to length
        (V^-1 * m); the effective CLM factor is ``lambda_l / L``.
    cox:
        Gate-oxide capacitance per unit area (F/m^2).
    cov:
        Gate overlap capacitance per unit width (F/m).
    cj:
        Zero-bias drain junction capacitance per unit width (F/m).
    pb:
        Junction built-in potential (V).
    mj:
        Junction grading coefficient (dimensionless).
    """

    name: str
    polarity: int
    vt0: float
    n_slope: float
    kp: float
    ut: float = THERMAL_VOLTAGE
    lambda_l: float = 0.02e-6
    cox: float = 11.5e-3
    cov: float = 0.24e-9
    cj: float = 0.9e-9
    pb: float = 0.8
    mj: float = 0.4

    def __post_init__(self) -> None:
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")
        for field_name in ("vt0", "n_slope", "kp", "ut", "cox", "cov", "cj", "pb"):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValueError(f"{field_name} must be positive, got {value}")
        if self.n_slope < 1.0:
            raise ValueError(f"n_slope must be >= 1, got {self.n_slope}")

    @property
    def is_nmos(self) -> bool:
        """True when this parameter set describes an NMOS device."""
        return self.polarity == 1

    def with_(self, **kwargs) -> TechParams:
        """Return a copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kwargs)

    def spec_current(self, width, length):
        """Specific (technology) current ``Ispec = 2 n kp (W/L) Ut^2`` in A.

        ``Ispec`` normalizes the drain current into the inversion coefficient
        ``IC = Id / Ispec`` used for region-of-operation checks; ``IC < 1`` is
        weak inversion, ``IC > 10`` strong inversion.  ``width`` may be an
        array (one entry per candidate in a batched evaluation).
        """
        if isinstance(width, np.ndarray):
            if np.any(width <= 0) or length <= 0:
                raise ValueError("width and length must be positive")
        elif width <= 0 or length <= 0:
            raise ValueError("width and length must be positive")
        return 2.0 * self.n_slope * self.kp * (width / length) * self.ut**2


#: 65 nm-flavoured NMOS parameter set (bulk tied to source).  ``lambda_l``
#: is deliberately large (lambda ~ 1/V at L = 180 nm): short-channel 65 nm
#: devices have low intrinsic gain, which is what makes the paper's 5T-OTA
#: gain land in the 18-23 dB range.
NMOS_65NM = TechParams(
    name="nmos_65nm",
    polarity=1,
    vt0=0.42,
    n_slope=1.30,
    kp=320e-6,
    lambda_l=0.18e-6,
)

#: 65 nm-flavoured PMOS parameter set (bulk tied to source).
PMOS_65NM = TechParams(
    name="pmos_65nm",
    polarity=-1,
    vt0=0.40,
    n_slope=1.35,
    kp=80e-6,
    lambda_l=0.16e-6,
)
