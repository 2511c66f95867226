"""Precomputed lookup tables (Fig. 5, Sec. III-D-1).

The LUT stores the vector-valued function of Eq. (3)::

    [Id gm gds Cds Cgs] = f(Vgs, Vds)     (per unit width)

characterized once per device type by a nested DC sweep of a reference-width
transistor (the paper: 65 nm, ``Wref = 700 nm``, 0-1.2 V in 60 mV steps).
Because every output varies linearly with width, storing per-unit-width
values lets any width be recovered by ratioing -- the gm/Id methodology.

As in the paper, the relatively coarse 60 mV grid is augmented with cubic
spline interpolation (``scipy.interpolate.RectBivariateSpline``) so queries
at intermediate bias points stay accurate.

Every query is vectorised: :meth:`LookupTable.query_grid` evaluates one
output at every (``Vgs`` row, ``Vds`` column) pair in a single grid call,
and :meth:`LookupTable.find_vgs_for_gm_id_many` inverts gm/Id for a whole
batch of devices by fixed-step bisection.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.interpolate import RectBivariateSpline

from ..devices import NMOS_65NM, PMOS_65NM, TechParams
from ..spice.sweep import CharacterizationResult, characterize_device

__all__ = ["LookupTable", "build_lut", "LUT_OUTPUTS"]

#: LUT output names in the Eq. (3) ordering.
LUT_OUTPUTS = ("id", "gm", "gds", "cds", "cgs")

ArrayLike = float | np.ndarray

#: Absolute ``Vgs`` tolerance of the gm/Id inversion (V).
VGS_XTOL = 1e-7


class LookupTable:  # checks: process-shared
    """Spline-interpolated per-unit-width device tables for one device type.

    Marked ``process-shared``: the gm/Id tables ship to sharding workers
    alongside :class:`~repro.core.bundle.SizingModel`, so the fork-safety
    rule keeps them plain data (grids, tables, splines).
    """

    def __init__(self, characterization: CharacterizationResult):
        self.tech = characterization.tech
        self.length = characterization.length
        self.reference_width = characterization.reference_width
        self.vgs_grid = characterization.vgs_grid
        self.vds_grid = characterization.vds_grid
        self.tables = {name: np.asarray(table) for name, table in characterization.tables.items()}
        degree = 3 if len(self.vgs_grid) > 3 and len(self.vds_grid) > 3 else 1
        self._splines = {
            name: RectBivariateSpline(self.vgs_grid, self.vds_grid, table, kx=degree, ky=degree)
            for name, table in self.tables.items()
        }
        # Fixed bisection depth that shrinks the gm/Id bracket below
        # VGS_XTOL; fixed so a row's answer never depends on its batch.
        span = float(self.vgs_grid[-1]) - float(self.vgs_grid[1])
        self._bisection_steps = int(np.ceil(np.log2(span / VGS_XTOL)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, output: str, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """Spline-interpolated per-unit-width value of one output."""
        if output not in self._splines:
            raise KeyError(f"unknown LUT output {output!r}; expected one of {LUT_OUTPUTS}")
        vgs_arr = np.asarray(vgs, dtype=float)
        vds_arr = np.asarray(vds, dtype=float)
        result = self._splines[output](vgs_arr, vds_arr, grid=False)
        return result

    def query_grid(self, output: str, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """One output at every ``(vgs[i], vds[j])`` pair, shape ``(len(vgs), len(vds))``.

        ``vgs`` need not be sorted: it is sorted for the spline's grid
        evaluation and the rows are put back in input order.  Each entry
        is bit-identical to the pointwise :meth:`query` at that pair.
        """
        if output not in self._splines:
            raise KeyError(f"unknown LUT output {output!r}; expected one of {LUT_OUTPUTS}")
        vgs_arr = np.asarray(vgs, dtype=float)
        order = np.argsort(vgs_arr, kind="stable")
        values = self._splines[output](vgs_arr[order], np.asarray(vds, dtype=float), grid=True)
        result = np.empty_like(values)
        result[order] = values
        return result

    def query_all(self, vgs: ArrayLike, vds: ArrayLike) -> dict[str, np.ndarray]:
        """All five outputs at once (per unit width)."""
        return {name: self.query(name, vgs, vds) for name in LUT_OUTPUTS}

    def gm_over_id(self, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """The width-independent ``gm/Id`` ratio at a bias point (1/V)."""
        gm = self.query("gm", vgs, vds)
        id_ = self.query("id", vgs, vds)
        return gm / np.maximum(id_, 1e-30)

    # ------------------------------------------------------------------
    # gm/Id inversion (Algorithm 1, line 7)
    # ------------------------------------------------------------------
    def gm_id_range(self, vds: float) -> tuple[float, float]:
        """Achievable (min, max) gm/Id at the given ``Vds``.

        ``gm/Id`` decreases monotonically with ``Vgs``: the maximum sits at
        the lowest usable ``Vgs`` (deep weak inversion, ~``1/(n*Ut)``), the
        minimum at the top of the grid (strong inversion).
        """
        vgs_lo = float(self.vgs_grid[1])
        vgs_hi = float(self.vgs_grid[-1])
        return (
            float(self.gm_over_id(vgs_hi, vds)),
            float(self.gm_over_id(vgs_lo, vds)),
        )

    def find_vgs_for_gm_id(self, target: float, vds: float) -> float:
        """Find ``Vgs`` such that ``gm/Id(Vgs, Vds) == target`` (line 7).

        Targets outside the achievable range are clamped to the nearest
        endpoint (the paper's copilot loop then corrects residual error via
        the verification stage).  A batch of one through
        :meth:`find_vgs_for_gm_id_many`.
        """
        return float(self.find_vgs_for_gm_id_many(np.array([target]), np.array([vds]))[0])

    def find_vgs_for_gm_id_many(self, targets: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`find_vgs_for_gm_id`: one ``Vgs`` per (target, Vds) row.

        Bisection on ``[vgs_grid[1], vgs_grid[-1]]`` with a fixed step
        count, so every row ends within :data:`VGS_XTOL` of a root and
        its answer does not depend on the other rows of the batch.
        """
        targets = np.asarray(targets, dtype=float)
        vds = np.broadcast_to(np.asarray(vds, dtype=float), targets.shape)
        if not np.all(targets > 0):
            raise ValueError(f"gm/Id targets must be positive, got {targets[~(targets > 0)]}")
        vgs_lo = float(self.vgs_grid[1])
        vgs_hi = float(self.vgs_grid[-1])
        lower = np.full(targets.shape, vgs_lo)
        upper = np.full(targets.shape, vgs_hi)
        for _ in range(self._bisection_steps):
            middle = 0.5 * (lower + upper)
            # gm/Id falls with Vgs: above the target, the root lies higher.
            above = self.gm_over_id(middle, vds) > targets
            lower = np.where(above, middle, lower)
            upper = np.where(above, upper, middle)
        vgs = 0.5 * (lower + upper)
        vgs = np.where(targets <= self.gm_over_id(vgs_hi, vds), vgs_hi, vgs)
        return np.where(targets >= self.gm_over_id(vgs_lo, vds), vgs_lo, vgs)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialize the table (not the splines) to an ``.npz`` file."""
        payload = {
            "tech_name": np.array(self.tech.name),
            "length": np.array(self.length),
            "reference_width": np.array(self.reference_width),
            "vgs_grid": self.vgs_grid,
            "vds_grid": self.vds_grid,
        }
        for name, table in self.tables.items():
            payload[f"table_{name}"] = table
        np.savez(path, **payload)

    @classmethod
    def load(cls, path: str | Path) -> LookupTable:
        """Load a table saved by :meth:`save`."""
        data = np.load(path)
        tech_name = str(data["tech_name"])
        return cls.from_arrays(
            tech_name,
            length=float(data["length"]),
            reference_width=float(data["reference_width"]),
            vgs_grid=data["vgs_grid"],
            vds_grid=data["vds_grid"],
            tables={name: data[f"table_{name}"] for name in LUT_OUTPUTS},
        )

    @classmethod
    def from_arrays(
        cls,
        tech_name: str,
        *,
        length: float,
        reference_width: float,
        vgs_grid: np.ndarray,
        vds_grid: np.ndarray,
        tables: dict[str, np.ndarray],
    ) -> LookupTable:
        """Build a table directly from grid arrays.

        The arrays are adopted as-is (``np.asarray`` in ``__init__`` is a
        no-copy view for ndarray subclasses), so memory-mapped read-only
        views from a shared artifact stay mmap-backed — the basis of the
        sharded engine's N-workers-for-1x-model-memory property.  Only
        the spline coefficients are computed (and owned) privately.
        """
        tech = _TECH_BY_NAME.get(tech_name)
        if tech is None:
            raise ValueError(f"unknown technology {tech_name!r}")
        characterization = CharacterizationResult(
            tech=tech,
            length=float(length),
            reference_width=float(reference_width),
            vgs_grid=vgs_grid,
            vds_grid=vds_grid,
            tables=dict(tables),
        )
        return cls(characterization)


_TECH_BY_NAME = {NMOS_65NM.name: NMOS_65NM, PMOS_65NM.name: PMOS_65NM}


def build_lut(
    tech: TechParams,
    reference_width: float = 700e-9,
    length: float = 180e-9,
    step: float = 0.06,
    vmax: float = 1.2,
    use_testbench: bool = False,
) -> LookupTable:
    """Characterize a device and wrap the result in a :class:`LookupTable`.

    The default grid matches the paper: 0 to 1.2 V in 60 mV steps.  With
    ``use_testbench=True`` every grid point goes through the MNA DC solver
    (the literal Fig. 5 flow); the default evaluates the model directly,
    which yields identical numbers (see the regression test) but is much
    faster for the 441-point grid.
    """
    grid = np.arange(0.0, vmax + 1e-9, step)
    characterization = characterize_device(
        tech,
        reference_width=reference_width,
        length=length,
        vgs_grid=grid,
        vds_grid=grid,
        use_testbench=use_testbench,
    )
    return LookupTable(characterization)
