"""Precomputed lookup tables (Fig. 5, Sec. III-D-1).

The LUT stores the vector-valued function of Eq. (3)::

    [Id gm gds Cds Cgs] = f(Vgs, Vds)     (per unit width)

characterized once per device type by a nested DC sweep of a reference-width
transistor (the paper: 65 nm, ``Wref = 700 nm``, 0-1.2 V in 60 mV steps).
Because every output varies linearly with width, storing per-unit-width
values lets any width be recovered by ratioing -- the gm/Id methodology.

As in the paper, the relatively coarse 60 mV grid is augmented with cubic
spline interpolation (``scipy.interpolate.RectBivariateSpline``) so
queries at intermediate bias points stay accurate.  The spline's knots
are grid points, so :class:`LookupTable` converts it once, at
construction, into power-basis pieces and evaluates only those, in
numpy: a ``4 x 4`` bicubic per grid cell of every output (a query is a
gather plus Horner's rule), and the cost outputs collapsed onto
Algorithm 1's fixed ``Vds`` scan, one cubic in ``Vgs`` per (interval,
scan point) (:meth:`LookupTable.scan`).  Queries outside the grid clamp
to its edge, as FITPACK's evaluation does.
"""

from __future__ import annotations

from math import factorial
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline, RectBivariateSpline

from ..devices import NMOS_65NM, PMOS_65NM, TechParams
from ..spice.sweep import CharacterizationResult, characterize_device

__all__ = ["LookupTable", "build_lut", "LUT_OUTPUTS", "SCAN_OUTPUTS", "VDS_SCAN_POINTS"]

#: LUT output names in the Eq. (3) ordering.
LUT_OUTPUTS = ("id", "gm", "gds", "cds", "cgs")
#: Outputs of the ``Vds`` scan: the candidates w1..w4 of Algorithm 1's
#: cost (line 11).
SCAN_OUTPUTS = ("gm", "gds", "cds", "cgs")
#: Points of Algorithm 1's ``Vds`` scan over ``[vds_grid[1], vds_grid[-1]]``.
VDS_SCAN_POINTS = 241

ArrayLike = float | np.ndarray

#: Absolute ``Vgs`` tolerance of the gm/Id inversion (V).
VGS_XTOL = 1e-7
#: Sub-intervals per k-section round of the gm/Id inversion.
_SECTIONS = 16
_GM, _ID = LUT_OUTPUTS.index("gm"), LUT_OUTPUTS.index("id")
_FRACTIONS = np.arange(1, _SECTIONS + 1)


def _horner(coefficients: np.ndarray, offset: ArrayLike) -> np.ndarray:
    """``sum_a coefficients[a] * offset**a`` (cubic, axis 0), elementwise
    only, so an entry's bits do not depend on the array it sits in."""
    value = coefficients[3] * offset
    value += coefficients[2]
    value *= offset
    value += coefficients[1]
    value *= offset
    value += coefficients[0]
    return value


def _locate(grid: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid interval of each value (clamped to the grid) and its offset
    from the interval's left end."""
    clamped = np.minimum(np.maximum(values, grid[0]), grid[-1])
    index = np.searchsorted(grid[1:-1], clamped, side="right")
    return index, clamped - grid[index]


def _basis(knots: np.ndarray, degree: int) -> BSpline:
    """Every B-spline basis function on the knots, as one vector-valued spline."""
    return BSpline(knots, np.eye(len(knots) - degree - 1), degree)


def _taylor_rows(basis: BSpline, points: np.ndarray) -> np.ndarray:
    """``B_p^(a)(x) / a!`` for every basis function ``p`` at each point
    ``x``, powers ``a = 0..3``: shape ``(4, points, basis)``.

    At the left end of a grid interval these are the interval's Taylor
    (power-basis) rows: derivatives at a knot are right-sided, so they
    belong to the interval that starts there.
    """
    return np.stack([basis(points, nu=a) / factorial(a) for a in range(4)])


class LookupTable:  # checks: process-shared
    """Spline-interpolated per-unit-width device tables for one device type.

    Marked ``process-shared``: the gm/Id tables ship to sharding workers
    alongside :class:`~repro.core.bundle.SizingModel`, so the fork-safety
    rule keeps them plain data (grids, tables, polynomial pieces).  The
    pieces are a pure function of the grids and tables, so a LUT rebuilt
    from them (:meth:`load`, :meth:`from_arrays`) answers bit for bit
    like the original.
    """

    def __init__(self, characterization: CharacterizationResult):
        self.tech = characterization.tech
        self.length = characterization.length
        self.reference_width = characterization.reference_width
        self.vgs_grid = characterization.vgs_grid
        self.vds_grid = characterization.vds_grid
        self.tables = {name: np.asarray(table) for name, table in characterization.tables.items()}
        degree = 3 if len(self.vgs_grid) > 3 and len(self.vds_grid) > 3 else 1
        vgs_grid = np.asarray(self.vgs_grid, dtype=float)
        vds_grid = np.asarray(self.vds_grid, dtype=float)
        splines = [
            RectBivariateSpline(vgs_grid, vds_grid, self.tables[name], kx=degree, ky=degree)
            for name in LUT_OUTPUTS
        ]
        # Every output's spline has the same knots, all of them grid
        # points, so each grid cell holds one bicubic piece.  Every
        # product below is one small matrix product, which BLAS runs on
        # one thread: the pieces depend on the grids and tables alone.
        vgs_knots, vds_knots, _ = splines[0].tck
        vds_basis = _basis(vds_knots, degree)
        shape = (len(vgs_knots) - degree - 1, len(vds_knots) - degree - 1)
        along_vgs = _taylor_rows(_basis(vgs_knots, degree), vgs_grid[:-1])
        # (output, Vgs power, Vgs interval, Vds basis function).
        partial = np.stack([along_vgs @ s.tck[2].reshape(shape) for s in splines])
        along_vds = _taylor_rows(vds_basis, vds_grid[:-1]).transpose(0, 2, 1)
        # (output, Vds power, Vgs power, Vgs interval, Vds interval).
        self._pieces = partial[:, None] @ along_vds[None, :, None]
        self.vds_scan = np.linspace(float(vds_grid[1]), float(vds_grid[-1]), VDS_SCAN_POINTS)
        # The scan outputs at every scan point: (Vgs power, Vgs interval,
        # output-major scan column).
        outputs = [LUT_OUTPUTS.index(name) for name in SCAN_OUTPUTS]
        scanned = partial[outputs] @ vds_basis(self.vds_scan).T
        self._scan_pieces = np.ascontiguousarray(scanned.transpose(1, 2, 0, 3)).reshape(
            4, len(vgs_grid) - 1, -1
        )
        # Fixed k-section depth that shrinks the gm/Id bracket below
        # VGS_XTOL; fixed so a row's answer never depends on its batch.
        self._vgs_steps = np.diff(vgs_grid)
        widest = float(np.max(self._vgs_steps))
        self._section_rounds = int(np.ceil(np.log(widest / VGS_XTOL) / np.log(_SECTIONS)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, output: str, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """Spline-interpolated per-unit-width value of one output."""
        if output not in LUT_OUTPUTS:
            raise KeyError(f"unknown LUT output {output!r}; expected one of {LUT_OUTPUTS}")
        vgs_arr, vds_arr = np.broadcast_arrays(
            np.asarray(vgs, dtype=float), np.asarray(vds, dtype=float)
        )
        row, vgs_offset = _locate(self.vgs_grid, vgs_arr)
        column, vds_offset = _locate(self.vds_grid, vds_arr)
        pieces = self._pieces[LUT_OUTPUTS.index(output)][:, :, row, column]
        return _horner(_horner(pieces, vds_offset), vgs_offset)

    def query_all(self, vgs: ArrayLike, vds: ArrayLike) -> dict[str, np.ndarray]:
        """All five outputs at once (per unit width)."""
        return {name: self.query(name, vgs, vds) for name in LUT_OUTPUTS}

    def gm_over_id(self, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """The width-independent ``gm/Id`` ratio at a bias point (1/V)."""
        gm = self.query("gm", vgs, vds)
        id_ = self.query("id", vgs, vds)
        return gm / np.maximum(id_, 1e-30)

    def scan(self, vgs: np.ndarray) -> np.ndarray:
        """The :data:`SCAN_OUTPUTS` at every (``vgs[r]``, ``vds_scan[s]``)
        pair, shape ``(len(vgs), len(SCAN_OUTPUTS), VDS_SCAN_POINTS)``.

        Algorithm 1's ``Vds`` scan (lines 10-12): one gather of the
        collapsed pieces and Horner's rule in ``Vgs``.
        """
        row, offset = _locate(self.vgs_grid, np.asarray(vgs, dtype=float))
        offset = offset[:, None]
        # Horner's rule gathering one power at a time: no (4, rows,
        # columns) temporary, ~30% faster than _horner on the full gather.
        pieces = self._scan_pieces
        values = pieces[3][row]
        for power in (2, 1, 0):
            values *= offset
            values += pieces[power][row]
        return values.reshape(len(row), len(SCAN_OUTPUTS), VDS_SCAN_POINTS)

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

        At each row's ``Vds`` the gm and Id pieces collapse to one cubic
        in ``Vgs`` per grid interval.  The root is bracketed by the first
        knot of ``[vgs_grid[1], vgs_grid[-1]]`` where ``gm - target * Id``
        turns non-positive, and that interval's cubic is k-sectioned a
        fixed number of rounds, always keeping the lowest sign change.
        Every row therefore ends within :data:`VGS_XTOL` of the lowest
        root (weak-inversion wiggles can give several), and its answer
        does not depend on the other rows of the batch.
        """
        targets = np.asarray(targets, dtype=float)
        shape = targets.shape
        targets = targets.ravel()
        vds = np.broadcast_to(np.asarray(vds, dtype=float), shape).ravel()
        if not np.all(targets > 0):
            raise ValueError(f"gm/Id targets must be positive, got {targets[~(targets > 0)]}")
        column, vds_offset = _locate(self.vds_grid, vds)
        # gm, Id and gm - target*Id as cubics in Vgs on every grid
        # interval: (Vgs power, interval, row).
        gm = _horner(self._pieces[_GM][..., column], vds_offset)
        id_ = _horner(self._pieces[_ID][..., column], vds_offset)
        residual = gm - targets * id_
        steps = self._vgs_steps
        ratio_lo = gm[0, 1] / np.maximum(id_[0, 1], 1e-30)
        ratio_hi = _horner(gm[:, -1], steps[-1]) / np.maximum(_horner(id_[:, -1], steps[-1]), 1e-30)
        # gm/Id falls with Vgs: the first knot past vgs_grid[1] where
        # gm - target*Id is no longer positive closes the lowest bracket
        # (the last knot closes it for every row that is not clamped).
        closed = np.ones((len(steps) - 1, len(targets)), dtype=bool)
        np.less_equal(residual[0, 2:], 0.0, out=closed[:-1])
        interval = np.argmax(closed, axis=0) + 1
        cubic = residual[:, interval, np.arange(len(targets))][:, :, None]
        lower = np.zeros(len(targets))
        step = steps[interval]
        for _ in range(self._section_rounds):
            step = step / _SECTIONS
            values = _horner(cubic, lower[:, None] + step[:, None] * _FRACTIONS)
            closed = values <= 0.0
            closed[:, -1] = True
            lower += np.argmax(closed, axis=1) * step
        vgs = self.vgs_grid[interval] + lower + 0.5 * step
        vgs = np.where(targets <= ratio_hi, float(self.vgs_grid[-1]), vgs)
        vgs = np.where(targets >= ratio_lo, float(self.vgs_grid[1]), vgs)
        return vgs.reshape(shape)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialize the table (not the pieces) to an ``.npz`` file."""
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
        the polynomial pieces are computed (and owned) privately.
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
