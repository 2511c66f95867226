"""A measured nearest-neighbour "model": the copilot flow with the transformer held out.

The oracle stands in for Stages I/II.  At set-up it measures random
designs of every topology it serves through the program's batched
``measure_many`` (nominal corner, DC + AC) and keeps, per topology, the
log-metric coordinates and the per-group device parameters of each valid
design.  At inference it answers every spec of a round with the device
parameters of the design whose (gain, f3dB, UGF) lies nearest in
log space: one vectorised distance matrix per topology, so the oracle's
own cost stays small next to the engine's and, when traced, has its own
span instead of passing for engine time.  Unlike an exact-match lookup
it answers any spec, including the tightened retry specs of later
copilot rounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.datagen.serialize import ParsedParams
from repro.devices import NMOS_65NM, PMOS_65NM
from repro.lut import build_lut
from repro.solvers import SearchSpace
from repro.topologies import topology_by_name

__all__ = ["OracleTable", "NearestNeighbourOracle", "build_oracle"]


class OracleTable:
    """The measured designs of one topology, as aligned arrays."""

    def __init__(self, topology, widths, metrics, params):
        self.topology = topology
        #: Width vectors of the designs (list of dicts).
        self.widths = widths
        #: ``(n, 3)`` array of (gain_db, f3db_hz, ugf_hz).
        self.metrics = np.asarray(metrics, dtype=float).reshape(-1, 3)
        self.log_metrics = np.log(self.metrics)
        #: Per-design ``{group: {gm, gds, cds, cgs, id}}``.
        self.params = params

    def __len__(self) -> int:
        return len(self.widths)

    def nearest(self, specs) -> np.ndarray:
        """Index of the nearest design for each spec (L1 in log metrics)."""
        targets = np.log(
            np.array([[s.gain_db, s.f3db_hz, s.ugf_hz] for s in specs], dtype=float)
        )
        distance = np.abs(targets[:, None, :] - self.log_metrics[None, :, :]).sum(axis=2)
        return np.argmin(distance, axis=1)


def measure_table(topology, count: int, rng: np.random.Generator) -> OracleTable:
    """Measure ``count`` random designs of ``topology``; keep the valid ones."""
    space = SearchSpace(topology)
    candidates = [space.decode(space.random_point(rng)) for _ in range(count)]
    widths, metrics, params = [], [], []
    for outcome in topology.measure_many(candidates):
        if not outcome.ok or not outcome.result.metrics.is_valid():
            continue
        result = outcome.result
        widths.append(dict(outcome.widths))
        metrics.append((result.metrics.gain_db, result.metrics.f3db_hz, result.metrics.ugf_hz))
        params.append(
            {g.name: dict(result.device_params[g.name]) for g in topology.groups}
        )
    return OracleTable(topology, widths, metrics, params)


class NearestNeighbourOracle(SizingModel):
    """``SizingModel`` whose inference is a nearest-neighbour table lookup."""

    def __init__(self, tables: dict[str, OracleTable]):
        config = SequenceConfig()
        super().__init__(
            transformer=None,
            bpe=None,
            vocab=None,
            sequence_config=config,
            builders={name: SequenceBuilder(t.topology, config) for name, t in tables.items()},
            luts={NMOS_65NM.name: build_lut(NMOS_65NM), PMOS_65NM.name: build_lut(PMOS_65NM)},
        )
        self.tables = tables

    def predict_params(self, topology_name, spec, max_len=None):
        return self.predict_params_many({topology_name: [spec]}, max_len)[topology_name][0]

    def predict_params_many(self, specs_by_topology, max_len=None):
        outputs = {}
        for name, specs in specs_by_topology.items():
            if not specs:
                outputs[name] = []
                continue
            table = self.tables[name]
            outputs[name] = [
                (
                    ParsedParams(
                        values={g: dict(p) for g, p in table.params[index].items()},
                        complete=True,
                    ),
                    f"<oracle:{name}:{index}>",
                )
                for index in table.nearest(specs).tolist()
            ]
        return outputs


def build_oracle(topology_names, count: int, seed: int) -> NearestNeighbourOracle:
    """Measure ``count`` random designs per topology and index them."""
    rng = np.random.default_rng(seed)
    tables = {name: measure_table(topology_by_name(name), count, rng) for name in topology_names}
    return NearestNeighbourOracle(tables)
