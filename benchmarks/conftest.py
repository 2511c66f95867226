"""Shared fixtures for the benchmark suite.

Every benchmark that needs the trained model shares one artifact, trained
once with :data:`repro.core.pipeline.BENCHMARK_CONFIG` and cached under
``benchmarks/.artifact_cache`` (pre-buildable with
``python scripts/build_bench_artifact.py``).

Each bench writes its reproduced table/figure rows to
``benchmarks/results/<name>.txt`` (pytest captures stdout by default) and
also prints them, so running with ``-s`` shows them live.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.core import predict_over_records
from repro.core.pipeline import BENCHMARK_CONFIG, train_sizing_model
from repro.devices import resolve_corners
from repro.solvers import EvalBackend
from repro.topologies import CornerSweep, topology_by_name

CACHE_DIR = Path(__file__).resolve().parent / ".artifact_cache"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: Perf snapshots land in the repo root (``benchmarks/results`` is
#: gitignored; the ``BENCH_*.json`` files are committed per PR so the
#: perf trajectory lives in history).
BENCH_JSON_DIR = Path(__file__).resolve().parent.parent

#: Validation designs used per topology for prediction-quality benches.
N_VALIDATION = 60


def _active_config():
    """Benchmark pipeline config; ``REPRO_BENCH_PROFILE=tiny`` switches to a
    minutes-scale configuration for smoke-testing the bench suite itself
    (quality assertions are expected to fail at that scale)."""
    import os

    if os.environ.get("REPRO_BENCH_PROFILE") == "tiny":
        from dataclasses import replace

        return replace(
            BENCHMARK_CONFIG,
            designs_per_topology=(("5T-OTA", 40), ("CM-OTA", 30), ("2S-OTA", 30)),
            epochs=2,
            d_model=32,
            n_heads=4,
            d_ff=48,
        )
    return BENCHMARK_CONFIG


class PerCandidateBackend(EvalBackend):
    """Sequential reference of the throughput benches: one
    ``measure_many`` call per candidate, or per (candidate, corner) pair
    when ``corners`` is given."""

    def measure_many(self, topology, widths_list, corners=None, analyses=None):
        if corners is None:
            return [
                topology.measure_many([widths], analyses=analyses)[0] for widths in widths_list
            ]
        resolved = resolve_corners(corners)
        return [
            CornerSweep(
                widths=dict(widths),
                corners=resolved,
                outcomes=tuple(
                    topology.measure_many([widths], corners=(corner,), analyses=analyses)[0]
                    .outcomes[0]
                    for corner in resolved
                ),
            )
            for widths in widths_list
        ]


@pytest.fixture(scope="session")
def artifact():
    """The trained sizing model plus datasets (cached on disk)."""
    return train_sizing_model(_active_config(), cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def topologies():
    return {name: topology_by_name(name) for name, _ in BENCHMARK_CONFIG.designs_per_topology}


@pytest.fixture(scope="session")
def engine(artifact, topologies):
    """A shared batched sizing engine over the benchmark model."""
    from repro.service import SizingEngine

    eng = SizingEngine(artifact.model)
    for topology in topologies.values():
        eng.adopt_topology(topology)
    return eng


class _PredictionCache:
    """Session-level cache of validation predictions per topology."""

    def __init__(self, artifact, topologies):
        self._artifact = artifact
        self._topologies = topologies
        self._cache = {}

    def get(self, name: str):
        if name not in self._cache:
            records = self._artifact.val_records[name][:N_VALIDATION]
            self._cache[name] = predict_over_records(
                self._artifact.model, self._topologies[name], records
            )
        return self._cache[name]


@pytest.fixture(scope="session")
def predictions(artifact, topologies):
    return _PredictionCache(artifact, topologies)


def write_result(name: str, lines) -> str:
    """Write result lines to ``benchmarks/results/<name>.txt`` and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n===== {name} =====")
    print(text)
    return text


def machine_fingerprint() -> dict:
    """Core count, CPU model, numpy/scipy versions and BLAS vendor.

    Stamped on every perf snapshot so a number can be read against the
    machine that produced it.
    """
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def write_bench_json(name: str, payload: dict) -> Path:
    """Write a machine-readable perf snapshot to ``BENCH_<name>.json``.

    The human-readable table still goes through :func:`write_result`; this
    is the per-PR perf trajectory -- one small JSON document per smoke
    bench, committed at the repo root and uploaded as a CI artifact, so
    regressions show up as diffs instead of vibes.

    Degraded-environment guard: a snapshot whose bench ran with its
    speedup floor waived (``speedup_floor_enforced: false`` -- e.g. the
    shard bench on a runner with too few cores) must not clobber a
    committed representative snapshot; it lands in
    ``BENCH_<name>.local.json`` (gitignored) instead, so the committed
    trajectory only ever records runs the floor actually vouches for.

    Every snapshot carries a ``machine`` block (:func:`machine_fingerprint`).
    """
    path = BENCH_JSON_DIR / f"BENCH_{name}.json"
    if payload.get("speedup_floor_enforced") is False and path.exists():
        path = BENCH_JSON_DIR / f"BENCH_{name}.local.json"
        print(f"perf snapshot degraded (speedup floor waived); keeping committed {name}")
    document = {
        "bench": name,
        "python": platform.python_version(),
        "machine": machine_fingerprint(),
        **payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"perf snapshot: {path}")
    return path
