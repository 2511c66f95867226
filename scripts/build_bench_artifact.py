"""Pre-build the cached sizing-model artifact used by the benchmark suite.

Running this script is optional -- the benchmarks train (and cache) the
same artifact on first use -- but doing it ahead of time keeps the first
``pytest benchmarks/`` invocation fast.

``--bench-smoke`` runs the model-free smoke benches instead -- the same
selection the CI bench-smoke steps run, no training -- so the committed
``BENCH_*.json`` perf snapshots can be regenerated in one command:

    PYTHONPATH=src python scripts/build_bench_artifact.py --bench-smoke
"""
import argparse
import subprocess
import sys
import time
from pathlib import Path

CACHE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / ".artifact_cache"
BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: The model-free smoke selection, one pytest run per CI bench-smoke step;
#: most of them also write a ``BENCH_*.json`` snapshot at the repo root.
SMOKE_RUNS = [
    [str(BENCH_DIR / "bench_table9_comparison.py"), "-k", "population_throughput"],
    [
        str(BENCH_DIR / "bench_table8_runtime.py"),
        "-k",
        "verification_throughput or corner_throughput or tran_throughput or solver_scaling",
    ],
    [str(BENCH_DIR / "bench_alg1_width_estimator.py")],
    [str(BENCH_DIR / "bench_serve_throughput.py")],
    [str(BENCH_DIR / "bench_shard.py")],
    [str(BENCH_DIR / "bench_checks.py")],
]


def run_bench_smoke() -> int:
    """Run every smoke selection (each in its own pytest process); the
    exit status is the first failing run's, or 0."""
    status = 0
    for args in SMOKE_RUNS:
        code = subprocess.call([sys.executable, "-m", "pytest", *args, "-q"])
        status = status or code
    return status


def build_artifact() -> int:
    from repro.core.pipeline import BENCHMARK_CONFIG, train_sizing_model

    start = time.time()
    artifacts = train_sizing_model(
        BENCHMARK_CONFIG, cache_dir=CACHE_DIR, log=lambda m: print(m, flush=True)
    )
    history = artifacts.history_val_accuracy
    val_acc = history[-1] if history else float("nan")
    print(f"done in {time.time() - start:.0f}s; val acc {val_acc:.3f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-smoke",
        action="store_true",
        help="run the model-free smoke benches (emits BENCH_*.json snapshots) "
        "instead of training the artifact",
    )
    args = parser.parse_args()
    if args.bench_smoke:
        return run_bench_smoke()
    return build_artifact()


if __name__ == "__main__":
    sys.exit(main())
