"""One benchmark for the sizing flow.

Usage, from the repository root::

    python3 perfbench/run.py --workload copilot-ac --seed 1 --seconds 10 --trace 0

Workloads: ``copilot-ac``, ``copilot-pvt-tran``, ``transformer-decode``
(offline, through ``SizingEngine.size_batch``) and ``serve-open-loop``
(HTTP through ``SizingServer``).  ``--trace 0`` reports the end-to-end
metrics with tracing off; ``--trace 1`` runs the workload once untraced
and once with spans around every layer, and reports the per-layer
metrics.  Earlier lines of standard output carry the machine fingerprint
and run details; the last line is the result::

    {"correct": true, "attempted": 240, "failed": 0, "metrics": {...}}

``correct`` is false when the correctness gate finds a wrong answer.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import serving  # noqa: E402
from calibration import Sampler  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, check_responses, run_pass, warm_up  # noqa: E402

#: Server starts per end-to-end serving run; ``setup_s`` is their median.
SERVE_SETUP_REPEATS = 3
#: Candidate tail percentiles, highest first (see ``tail``).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
SERVE = "serve-open-loop"


def fingerprint() -> dict:
    """Core count, CPU model, library versions and BLAS vendor."""
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it, else the maximum (percentile 100)."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(latencies, pct))
    return 100.0, float(max(latencies))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def timed_setup(build):
    """Run ``build()``; returns its result and its reference-speed time."""
    with Sampler() as sampler:
        start = time.perf_counter()
        built = build()
        end = time.perf_counter()
    return built, sampler.reference_seconds(start, end)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_metrics(latencies: list[float], slo_ms: float, sent: int) -> tuple[dict, dict]:
    pct, tail_s = tail(latencies)
    met = sum(latency * 1e3 <= slo_ms for latency in latencies)
    return {
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_s * 1e3, "ms"),
        "slo_attainment": metric(ratio(met, sent), "ratio"),
    }, {"latency_tail_pct": pct, "latency_samples": len(latencies), "slo_ms": slo_ms}


def quality(responses, attempted: int, simulations: int | None = None) -> dict:
    """Share meeting spec, SPICE runs per request, error share.

    ``simulations`` overrides the responses' own counts (a cached answer
    reports the simulations its first computation ran)."""
    failed = attempted - sum(r.error is None for r in responses)
    if simulations is None:
        simulations = sum(r.spice_simulations for r in responses)
    return {
        "success_rate": metric(ratio(sum(r.success for r in responses), attempted), "ratio"),
        "spice_sims_per_request": metric(ratio(simulations, attempted), "count"),
        "failed_frac": metric(ratio(failed, attempted), "ratio"),
    }


def layer_metrics(busy: dict, calls: dict, count: dict, setup: Tracer | None = None) -> dict:
    """Per-layer metrics from span self times, span calls and counters."""
    setup_busy = setup.self_times() if setup else {}
    setup_count = setup.counters if setup else {}

    def seconds(name):
        return metric(busy.get(name, 0.0), "s")

    def counted(name):
        return count.get(name, 0)

    return {
        "lut.estimate_width.busy_s": seconds("lut.estimate_width"),
        "lut.estimate_width.calls": metric(counted("lut.estimate_width.calls"), "count"),
        "lut.accept_ratio": metric(
            ratio(counted("lut.accepted"), counted("lut.estimate_width.calls")), "ratio"
        ),
        "spice.tran.busy_s": seconds("spice.tran"),
        "spice.tran.runs": metric(counted("spice.tran.runs"), "count"),
        "spice.linsolve.busy_s": seconds("spice.linsolve"),
        "spice.linsolve.calls": metric(calls.get("spice.linsolve", 0), "count"),
        "spice.dc.busy_s": seconds("spice.dc"),
        "spice.dc.circuits": metric(counted("spice.dc.circuits"), "count"),
        "spice.dc.newton_iters_mean": metric(
            ratio(counted("spice.dc.newton_iters"), counted("spice.dc.converged")), "count"
        ),
        "spice.ac.busy_s": seconds("spice.ac"),
        "spice.ac.points": metric(counted("spice.ac.points"), "count"),
        "spice.metrics.busy_s": seconds("spice.metrics"),
        "solvers.measure_many.busy_s": seconds("solvers.measure_many"),
        "solvers.measure_many.candidates": metric(counted("solvers.candidates"), "count"),
        "solvers.measure_many.ok_ratio": metric(
            ratio(counted("solvers.ok"), counted("solvers.candidates")), "ratio"
        ),
        "transformer.encode.busy_s": seconds("transformer.encode"),
        "transformer.decode.busy_s": seconds("transformer.decode"),
        "transformer.decode.tokens": metric(counted("transformer.decode.tokens"), "count"),
        "transformer.decode.eos_ratio": metric(
            ratio(counted("transformer.decode.eos_rows"), counted("transformer.decode.rows")),
            "ratio",
        ),
        "model.busy_s": seconds("model"),
        "model.parse_ok_ratio": metric(
            ratio(counted("model.parse_ok"), counted("model.rows")), "ratio"
        ),
        "oracle.busy_s": seconds("oracle"),
        "datagen.busy_s": metric(setup_busy.get("datagen", 0.0), "s"),
        "datagen.accept_ratio": metric(
            ratio(setup_count.get("datagen.accepted", 0), setup_count.get("datagen.attempted", 0)),
            "ratio",
        ),
        "trainer.busy_s": metric(setup_busy.get("trainer", 0.0), "s"),
        "service.cache.hit_ratio": metric(
            ratio(counted("service.cache.hits"), counted("service.cache.gets")), "ratio"
        ),
        "service.self_s": seconds("service"),
    }


def trace_metrics(busy: dict, base_s: float, traced_s: float, engine: dict) -> dict:
    """Tracing cost, plus the engine's own round counters.

    ``base_s`` and ``traced_s`` are the busy times of the same work in
    the untraced and the traced pass.
    """
    return {
        "service.coalesced": metric(engine["coalesced"], "count"),
        "service.rounds": metric(engine["inference_calls"], "count"),
        "trace.overhead_frac": metric(traced_s / base_s - 1.0, "ratio"),
        "trace.self_sum_s": metric(sum(busy.values()), "s"),
    }


def serve_layer_metrics(report: dict | None, loop) -> dict:
    """Per-layer metrics in front of the engine (zero on offline runs)."""
    waits, server, busy, lag, grew = [], {}, {}, 0.0, False
    if report is not None:
        waits = report["spans"]["queue_waits"]
        server = report["server"]
        busy = report["spans"]["self"]
        lag = max(o["lag_s"] for o in loop.results) * 1e3
        grew = backlog_grew(loop)
    batches = server.get("batches", 0)
    return {
        "serve.queue_wait_ms_p50": metric(statistics.median(waits) * 1e3 if waits else 0.0, "ms"),
        "serve.batch_size_mean": metric(ratio(server.get("served", 0), batches), "count"),
        "serve.flush_timeout_ratio": metric(
            ratio(server.get("flush_reasons", {}).get("timeout", 0), batches), "ratio"
        ),
        "serve.rejected": metric(server.get("rejected_queue_full", 0), "count"),
        "serve.expired": metric(server.get("expired_deadline", 0), "count"),
        "serve.handler.self_s": metric(busy.get("serve.handler", 0.0), "s"),
        "loadgen.lag_ms_max": metric(lag, "ms"),
        "loadgen.backlog_grew": metric(int(grew), "count"),
    }


def backlog_grew(loop) -> bool:
    """Whether requests in flight rose from the first half of the sends
    to the second (mean 1.5x higher plus one)."""
    counts = [n for _, n in loop.backlog]
    half = len(counts) // 2
    if not half:
        return False
    return statistics.fmean(counts[half:]) > 1.5 * statistics.fmean(counts[:half]) + 1.0


def span_table(busy: dict, calls: dict) -> dict:
    """Per span name: calls and self seconds (written with the details)."""
    return {name: {"calls": calls.get(name, 0), "self_s": busy[name]} for name in sorted(busy)}


def result(problems, attempted, stats, metrics, details) -> dict:
    for problem in problems[:20]:
        print(f"correctness: {problem}")
    failed = round(stats["failed_frac"]["value"] * attempted)
    print(json.dumps({"details": details, "problems": len(problems)}))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _comparable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("wall_time_s", "cached")}


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
def run_offline(workload, seed: int, seconds: float, trace: bool) -> dict:
    setup_tracer = Tracer() if trace else None
    setups = []
    for _ in range(1 if trace else workload.setup_repeats):
        system, seconds_taken = timed_setup(lambda: workload.setup(setup_tracer))
        setups.append(seconds_taken)
    stream = workload.batches(system, seed)
    first = next(stream)
    warm_up(workload, system, first)
    stream = itertools.chain([first], stream)

    untraced = run_pass(workload, system, stream, seconds=seconds)
    problems = check_responses(untraced.requests, untraced.responses)
    attempted = len(untraced.requests)
    latencies = [t for batch, t in zip(untraced.batches, untraced.seconds, strict=True)
                 for _ in batch]
    latency, details = latency_metrics(latencies, workload.slo_ms, attempted)
    details |= {
        "batches": len(untraced.batches),
        "batch_size": len(first),
        "raw_batch_seconds": untraced.raw_seconds,
        "reference_batch_seconds": untraced.seconds,
    }
    stats = quality(untraced.responses, attempted)

    if not trace:
        metrics = {
            "throughput_rps": metric(attempted / sum(untraced.seconds), "1/s"),
            **latency,
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        return result(problems, attempted, stats, metrics, details)

    tracer = Tracer()
    traced = run_pass(workload, system, untraced.batches, count=len(untraced.batches),
                      tracer=tracer)
    for plain, spanned in zip(untraced.responses, traced.responses, strict=True):
        if _comparable(plain.to_json()) != _comparable(spanned.to_json()):
            problems.append(f"{plain.request_id}: traced run answered differently")
    busy = tracer.self_times()
    details["spans"] = span_table(busy, tracer.calls())
    base_s = sum(untraced.seconds)
    traced_s = sum(traced.seconds)
    metrics = {
        **layer_metrics(busy, tracer.calls(), tracer.counters, setup_tracer),
        **serve_layer_metrics(None, None),
        **trace_metrics(busy, base_s, traced_s, traced.engine.stats.as_dict()),
        # All self times, at reference speed, over the untraced busy time
        # (self times include the calibration samples, as raw times do).
        "trace.coverage": metric(
            sum(busy.values()) * traced_s / sum(traced.raw_seconds) / base_s, "ratio"
        ),
        **stats,
        "latency_tail_pct": metric(details["latency_tail_pct"], "pct"),
    }
    return result(problems, attempted, stats, metrics, details)


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def serve_pass(mode: int, pool, requests, arrivals, setups: list[float]):
    """Start a server (its set-up time goes to ``setups``) and run the
    open loop against it; returns the loop and the server's report."""
    server = serving.ServerProcess(mode)
    try:
        setups.append(server.setup_s)
        serving.warm(server.port, pool)
        server.start_window()
        loop = serving.OpenLoop(server.port, [json.dumps(r.to_json()).encode() for r in requests])
        loop.run(arrivals)
        report = server.stop()
    finally:
        server.kill()
    return loop, report


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    pool = serving.spec_pool(seed)
    arrivals = serving.schedule(seed, seconds)
    requests = [
        replace(pool[pick][0], id=f"serve-{k}") for k, (_, pick) in enumerate(arrivals)
    ]
    setups: list[float] = []
    if not trace:
        for _ in range(SERVE_SETUP_REPEATS - 1):
            server = serving.ServerProcess(0)
            setups.append(server.setup_s)
            server.stop()
    loop, report = serve_pass(1 if trace else 0, pool, requests, arrivals, setups)
    problems = serving.check_served(pool, requests, loop)
    sent = len(requests)
    ok = [o for o in loop.results if o["status"] == 200]
    latency, details = latency_metrics([o["latency_s"] for o in ok], serving.SLO_MS, sent)
    stats = quality(
        [serving.parse_response(o["body"]) for o in ok], sent,
        simulations=report["engine"]["spice_simulations"],
    )
    details |= {
        "sent": sent, "ok": len(ok), "rate_rps": serving.RATE_RPS, "window_s": loop.window_s,
        "lag_ms_max": max(o["lag_s"] for o in loop.results) * 1e3,
        "backlog_grew": backlog_grew(loop),
        "server": {k: report["server"][k] for k in ("batches", "flush_reasons", "rejected_queue_full")},
    }
    if not trace:
        metrics = {
            "throughput_rps": metric(len(ok) / loop.window_s, "1/s"),
            **latency,
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        }
        return result(problems, sent, stats, metrics, details)

    # Traced pass: same schedule against a fresh server spanning every layer.
    traced_loop, traced = serve_pass(2, pool, requests, arrivals, setups)
    problems += serving.check_served(pool, requests, traced_loop)
    spans = traced["spans"]
    details["spans"] = span_table(spans["self"], spans["calls"])
    metrics = {
        **layer_metrics(spans["self"], spans["calls"], spans["counters"]),
        **serve_layer_metrics(traced, traced_loop),
        **trace_metrics(
            spans["self"], sum(report["spans"]["self"].values()),
            sum(spans["self"].values()), traced["engine"],
        ),
        # A served request blocks on its queue wait and its batch's
        # handler time; the rest of its latency is HTTP.
        "trace.coverage": metric(
            (sum(spans["queue_waits"]) + spans["handled_s"])
            / sum(o["latency_s"] for o in ok),
            "ratio",
        ),
        **stats,
        "latency_tail_pct": metric(details["latency_tail_pct"], "pct"),
    }
    return result(problems, sent, stats, metrics, details)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, SERVE])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps({"fingerprint": fingerprint(), "workload": args.workload, "seed": args.seed}))
    if args.workload == SERVE:
        outcome = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_offline(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
