"""The serving process of the serve-open-loop workload.

Run as ``python3 perfbench/server.py MODE`` from the repository root.
It builds the copilot-ac oracle, wraps it in a ``SizingEngine`` with the
shipped defaults (result cache 256) and serves it through
``SizingServer`` with the shipped micro-batcher defaults (batch 16,
20 ms wait).  MODE 0 adds nothing; MODE 1 puts one span around the
batch handler; MODE 2 also spans every layer the engine reaches.

Protocol on the standard streams: once listening, the process prints
``{"port": N, "setup_s": S}``, its set-up time at reference speed.  A ``window`` line on its standard input starts the
measured window: spans and counters recorded so far (the warm-up) are
dropped.  Closing its standard input stops it: it drains the queue,
prints one JSON report of the window (serving counters, engine counters,
peak RSS and, in modes 1 and 2, the span summary) and exits.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from calibration import Sampler  # noqa: E402


def since(after: dict, before: dict) -> dict:
    """Counters of ``after`` minus those of ``before``, one level deep
    (latency percentiles, which do not subtract, are dropped)."""
    delta = {}
    for key, value in after.items():
        if isinstance(value, dict) and key != "latency_ms":
            delta[key] = since(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            delta[key] = value - before.get(key, 0)
    return delta


def main(mode: int) -> None:
    with Sampler() as sampler:
        start = time.perf_counter()
        # Importing the program is part of the server's set-up.
        from repro.serve.app import create_server, serve_forever_in_thread
        from repro.service import SizingEngine

        from oracle import build_oracle
        from spans import Tracer, install_queue_stamps, install_runtime_layers, serve_handler
        from workloads import ORACLE_DESIGNS, SYSTEM_SEED, CopilotAC

        engine = SizingEngine(build_oracle(CopilotAC().topologies, ORACLE_DESIGNS, SYSTEM_SEED))
        tracer = Tracer() if mode else None
        handler = serve_handler(tracer, engine) if tracer else None
        if mode == 2:
            install_runtime_layers(tracer, engine)
        server = create_server(engine, handler=handler)
        if tracer:
            install_queue_stamps(tracer, server)
        end = time.perf_counter()
    serve_forever_in_thread(server)
    ready = {"port": server.server_address[1], "setup_s": sampler.reference_seconds(start, end)}
    print(json.dumps(ready), flush=True)

    before = {"server": {}, "engine": {}}
    if sys.stdin.readline().strip() == "window":
        before = {"server": server.serve_stats.as_dict(), "engine": engine.stats.as_dict()}
        if tracer:
            tracer.reset()
    sys.stdin.read()
    server.shutdown_gracefully(timeout=20)
    report = {
        "server": since(server.serve_stats.as_dict(), before["server"]),
        "engine": since(engine.stats.as_dict(), before["engine"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        report["spans"] = {
            "self": tracer.self_times(),
            "calls": dict(tracer.calls()),
            "counters": dict(tracer.counters),
            "queue_waits": tracer.queue_waits,
            "handled_s": tracer.handled_s[0],
        }
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]))
