"""The serve-open-loop workload: HTTP at a fixed arrival rate.

The server runs in its own process (``server.py``).  One client thread
runs an asyncio open loop: request *k* is due at a Poisson arrival time
drawn from the run's seed and is sent then, on its own connection,
whether or not earlier requests have been answered.  Latency runs from
when a request was due, so a stall also charges the requests queued
behind it.  A warm-up first asks for each of ``HOT`` copilot-ac specs
once; in the window those specs repeat with Zipf skew, so the result
cache and the micro-batcher's flush carry the latency.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.service import SizingEngine, SizingResponse

from oracle import build_oracle
from workloads import ORACLE_DESIGNS, SYSTEM_SEED, CopilotAC, check_responses

HERE = Path(__file__).resolve().parent
#: Mean arrival rate of the open loop (requests per second).
RATE_RPS = 24.0
#: Distinct specs: the warm-up caches them, the window repeats them
#: with Zipf skew.
HOT = 16
ZIPF_S = 1.1
#: A request meets the service level when it returns 200 within this.
SLO_MS = 1000.0
#: How long to wait for answers after the last request was sent, and
#: for a stopping server to drain and report.
DRAIN_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """``server.py`` in a child process, listening once constructed.

    ``setup_s`` is the server's own set-up time at reference speed.
    """

    def __init__(self, mode: int):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(mode)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            ready = json.loads(line)
            self.port, self.setup_s = ready["port"], ready["setup_s"]
        except (ValueError, KeyError):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}") from None

    def start_window(self) -> None:
        """Tell the server the measured window starts now."""
        self.process.stdin.write("window\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        """Drain and stop the server; returns its final report."""
        try:
            output, _ = self.process.communicate(timeout=STOP_TIMEOUT_S)
            return json.loads(output.strip().splitlines()[-1])
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def spec_pool(seed: int) -> list:
    """``HOT`` (request, direct response) pairs: copilot-ac specs just
    under a measured design, with the response a fresh engine gives.

    The benchmark process builds its own copy of the server's oracle
    (outside any timed region) for this; the served answers must equal
    these direct ones.
    """
    workload = CopilotAC()
    oracle = build_oracle(workload.topologies, ORACLE_DESIGNS, SYSTEM_SEED)
    batches = workload.batches(oracle, seed)
    # The first request per topology in a batch is the "just under" class.
    requests = [r for _ in range(4) for r in next(batches)[:: len(workload.classes)]][:HOT]
    return list(zip(requests, SizingEngine(oracle).size_batch(requests), strict=True))


def schedule(seed: int, seconds: float) -> list[tuple[float, int]]:
    """(due time, pool index) per arrival, in time order.

    ``RATE_RPS * seconds`` arrivals at uniform random times: a Poisson
    process conditioned on its count, so every run sends the same number
    of requests.  Each asks for one of the ``HOT`` specs, Zipf-skewed.
    """
    rng = np.random.default_rng(seed + 1)
    count = round(RATE_RPS * seconds)
    times = np.sort(rng.uniform(0.0, seconds, count))
    weights = 1.0 / np.arange(1, HOT + 1) ** ZIPF_S
    picks = rng.choice(HOT, size=count, p=weights / weights.sum())
    return [(float(t), int(pick)) for t, pick in zip(times, picks, strict=True)]


def warm(port: int, pool) -> None:
    """Ask for each spec once, one at a time, before the window: the
    server then runs as one that has been up for a while, its result
    cache holding the popular specs."""
    for request, _ in pool:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request("POST", "/v1/size", json.dumps(request.to_json()))
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"warm-up request answered {response.status}")
        finally:
            connection.close()


class OpenLoop:
    """One asyncio client: sends on schedule, records what came back."""

    def __init__(self, port: int, bodies: list[bytes]):
        self.port = port
        self.bodies = bodies
        self.results: list[dict] = []
        self.inflight = 0
        #: (seconds since start, requests in flight) at each send.
        self.backlog: list[tuple[float, int]] = []

    async def _send(self, index: int, due: float, body: bytes, origin: float) -> None:
        loop = asyncio.get_running_loop()
        sent = loop.time()
        self.inflight += 1
        self.backlog.append((sent - origin, self.inflight))
        outcome = {"index": index, "lag_s": sent - (origin + due), "status": None, "body": None}
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            head = (
                "POST /v1/size HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            )
            writer.write(head.encode() + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            header, _, payload = raw.partition(b"\r\n\r\n")
            outcome["status"] = int(header.split(b" ", 2)[1])
            outcome["body"] = payload
        except (OSError, ValueError, IndexError) as error:
            outcome["error"] = f"{type(error).__name__}: {error}"
        outcome["latency_s"] = loop.time() - (origin + due)
        self.inflight -= 1
        self.results.append(outcome)

    async def _run(self, arrivals) -> None:
        loop = asyncio.get_running_loop()
        origin = loop.time()
        tasks = []
        for index, (due, pick) in enumerate(arrivals):
            delay = origin + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._send(index, due, self.bodies[index], origin)))
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
        self.window_s = loop.time() - origin

    def run(self, arrivals) -> None:
        asyncio.run(self._run(arrivals))


def parse_response(body: bytes) -> SizingResponse:
    return SizingResponse.from_json(json.loads(body))


def _comparable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("request_id", "wall_time_s", "cached")}


def check_served(pool, requests, loop: OpenLoop) -> list[str]:
    """Gate: each 200 response equals the direct ``size_batch`` response
    of its spec from a fresh engine, and those direct responses pass the
    scalar re-measure gate."""
    problems = check_responses([r for r, _ in pool], [d for _, d in pool])
    by_spec = {(r.topology, r.spec): d.to_json() for r, d in pool}
    for outcome in loop.results:
        if outcome["status"] != 200:
            continue
        request = requests[outcome["index"]]
        served = parse_response(outcome["body"])
        if served.request_id != request.id:
            problems.append(f"{request.id}: answered as {served.request_id}")
        if _comparable(served.to_json()) != _comparable(by_spec[(request.topology, request.spec)]):
            problems.append(f"{request.id}: served response differs from a direct size_batch")
    return problems
