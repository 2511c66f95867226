"""In-memory spans around the program's layer boundaries.

The benchmark wraps the public functions of each layer from its own
files: :meth:`Tracer.wrap` swaps a module or class attribute for a
wrapper that records one span per call (name, start, end, parent) and,
where a layer has a useful count, bumps counters from the call's
arguments and result.  :meth:`Tracer.uninstall` puts every original
back.  Spans stay in memory; :meth:`Tracer.self_times` turns them into
per-layer busy (self) times once the run is over.

A span's self time is its duration minus the time its child spans cover.
Children are closed before their parent on the same thread, so the time
they cover is the sum of their durations.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict

__all__ = [
    "Tracer",
    "install_queue_stamps",
    "install_runtime_layers",
    "install_setup_layers",
    "serve_handler",
]


class Tracer:
    """Span recorder with per-thread parent tracking."""

    def __init__(self):
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def count(self, **deltas: float) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self.counters[name] += delta

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper; ``on_result(args,
        kwargs, result)`` may count what the call did."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        function = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        replacement = staticmethod(traced) if isinstance(original, staticmethod) else traced
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def reset(self) -> None:
        """Forget every span and count recorded so far (call while no
        wrapped call is in flight)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            if hasattr(self, "queue_waits"):
                self.queue_waits.clear()
                self.handled_s[0] = 0.0

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name (seconds)."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is not None:
                totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)


# ----------------------------------------------------------------------
# Layer installs
# ----------------------------------------------------------------------
def install_setup_layers(tracer: Tracer) -> None:
    """Spans over the set-up layers: dataset generation and training."""
    from repro.core import pipeline
    from repro.transformer import Trainer

    def datagen(args, kwargs, dataset):
        tracer.count(**{
            "datagen.attempted": dataset.stats.attempted,
            "datagen.accepted": dataset.stats.accepted,
        })

    tracer.wrap(pipeline, "generate_dataset", "datagen", datagen)
    tracer.wrap(Trainer, "fit", "trainer")


def install_runtime_layers(tracer: Tracer, engine) -> None:
    """Spans over every layer ``SizingEngine.size_batch`` reaches."""
    from repro.core.bundle import SizingModel
    from repro.service import engine as engine_module
    from repro.service.cache import ResultCache
    from repro.solvers.backend import BatchedBackend
    from repro.spice import linsolve
    from repro.topologies import base
    from repro.transformer import Transformer

    def predicted(args, kwargs, outputs):
        rows = outputs.values() if isinstance(outputs, dict) else [[outputs]]
        parsed = [item[0].complete for row in rows for item in row]
        tracer.count(**{"model.rows": len(parsed), "model.parse_ok": sum(parsed)})

    def decoded(args, kwargs, outputs):
        model = args[0]
        max_len = kwargs.get("max_len", args[5] if len(args) > 5 else None)
        limit = min(max_len or model.config.max_len, model.config.max_len)
        tracer.count(**{
            "transformer.decode.tokens": sum(len(ids) for ids in outputs),
            "transformer.decode.rows": len(outputs),
            "transformer.decode.eos_rows": sum(len(ids) < limit - 1 for ids in outputs),
        })

    def estimated(args, kwargs, estimate):
        accepted = estimate.spread() <= engine.max_candidate_spread
        tracer.count(**{"lut.estimate_width.calls": 1, "lut.accepted": int(accepted)})

    def measured(args, kwargs, outcomes):
        corners = kwargs.get("corners")
        if corners is None:
            total, ok = len(outcomes), sum(o.ok for o in outcomes)
        else:
            total = sum(len(s.outcomes) for s in outcomes)
            ok = sum(s.n_ok for s in outcomes)
        tracer.count(**{"solvers.candidates": total, "solvers.ok": ok})

    def solved_dc(args, kwargs, solutions):
        iterations = [s.iterations for s in solutions if hasattr(s, "iterations")]
        tracer.count(**{
            "spice.dc.circuits": len(solutions),
            "spice.dc.converged": len(iterations),
            "spice.dc.newton_iters": sum(iterations),
        })

    def solved_ac(args, kwargs, results):
        tracer.count(**{"spice.ac.points": sum(len(r.frequencies) for r in results)})

    def solved_tran(args, kwargs, results):
        tracer.count(**{"spice.tran.runs": len(results)})

    def looked_up(args, kwargs, hit):
        tracer.count(**{"service.cache.gets": 1, "service.cache.hits": int(hit is not None)})

    tracer.wrap(engine_module.SizingEngine, "size_batch", "service")
    model_class = type(engine.model)
    if "predict_params_many" in model_class.__dict__ and model_class is not SizingModel:
        # A stand-in model (the oracle): its lookup is not engine time.
        tracer.wrap(model_class, "predict_params_many", "oracle", predicted)
    else:
        tracer.wrap(SizingModel, "predict_params_many", "model", predicted)
        tracer.wrap(SizingModel, "predict_params", "model", predicted)
        tracer.wrap(Transformer, "greedy_decode", "transformer.decode", decoded)
        tracer.wrap(Transformer, "encode", "transformer.encode")
    tracer.wrap(engine_module, "estimate_width", "lut.estimate_width", estimated)
    tracer.wrap(BatchedBackend, "measure_many", "solvers.measure_many", measured)
    tracer.wrap(base, "solve_dc_many", "spice.dc", solved_dc)
    tracer.wrap(base, "run_ac_many", "spice.ac", solved_ac)
    tracer.wrap(base, "run_tran_many", "spice.tran", solved_tran)
    tracer.wrap(base, "extract_metrics", "spice.metrics")
    tracer.wrap(base, "extract_tran_metrics", "spice.metrics")
    tracer.wrap(linsolve, "solve_stacked", "spice.linsolve")
    tracer.wrap(ResultCache, "get", "service.cache", looked_up)
    tracer.wrap(ResultCache, "put", "service.cache")


def serve_handler(tracer: Tracer, engine):
    """The server's batch handler with a span, plus per-request queue wait.

    Pass the result as ``SizingServer(handler=...)`` and then call
    :func:`install_queue_stamps`: ``MicroBatcher.submit`` stamps when
    each request was queued and the handler reads the stamp when its
    batch starts.
    """
    tracer.queued = {}
    tracer.queue_waits = []
    #: Handler time summed over the requests it answered.
    tracer.handled_s = [0.0]

    def handler(requests):
        now = time.monotonic()
        tracer.queue_waits.extend(now - tracer.queued.pop(id(r), now) for r in requests)
        responses = engine.size_batch(requests)
        tracer.handled_s[0] += len(requests) * (time.monotonic() - now)
        return responses

    holder = type("ServeHandler", (), {"run": staticmethod(handler)})
    tracer.wrap(holder, "run", "serve.handler")
    return holder.run


def install_queue_stamps(tracer: Tracer, server) -> None:
    batcher = server.batcher
    submit = batcher.submit

    def stamped_submit(request, deadline_ms=None):
        ticket = submit(request, deadline_ms=deadline_ms)
        tracer.queued[id(request)] = ticket.enqueued_at
        return ticket

    batcher.submit = stamped_submit
