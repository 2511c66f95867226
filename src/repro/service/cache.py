"""LRU result cache keyed by (topology, quantized spec).

The encoder serializes specifications to ~3 significant digits, so two
specs that agree after the same quantization produce the *identical*
encoder sequence and therefore the identical decode.  The Stage IV
verdict, however, is judged against the request's *exact* targets, so a
cached response only transfers to a near-duplicate request when it can
be re-validated: either the specs match exactly (deterministic flow ⇒
identical outcome), or the cached design's measured metrics provably
satisfy the new request's own targets.  Anything else is a miss.

The cache is safe under concurrent ``size_batch`` callers: every LRU
mutation (the ``move_to_end`` on hit, inserts, evictions) and the
hit/miss counters run under one internal lock, so the serving layer's
worker threads and its ``/stats`` reader can share one engine.
"""

from __future__ import annotations

import json
import math
import pickle
import sqlite3
import threading
from collections import OrderedDict
from contextlib import closing
from dataclasses import replace
from collections.abc import Hashable
from pathlib import Path
from typing import Any

from ..core.specs import DesignSpec
from ..devices import Corner
from ..topologies import binding_corner
from .requests import SizingRequest, SizingResponse

__all__ = ["ResultCache", "SharedResultCache", "quantize_spec", "transferable_response"]


def quantize_spec(value: float, sig_digits: int = 3) -> float:
    """Round to ``sig_digits`` significant digits (the encoder's own
    resolution, see :mod:`repro.nlp.numformat`).

    Non-finite inputs are rejected loudly: an ``inf``/``nan`` spec value
    would otherwise propagate into a cache key (``inf`` survives ``%g``
    formatting, and ``nan != nan`` makes the key unmatchable), poisoning
    lookups instead of failing at the bad request.
    """
    if not math.isfinite(value):
        raise ValueError(
            f"cannot quantize non-finite spec value {value!r}: "
            "cache keys require finite targets"
        )
    return float(f"{value:.{sig_digits}g}")


def transferable_response(
    request: SizingRequest, cached_spec: DesignSpec, response: SizingResponse
) -> SizingResponse | None:
    """The cached response if its verdict carries over to ``request``.

    Shared by :class:`ResultCache` and :class:`SharedResultCache` so the
    two stores apply the identical transfer rule: exact-spec match
    replays outright (the flow is deterministic), and a near-duplicate
    only transfers when the cached design's *measured* metrics satisfy
    the new request's exact targets — at every corner, with the binding
    corner re-ranked against the new targets.
    """
    if cached_spec == request.spec:
        # Identical request: the flow is deterministic, outcome included.
        return response
    if response.success and response.metrics is not None:
        # Near-duplicate: the cached design measurably meets the new
        # exact targets too, so success transfers.  Corner-aware
        # responses must re-validate *every* corner — the headline
        # ``metrics`` is only the binding worst corner by total
        # shortfall, which does not dominate per metric.
        if response.corner_metrics:
            if all(
                request.spec.satisfied(metrics, rel_tol=request.rel_tol)
                for metrics in response.corner_metrics.values()
            ):
                # The binding corner is spec-dependent: re-rank the
                # per-corner measurements against the *new* request's
                # exact targets so worst_corner/headline metrics are
                # right for this request, not the cached one.
                worst_name, worst_metrics = binding_corner(
                    request.spec, response.corner_metrics
                )
                return replace(
                    response, worst_corner=worst_name, metrics=worst_metrics
                )
        elif request.spec.satisfied(response.metrics, rel_tol=request.rel_tol):
            return response
    return None


class ResultCache:
    """Bounded LRU mapping quantized requests to finished responses."""

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be positive; use no cache instead of size 0")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, tuple[DesignSpec, SizingResponse]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Serializes LRU mutation and counter updates across threads.
        self._lock = threading.Lock()

    @staticmethod
    def key(request: SizingRequest) -> Hashable:
        """Cache key: topology + quantized targets + loop parameters.

        ``method`` and ``budget`` are part of the key for safety, although
        the engine only consults the cache for deterministic copilot
        requests (stochastic solver results must not be replayed).  The
        resolved ``corners`` tuple is part of the key too: a worst-case
        verdict at one corner set says nothing about another, so requests
        differing only in corners must never collide (pinned by tests).
        So are the quantized transient targets (``None`` when unset) and
        the ``analyses`` selector: a verdict judged against different
        time-domain targets -- or measured by a different pipeline --
        must never transfer.
        """
        return (
            request.topology,
            quantize_spec(request.spec.gain_db),
            quantize_spec(request.spec.f3db_hz),
            quantize_spec(request.spec.ugf_hz),
            tuple(
                None if value is None else quantize_spec(value)
                for value in (
                    request.spec.slew_v_per_s,
                    request.spec.settling_time_s,
                    request.spec.overshoot_frac,
                )
            ),
            request.analyses,
            request.max_iterations,
            request.rel_tol,
            request.method,
            request.budget,
            request.corners,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, request: SizingRequest) -> SizingResponse | None:
        """The cached response re-addressed to ``request``, or ``None``."""
        key = self.key(request)
        with self._lock:
            entry = self._entries.get(key)
            response = None if entry is None else transferable_response(request, *entry)
            if response is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return response.with_request_id(request.id, cached=True)

    def put(self, request: SizingRequest, response: SizingResponse) -> None:
        with self._lock:
            key = self.key(request)
            self._entries[key] = (request.spec, response)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def as_dict(self) -> dict[str, Any]:
        """Atomic counters snapshot for the serving layer's ``/stats``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }


def _json_safe_key(key: Hashable) -> Any:
    """Recursively convert a cache key tuple into JSON-dumpable values."""
    if isinstance(key, tuple):
        return [_json_safe_key(part) for part in key]
    if isinstance(key, Corner):
        return key.to_json()
    return key


class SharedResultCache:  # checks: process-shared
    """Disk-backed LRU result cache shared by concurrent processes.

    The same quantized key and transfer rule as :class:`ResultCache`,
    stored in a sqlite database so every sharding worker (and the parent,
    and future server restarts) sees one cache: a spec sized via worker A
    hits when re-requested via worker B.  Responses are pickled whole, so
    a cross-process hit is bit-identical to the original response.

    Marked ``process-shared``: the instance is plain data (a path and a
    size bound).  Every operation opens its own short-lived connection —
    holding a connection (or a lock) on the instance would either break
    pickling into spawn workers or silently share a non-fork-safe handle,
    exactly what the fork-safety rule polices.  Concurrency is delegated
    to sqlite (WAL + busy timeout + ``BEGIN IMMEDIATE`` transactions).

    When two workers race on the same key the store is last-writer-wins:
    both compute (the benign double-compute window — the key was absent
    when both probed), both ``put``, and the second ``INSERT OR
    REPLACE`` overwrites the first with an equivalent entry.  Hit/miss
    counters live in the database too, so accounting stays exact across
    the whole pool rather than per process.
    """

    def __init__(self, directory: str | Path, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError("maxsize must be positive; use no cache instead of size 0")
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        self.directory = str(path)
        self.path = str(path / "cache.sqlite")
        self.maxsize = maxsize
        with closing(self._connect()) as conn:
            conn.executescript(
                """
                CREATE TABLE IF NOT EXISTS entries (
                    key TEXT PRIMARY KEY,
                    spec BLOB NOT NULL,
                    response BLOB NOT NULL,
                    seq INTEGER NOT NULL
                );
                CREATE INDEX IF NOT EXISTS entries_seq ON entries(seq);
                CREATE TABLE IF NOT EXISTS counters (
                    name TEXT PRIMARY KEY,
                    value INTEGER NOT NULL
                );
                INSERT OR IGNORE INTO counters(name, value) VALUES
                    ('hits', 0), ('misses', 0), ('clock', 0);
                """
            )
            conn.commit()

    # ------------------------------------------------------------------
    @staticmethod
    def text_key(request: SizingRequest) -> str:
        """Canonical JSON form of :meth:`ResultCache.key` (sqlite-friendly)."""
        return json.dumps(
            _json_safe_key(ResultCache.key(request)),
            allow_nan=False,
            sort_keys=True,
        )

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=10.0, isolation_level=None)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    @staticmethod
    def _bump(conn: sqlite3.Connection, name: str, delta: int) -> int:
        row = conn.execute(
            "UPDATE counters SET value = value + ? WHERE name = ? RETURNING value",
            (delta, name),
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with closing(self._connect()) as conn:
            row = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
            return int(row[0])

    def get(self, request: SizingRequest) -> SizingResponse | None:
        """The cached response re-addressed to ``request``, or ``None``."""
        key = self.text_key(request)
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT spec, response FROM entries WHERE key = ?", (key,)
                ).fetchone()
                response = None
                if row is not None:
                    response = transferable_response(
                        request, pickle.loads(row[0]), pickle.loads(row[1])
                    )
                if response is None:
                    self._bump(conn, "misses", 1)
                else:
                    seq = self._bump(conn, "clock", 1)
                    conn.execute(
                        "UPDATE entries SET seq = ? WHERE key = ?", (seq, key)
                    )
                    self._bump(conn, "hits", 1)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        if response is None:
            return None
        return response.with_request_id(request.id, cached=True)

    def put(self, request: SizingRequest, response: SizingResponse) -> None:
        key = self.text_key(request)
        spec_blob = pickle.dumps(request.spec, protocol=pickle.HIGHEST_PROTOCOL)
        response_blob = pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                seq = self._bump(conn, "clock", 1)
                conn.execute(
                    "INSERT OR REPLACE INTO entries(key, spec, response, seq) "
                    "VALUES (?, ?, ?, ?)",
                    (key, spec_blob, response_blob, seq),
                )
                conn.execute(
                    "DELETE FROM entries WHERE key IN ("
                    "  SELECT key FROM entries ORDER BY seq ASC"
                    "  LIMIT max(0, (SELECT COUNT(*) FROM entries) - ?)"
                    ")",
                    (self.maxsize,),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def clear(self) -> None:
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute("DELETE FROM entries")
                conn.execute("UPDATE counters SET value = 0")
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def as_dict(self) -> dict[str, Any]:
        """Pool-wide counters snapshot for the serving layer's ``/stats``."""
        with closing(self._connect()) as conn:
            counters = dict(
                conn.execute(
                    "SELECT name, value FROM counters WHERE name IN ('hits', 'misses')"
                ).fetchall()
            )
            size = int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
        return {
            "hits": int(counters.get("hits", 0)),
            "misses": int(counters.get("misses", 0)),
            "size": size,
            "maxsize": self.maxsize,
            "shared": True,
            "path": self.path,
        }
