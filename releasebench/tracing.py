"""Span timing around the program's public calls, for the traced run.

:class:`Tracer` replaces chosen public functions of the program with thin
wrappers that time each call and keep a per-thread stack of open spans, so
a call's self time is its duration minus the time of the traced calls made
inside it.  Spans are folded into per-thread totals as they close (keeping
every span of a run would take millions of entries on warm releases); the
totals are merged when the run ends.  Counts of work are taken at the same
boundaries, from the call's arguments and return value.

A span opened by ``append``-path calls (``ReleaseEngine.append`` and the
calls under it) is booked to the ``append`` kind, everything else to the
``release`` kind, so per-release and per-append figures stay apart.

Requests that go through the server's coalescer cross threads: the handler
thread parks on a future while the flusher admits and executes the batch.
The tracer therefore also records, per request, when it entered the
coalescer, when its flush began and when its future resolved, so the
served workload can split each request's latency into the HTTP edge, the
queue wait and its share of the flush.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Root calls whose spans are booked to the ``append`` kind.
APPEND_ROOTS = {"append", "prepare_append", "commit_append", "invalidate_matching"}

class _ThreadTotals:
    def __init__(self) -> None:
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.stack: List[list] = []
        self.flush_start: Optional[float] = None


class Tracer:
    """Install with :meth:`install`; spans are kept only while
    :attr:`recording` is true, which the workloads switch on around timed
    operations only, while the program is otherwise idle."""

    def __init__(self) -> None:
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadTotals] = []
        #: (record_id, seed) -> [entered coalescer, flush began, resolved]
        self.coalesced: Dict[Tuple[int, int], List[Optional[float]]] = {}
        #: (requests in the flush, flush start -> execution end) per flush
        self.flushes: List[Tuple[int, float]] = []

    # ----------------------------------------------------------- installing

    def install(self) -> "Tracer":
        """Wrap every traced public call of the program."""
        c = _Counts
        plan = [
            ("repro.outliers.base", "OutlierDetector", "outlier_positions", "outliers", c.detector),
            ("repro.data.masks", "PredicateMaskIndex", "population_masks", "masks", c.masks),
            ("repro.data.masks", "PredicateMaskIndex", "positions_from_packed", "masks", None),
            ("repro.data.masks", "PredicateMaskIndex", "prepare_append", "masks", None),
            ("repro.data.masks", "PredicateMaskIndex", "commit_append", "masks", None),
            ("repro.core.profiles", "ProfileStore", "get", "profiles", c.profile_get),
            ("repro.core.profiles", "ProfileStore", "put", "profiles", None),
            ("repro.core.profiles", "ProfileStore", "invalidate_matching", "profiles", c.invalidate),
            ("repro.core.verification", "OutlierVerifier", "is_matching_many", "verifier", c.matching_many),
            ("repro.core.verification", "OutlierVerifier", "is_matching", "verifier", c.matching),
            ("repro.core.verification", "OutlierVerifier", "profiles", "verifier", None),
            ("repro.core.utility", "UtilityFunction", "scores", "utility", c.scores),
            ("repro.core.sampling.bfs", "BFSSampler", "sample", "sampling", c.sample),
            ("repro.core.starting", None, "find_starting_context", "starting", None),
            ("repro.service.engine", None, "find_starting_context", "starting", None),
            ("repro.mechanisms.exponential", "ExponentialMechanism", "select", "mechanisms", c.select),
            ("repro.service.engine", "ReleaseEngine", "submit", "service", None),
            ("repro.service.engine", "ReleaseEngine", "execute", "service", None),
            ("repro.service.engine", "ReleaseEngine", "execute_many", "service", self._flush_end),
            ("repro.service.engine", "ReleaseEngine", "append", "service", None),
            ("repro.server.app", "PCORServer", "release", "server", None),
            ("repro.server.app", "PCORServer", "append", "server", None),
            ("repro.server.batching", "ReleaseCoalescer", "submit", "batching", self._enqueued),
            ("repro.server.tenants", "TenantBudgets", "admit_many", "tenants", self._flush_begin),
            ("repro.server.ledger", "JsonlLedgerStore", "append_many", "ledger", c.commit),
        ]
        for module_name, owner_name, attr, layer, hook in plan:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            setattr(owner, attr, self._wrap(original, layer, attr, hook))
        return self

    def _totals(self) -> _ThreadTotals:
        try:
            return self._local.totals
        except AttributeError:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
            return totals

    def _wrap(self, fn: Callable, layer: str, attr: str, hook: Optional[Callable]) -> Callable:
        tracer = self
        clock = time.perf_counter
        root_kind = "append" if attr in APPEND_ROOTS else "release"

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            totals = tracer._totals()
            stack = totals.stack
            parent = stack[-1] if stack else None
            kind = parent[2] if parent is not None else root_kind
            frame = [layer, 0.0, kind]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                totals.self_s[(layer, kind)] += (t1 - t0) - frame[1]
            if hook is not None:
                hook(totals, kind, args, result, parent[0] if parent else None, t0, t1)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------- coalescer bookkeeping

    def _enqueued(self, totals, kind, args, future, parent, t0, t1) -> None:
        request = args[3]
        entry: List[Optional[float]] = [t0, None, None]
        self.coalesced[(request.record_id, request.seed)] = entry

        def resolved(_future, entry=entry) -> None:
            entry[2] = time.perf_counter()

        future.add_done_callback(resolved)

    def _flush_begin(self, totals, kind, args, result, parent, t0, t1) -> None:
        if parent is None:
            totals.flush_start = t0

    def _flush_end(self, totals, kind, args, result, parent, t0, t1) -> None:
        start = totals.flush_start
        if parent is not None or start is None:
            return
        requests = list(args[1])
        for request in requests:
            entry = self.coalesced.get((request.record_id, request.seed))
            if entry is not None:
                entry[1] = start
        self.flushes.append((len(requests), t1 - start))
        totals.flush_start = None

    def split(self, key: Tuple[int, int], latency_s: float) -> Tuple[float, float]:
        """(HTTP edge, queue wait) of one coalesced release: its latency as
        the client saw it minus its time inside the coalescer, and the time
        from entering the coalescer to its flush."""
        entered, flushed, resolved = self.coalesced[key]
        return latency_s - (resolved - entered), flushed - entered

    # --------------------------------------------------------------- totals

    def merged(self) -> Tuple[Dict[Tuple[str, str], float], Dict[Tuple[str, str], float]]:
        """(self seconds, counts), each keyed by (name, kind), all threads."""
        self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        counts: Dict[Tuple[str, str], float] = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for key, value in totals.self_s.items():
                self_s[key] += value
            for key, value in totals.counts.items():
                counts[key] += value
        return self_s, counts


class _Counts:
    """Work counted at span boundaries: ``hook(totals, kind, args, result,
    parent_layer, t0, t1)``; ``args[0]`` is ``self`` for methods."""

    @staticmethod
    def detector(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("outliers.runs", kind)] += 1
        totals.counts[("outliers.records_scanned", kind)] += len(args[1])

    @staticmethod
    def masks(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("masks.contexts_evaluated", kind)] += len(args[1])

    @staticmethod
    def profile_get(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("profiles.reads", kind)] += 1
        if result is None:
            totals.counts[("profiles.misses", kind)] += 1

    @staticmethod
    def invalidate(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("profiles.invalidated", kind)] += result

    @staticmethod
    def matching_many(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("verifier.queries", kind)] += len(args[1])

    @staticmethod
    def matching(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("verifier.queries", kind)] += 1
        if parent == "starting":
            totals.counts[("starting.probes", kind)] += 1

    @staticmethod
    def scores(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("utility.calls", kind)] += 1
        totals.counts[("utility.contexts_scored", kind)] += len(args[1])

    @staticmethod
    def sample(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("sampling.steps", kind)] += result.stats.steps
        totals.counts[("sampling.contexts_examined", kind)] += result.stats.contexts_examined

    @staticmethod
    def select(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("mechanisms.draws", kind)] += 1

    @staticmethod
    def commit(totals, kind, args, result, parent, t0, t1) -> None:
        totals.counts[("ledger.commits", kind)] += 1


def layer_metrics(
    tracer: Tracer,
    releases: int,
    appends: int,
    release_latency_s: float,
    edges: Optional[List[Tuple[float, float]]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Times and counts are per completed release unless named for appends
    (``*append_ms``, ``profiles.invalidated``, ``profiles.invalidate_ms``:
    per append) or for commits (``ledger.commit_ms``: per commit).

    ``edges`` holds, for a served run, each release's HTTP edge and queue
    wait (:meth:`Tracer.split`).  ``release_latency_s`` is the sum of the
    latencies of the traced releases.
    """
    self_s, counts = tracer.merged()
    per_release = 1.0 / releases if releases else 0.0
    per_append = 1.0 / appends if appends else 0.0

    def ms(layer: str, kind: str = "release", scale: float = per_release) -> float:
        return self_s.get((layer, kind), 0.0) * 1000.0 * scale

    def count(name: str, kind: str = "release", scale: float = per_release) -> float:
        return counts.get((name, kind), 0.0) * scale

    reads = counts.get(("profiles.reads", "release"), 0.0)
    misses = counts.get(("profiles.misses", "release"), 0.0)
    commits = counts.get(("ledger.commits", "release"), 0.0)
    out = {
        "outliers.runs": count("outliers.runs"),
        "outliers.records_scanned": count("outliers.records_scanned"),
        "outliers.self_ms": ms("outliers"),
        "masks.contexts_evaluated": count("masks.contexts_evaluated"),
        "masks.self_ms": ms("masks"),
        "masks.append_ms": ms("masks", "append", per_append),
        "profiles.reads": count("profiles.reads"),
        "profiles.misses": count("profiles.misses"),
        "profiles.hit_fraction": 1.0 - misses / reads if reads else 0.0,
        "profiles.self_ms": ms("profiles"),
        "profiles.invalidated": count("profiles.invalidated", "append", per_append),
        "profiles.invalidate_ms": ms("profiles", "append", per_append),
        "verifier.queries": count("verifier.queries"),
        "verifier.self_ms": ms("verifier"),
        "utility.calls": count("utility.calls"),
        "utility.contexts_scored": count("utility.contexts_scored"),
        "utility.self_ms": ms("utility"),
        "sampling.steps": count("sampling.steps"),
        "sampling.contexts_examined": count("sampling.contexts_examined"),
        "sampling.self_ms": ms("sampling"),
        "starting.probes": count("starting.probes"),
        "starting.self_ms": ms("starting"),
        "mechanisms.draws": count("mechanisms.draws"),
        "mechanisms.self_ms": ms("mechanisms"),
        "service.self_ms": ms("service"),
        "service.append_ms": ms("service", "append", per_append),
        "server.self_ms": 0.0,
        "batching.queue_wait_ms": 0.0,
        "batching.batch_size": 0.0,
        "batching.flushes": len(tracer.flushes) * per_release,
        "tenants.admit_ms": ms("tenants"),
        "ledger.commits": commits * per_release,
        "ledger.commit_ms": self_s.get(("ledger", "release"), 0.0) * 1000.0 / commits if commits else 0.0,
    }
    busy_s = sum(value for (layer, kind), value in self_s.items() if kind == "release")
    if edges:
        # Served: latency = HTTP edge + queue wait + the request's flush.
        # The flush's time is split exactly into layer self times, but
        # every request of a batch waited for all of it, so it counts once
        # per request here.
        edge_s = sum(edge for edge, _ in edges)
        wait_s = sum(wait for _, wait in edges)
        out["server.self_ms"] = edge_s * 1000.0 * per_release
        out["batching.queue_wait_ms"] = wait_s * 1000.0 * per_release
        sizes = [size for size, _ in tracer.flushes]
        out["batching.batch_size"] = sum(sizes) / len(sizes) if sizes else 0.0
        accounted = edge_s + wait_s + sum(size * span for size, span in tracer.flushes)
    else:
        accounted = busy_s
    out["trace.accounted_fraction"] = accounted / release_latency_s if release_latency_s else 0.0
    return out
