"""Per-layer timing wrappers installed around the public calls of each layer.

:meth:`Tracer.install` replaces selected functions of the ``repro`` modules
with timing wrappers (nothing under ``src/`` is edited; the launcher
installs them before ``repro.cli.main`` runs).  Each wrapper keeps a
per-thread stack, so a call's **self time** is its duration minus the
time of the timed calls nested inside it.  Generator functions (the
tuple-list scans) are timed per ``next()``, so the consumer's work between
items is not charged to them.

Each HTTP connection (one request: the daemon speaks HTTP/1.0) gets its
own account, spanning from the accept in the server thread to the end of
its handler thread; calls made on the handler thread are charged to it,
and the request is named by its ``X-Bench-Request`` header.  Calls on
other threads (background compaction, shutdown checkpoint) and in
non-serving commands (``repro build``) go to a background account.
:meth:`Tracer.dump` writes everything as JSON when the process ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

#: Scanner entry points whose calls make up the decode layer.
SCANNER_METHODS = ("move_to", "move_block", "decode_segment")


class _Account:
    """Self time (ms), call counts and free counters of one request or thread."""

    __slots__ = ("self_ms", "calls", "counts", "wrapped_calls")

    def __init__(self) -> None:
        self.self_ms: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.wrapped_calls = 0

    def to_dict(self) -> dict:
        return {
            "self_ms": dict(self.self_ms),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "wrapped_calls": self.wrapped_calls,
        }


class Tracer:
    """Timing wrappers plus the accounts they fill."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.requests: List[dict] = []
        self.background = _Account()
        self.events: Dict[str, List[float]] = defaultdict(list)
        self.wrapper_cost_s = 0.0
        #: Accept times of connections not yet picked up by a handler thread.
        self._accepted: Dict[int, float] = {}

    # ------------------------------------------------------------ accounting

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _account(self) -> _Account:
        account = getattr(self._tls, "request", None)
        return account if account is not None else self.background

    def count(self, name: str, amount: float = 1.0) -> None:
        account = self._account()
        if account is self.background:
            with self._lock:
                account.counts[name] += amount
        else:
            account.counts[name] += amount

    def event(self, name: str, value: float) -> None:
        with self._lock:
            self.events[name].append(value)

    def _close(self, key: str, parent, frame, elapsed: float) -> None:
        if parent is not None:
            parent[1] += elapsed
        account = self._account()
        new_call = parent is None or parent[0] != key
        if account is self.background:
            with self._lock:
                self._charge(account, key, (elapsed - frame[1]) * 1000.0, new_call)
        else:
            self._charge(account, key, (elapsed - frame[1]) * 1000.0, new_call)

    @staticmethod
    def _charge(account: _Account, key: str, self_ms: float, new_call: bool) -> None:
        account.self_ms[key] += self_ms
        account.wrapped_calls += 1
        if new_call:
            account.calls[key] += 1

    # -------------------------------------------------------------- wrappers

    def timed(
        self,
        key: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        """*fn* with its self time charged to *key*."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = perf_counter() - started
                stack.pop()
                tracer._close(key, parent, frame, elapsed)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            elapsed = perf_counter() - started
            stack.pop()
            tracer._close(key, parent, frame, elapsed)
            if on_result is not None:
                on_result(tracer, args, result, elapsed)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def timed_generator(self, key: str, fn: Callable) -> Callable:
        """A generator function whose every ``next()`` is charged to *key*."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack = tracer._stack()
                    parent = stack[-1] if stack else None
                    frame = [key, 0.0]
                    stack.append(frame)
                    started = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - started
                        stack.pop()
                        tracer._close(key, parent, frame, elapsed)
                    yield item
            finally:
                inner.close()

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def accepted(self, fn: Callable) -> Callable:
        """``ThreadingHTTPServer.process_request``: stamp the accept time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(server, request, client_address):
            with tracer._lock:
                tracer._accepted[id(request)] = perf_counter()
            return fn(server, request, client_address)

        return wrapper

    def request_root(self, fn: Callable) -> Callable:
        """``ThreadingHTTPServer.finish_request``: one account per connection.

        The span runs from the accept (main server thread) to the end of the
        handler (worker thread); the hand-over between the two threads is
        charged to the ``serve`` layer too, so the account's self times sum
        to the span.  ``QueryDaemon._route_post`` names the request.
        """
        tracer = self
        timed = self.timed("serve", fn)

        @functools.wraps(fn)
        def wrapper(server, request, client_address):
            account = _Account()
            tracer._tls.request = account
            tracer._tls.stack = []
            tracer._tls.request_id = None
            with tracer._lock:
                started = tracer._accepted.pop(id(request), None)
            if started is None:
                started = perf_counter()
            try:
                return timed(server, request, client_address)
            finally:
                ended = perf_counter()
                tracer._tls.request = None
                # Thread hand-over before the handler and bookkeeping after it.
                handover = (ended - started) * 1000.0 - sum(account.self_ms.values())
                account.self_ms["serve"] += handover
                record = account.to_dict()
                record.update(
                    id=tracer._tls.request_id, t0=started, t1=ended, handover_ms=handover
                )
                if record["id"] is not None:
                    with tracer._lock:
                        tracer.requests.append(record)

        return wrapper

    def request_name(self, fn: Callable) -> Callable:
        """``QueryDaemon._route_post``: tag the account with ``X-Bench-Request``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(daemon, handler):
            tracer._tls.request_id = handler.headers.get("X-Bench-Request")
            return fn(daemon, handler)

        return wrapper

    # --------------------------------------------------------------- install

    def install(self) -> None:
        """Patch the timing wrappers into the ``repro`` modules."""
        from http.server import ThreadingHTTPServer

        import repro.cli as cli
        import repro.codec.compressed  # noqa: F401 - registers its scanners
        import repro.core.iva_file as iva_file
        import repro.storage.snapshot as snapshot
        from repro.core.engine import IVAEngine
        from repro.core.kernel import KernelCache, QueryKernel
        from repro.core.scan import VectorListScanner
        from repro.core.tuple_list import TupleList
        from repro.metrics.distance import DistanceFunction
        from repro.serve.admission import AdmissionController, AdmissionRejected
        from repro.serve.cache import ResultCache
        from repro.serve.journal import WriteAheadJournal
        from repro.serve.server import QueryDaemon
        from repro.serve.snapshots import SnapshotManager
        from repro.storage.table import SparseWideTable

        def patch(owner, name: str, wrapper_factory) -> None:
            setattr(owner, name, wrapper_factory(getattr(owner, name)))

        def on_cache_get(tracer, args, result, elapsed):
            tracer.count("cache.gets")
            if result is not None:
                tracer.count("cache.hits")

        def on_search(tracer, args, report, elapsed):
            tracer.count("engine.searches")
            tracer.count("engine.filter_wall_ms", report.filter_wall_s * 1000.0)
            tracer.count("engine.refine_wall_ms", report.refine_wall_s * 1000.0)
            tracer.count("engine.tuples_scanned", report.tuples_scanned)
            tracer.count("engine.table_accesses", report.table_accesses)
            tracer.count("engine.results", len(report.results))
            tracer.count("modeled.filter_io_ms", report.filter_io_ms)
            tracer.count("modeled.refine_io_ms", report.refine_io_ms)

        def on_rejected(tracer, exc):
            if isinstance(exc, AdmissionRejected):
                tracer.count("admission.rejected")

        def on_save(tracer, args, written, elapsed):
            tracer.event("snapshot.save_ms", elapsed * 1000.0)
            tracer.event("snapshot.bytes", float(written))

        def event_ms(name):
            return lambda tracer, args, result, elapsed: tracer.event(name, elapsed * 1000.0)

        def kernel_lookup(fn):
            tracer = self

            @functools.wraps(fn)
            def wrapper(cache, *args, **kwargs):
                before = cache.hits
                result = fn(cache, *args, **kwargs)
                tracer.count("kernel.lookups")
                tracer.count("kernel.hits", cache.hits - before)
                return result

            return wrapper

        t = self
        patch(ThreadingHTTPServer, "process_request", t.accepted)
        patch(ThreadingHTTPServer, "finish_request", t.request_root)
        patch(QueryDaemon, "_route_post", t.request_name)
        patch(AdmissionController, "admit", lambda f: t.timed("admission.admit", f, on_error=on_rejected))
        patch(ResultCache, "get", lambda f: t.timed("cache.get", f, on_cache_get))
        patch(ResultCache, "put", lambda f: t.timed("cache.put", f))
        patch(
            ResultCache, "invalidate",
            lambda f: t.timed("cache.invalidate", f, lambda tr, a, r, e: tr.count("cache.invalidations")),
        )
        patch(SnapshotManager, "pin", lambda f: t.timed("snapshots.pin", f))
        for name in ("insert", "update", "delete"):
            patch(SnapshotManager, name, lambda f: t.timed("snapshots.write", f))
        patch(SnapshotManager, "compact", lambda f: t.timed("snapshots.compact", f, event_ms("snapshots.compaction_ms")))
        patch(
            SnapshotManager, "_checkpoint_locked",
            lambda f: t.timed("snapshots.checkpoint", f, event_ms("snapshots.checkpoint_ms")),
        )
        patch(WriteAheadJournal, "append", lambda f: t.timed("journal.append", f))
        patch(IVAEngine, "search", lambda f: t.timed("engine.search", f, on_search))
        patch(QueryKernel, "compile", lambda f: classmethod(t.timed("kernel.compile", f.__func__)))
        patch(QueryKernel, "evaluate_block", lambda f: t.timed("kernel.evaluate", f))
        patch(QueryKernel, "evaluate_segments", lambda f: t.timed("kernel.evaluate", f))
        patch(KernelCache, "text_term", kernel_lookup)
        patch(KernelCache, "numeric_term", kernel_lookup)
        for name in ("scan", "scan_range", "scan_range_blocks"):
            patch(TupleList, name, lambda f: t.timed_generator("tuple_list.scan", f))
        patch(SparseWideTable, "read", lambda f: t.timed("table.read", f))
        patch(DistanceFunction, "actual", lambda f: t.timed("distance.actual", f))
        patch(iva_file.IVAFile, "build", lambda f: classmethod(t.timed("iva_file.build", f.__func__, event_ms("iva_file.build_ms"))))
        saver = t.timed("snapshot.save", snapshot.save_disk, on_save)
        snapshot.save_disk = saver
        cli.save_disk = saver
        pending = list(VectorListScanner.__subclasses__())
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for name in SCANNER_METHODS:
                if name in cls.__dict__:
                    patch(cls, name, lambda f: t.timed("decode", f))
        self.wrapper_cost_s = self._calibrate()

    def _calibrate(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds over a plain call (per wrapper entry)."""

        def noop():
            return None

        wrapped = self.timed("calibration", noop)
        saved = self._tls.__dict__.copy()
        self._tls.request = _Account()
        try:
            best = float("inf")
            for _ in range(3):
                started = perf_counter()
                for _ in range(calls):
                    noop()
                plain = perf_counter() - started
                started = perf_counter()
                for _ in range(calls):
                    wrapped()
                best = min(best, (perf_counter() - started - plain) / calls)
        finally:
            self._tls.__dict__.clear()
            self._tls.__dict__.update(saved)
        return max(best, 0.0)

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {
                "requests": self.requests,
                "background": self.background.to_dict(),
                "events": dict(self.events),
                "wrapper_cost_s": self.wrapper_cost_s,
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
