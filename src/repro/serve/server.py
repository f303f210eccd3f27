"""The always-on query daemon: HTTP serving over the iVA-file engines.

:class:`QueryDaemon` extends :class:`~repro.obs.server.ObsServer` — the
observability routes (``/metrics``, ``/metrics.json``, ``/healthz``,
``/traces/recent``) come for free — with the serving surface:

* ``POST /query`` — one top-k query: admission control, snapshot pin,
  result-cache lookup, per-request engine with the generation's shared
  kernel cache and shard planner, deadline budget with graceful
  degradation;
* ``POST /query/batch`` — a shared-scan batch through
  :class:`~repro.core.batch.BatchIVAEngine`, same isolation and deadline
  semantics (batch answers are never result-cached);
* ``POST /admin/insert`` / ``/admin/delete`` / ``/admin/update`` —
  mutations through the snapshot manager (each invalidates the result
  cache and may trigger a background β-compaction);
* ``POST /admin/compact`` — explicit online compaction (409 when one is
  already running);
* ``POST /admin/drain`` — stop admitting new queries; ``/healthz`` turns
  503 so a load balancer rotates the instance out while in-flight
  requests finish;
* ``POST /admin/undrain`` — re-enter serving after a drain (the other
  half of graceful restart handoff: a cancelled restart does not require
  a process bounce);
* ``POST /admin/checkpoint`` — durably save the current generation and
  rotate the write-ahead journal (requires a configured checkpointer).

Per-client quotas: when the admission controller carries a
:class:`~repro.serve.admission.ClientQuota`, the ``X-Client-Id`` request
header keys a token bucket checked before global admission; exceeding it
is a 429 with ``reason="quota"`` and a ``Retry-After`` header.

Every request runs on its own engine instance (``engine.search`` is not
re-entrant: per-search state lives on the engine) with the v3 filter
kernel (:mod:`repro.core.kernel`), but all requests
against one generation share that generation's
:class:`~repro.core.kernel.KernelCache` and
:class:`~repro.parallel.shards.ShardPlanner`, so repeated query terms
skip kernel compilation and repeated attribute sets skip shard planning.
The deadline clock starts when execution starts — queue wait is excluded,
since admission already bounds it separately.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler
from typing import Optional, Tuple
from urllib.parse import urlparse

from repro.core.batch import BatchIVAEngine
from repro.core.engine import IVAEngine, SearchReport
from repro.errors import JournalError, QueryError, ReproError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import JSON_CONTENT_TYPE, ObsServer, SpanRingBuffer
from repro.obs.trace import Tracer, get_tracer
from repro.parallel import ExecutorConfig
from repro.query import Query
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.cache import ResultCache, result_key
from repro.serve.snapshots import CompactionInProgress, SnapshotManager

__all__ = ["QueryDaemon", "MAX_BODY_BYTES"]

#: Reject request bodies past this size (a daemon should bound everything).
MAX_BODY_BYTES = 4 * 1024 * 1024


class _HTTPError(Exception):
    """Internal: unwind a request with a specific status and payload."""

    def __init__(self, code: int, payload: dict, headers: Optional[dict] = None):
        super().__init__(payload.get("error", ""))
        self.code = code
        self.payload = payload
        self.headers = headers


class QueryDaemon(ObsServer):
    """HTTP front-end over a :class:`~repro.serve.snapshots.SnapshotManager`."""

    def __init__(
        self,
        manager: SnapshotManager,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metric: str = "L2",
        ndf_penalty: float = 20.0,
        workers: int = 0,
        default_k: int = 10,
        deadline_ms: Optional[float] = None,
        beta: Optional[float] = None,
        admission: Optional[AdmissionController] = None,
        result_cache: Optional[ResultCache] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        ring: Optional[SpanRingBuffer] = None,
    ) -> None:
        super().__init__(host, port, registry=registry, ring=ring)
        self.manager = manager
        self.metric = metric
        self.ndf_penalty = ndf_penalty
        self.default_k = default_k
        self.deadline_ms = deadline_ms
        self.beta = beta
        self.tracer = tracer
        self.admission = admission if admission is not None else AdmissionController(
            registry=registry
        )
        self.result_cache = (
            result_cache if result_cache is not None else ResultCache(registry=registry)
        )
        self.executor = ExecutorConfig(workers=workers) if workers > 1 else None
        self.draining = False

    # --------------------------------------------------------------- health

    def _health(self) -> Tuple[int, dict]:
        code, payload = super()._health()
        gen = self.manager.current
        payload.update(
            {
                "generation": gen.gen_id,
                "snapshot_version": gen.visible_version,
                "visible_elements": gen.visible_elements,
                "pinned_readers": self.manager._pinned,
                "compacting": self.manager.compacting,
                "deleted_fraction": round(self.manager.deleted_fraction, 6),
                "inflight": self.admission.running,
                "queue_depth": self.admission.waiting,
                "result_cache_entries": len(self.result_cache),
                "draining": self.draining,
                "journal": self.manager.journal_status,
            }
        )
        if self.draining:
            code = 503
            payload["status"] = "draining"
        return code, payload

    # -------------------------------------------------------------- routing

    def _route_post(self, handler: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(handler.path)
        path = parsed.path.rstrip("/") or "/"
        routes = {
            "/query": self._handle_query,
            "/query/batch": self._handle_batch,
            "/admin/insert": self._handle_insert,
            "/admin/delete": self._handle_delete,
            "/admin/update": self._handle_update,
            "/admin/compact": self._handle_compact,
            "/admin/drain": self._handle_drain,
            "/admin/undrain": self._handle_undrain,
            "/admin/checkpoint": self._handle_checkpoint,
        }
        route = routes.get(path)
        if route is None:
            super()._route_post(handler)
            return
        self._count_request(path)
        started = time.perf_counter()
        try:
            try:
                body = self._read_body(handler)
                code, payload, headers = 200, route(body, handler.headers), None
            except _HTTPError as exc:
                code, payload, headers = exc.code, exc.payload, exc.headers
            except QueryError as exc:
                code, payload, headers = 400, {"error": str(exc)}, None
            except JournalError as exc:
                # Durability is broken: acknowledged-write safety cannot be
                # promised, so writes are refused until a restart recovers.
                code, payload, headers = (
                    503,
                    {"error": str(exc), "journal_failed": True},
                    None,
                )
            except ReproError as exc:
                code, payload, headers = 400, {"error": str(exc)}, None
            self._respond(handler, path, code, payload, headers)
        except BrokenPipeError:  # client went away mid-response
            pass
        finally:
            duration_ms = (time.perf_counter() - started) * 1000.0
            self._tracer().record("serve.request", duration_ms, route=path)

    def _respond(
        self,
        handler: BaseHTTPRequestHandler,
        route: str,
        code: int,
        payload: dict,
        headers: Optional[dict] = None,
    ) -> None:
        self.metrics_registry().counter(
            "repro_serve_requests_total",
            labels={"route": route, "code": str(code)},
            help="Serving requests by route and response code.",
        ).inc()
        self._send(
            handler, code, json.dumps(payload, sort_keys=True), JSON_CONTENT_TYPE,
            headers=headers,
        )

    def _tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    @staticmethod
    def _read_body(handler: BaseHTTPRequestHandler) -> dict:
        length = int(handler.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, {"error": "request body too large"})
        raw = handler.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError):
            raise _HTTPError(400, {"error": "request body is not valid JSON"})
        if not isinstance(body, dict):
            raise _HTTPError(400, {"error": "request body must be a JSON object"})
        return body

    # --------------------------------------------------------------- query

    def _handle_query(self, body: dict, headers) -> dict:
        if self.draining:
            raise _HTTPError(503, {"error": "draining; not accepting queries"})
        terms = body.get("terms")
        if not isinstance(terms, dict) or not terms:
            raise _HTTPError(
                400, {"error": 'body must include a non-empty "terms" object'}
            )
        k = self._int_field(body, "k", self.default_k)
        metric = body.get("metric", self.metric)
        deadline_s = self._deadline_s(body)
        slot = self._admit(headers)
        with slot:
            started = time.perf_counter()
            snapshot = self.manager.pin()
            try:
                gen = snapshot.generation
                key = result_key(gen.gen_id, snapshot.version, terms, k, metric)
                cached = self.result_cache.get(key)
                if cached is not None:
                    return dict(cached, cached=True)
                query = Query.from_dict(gen.table.catalog, terms)
                engine = self._engine_for(gen, snapshot, metric)
                report = self._search_metered(
                    gen, lambda: engine.search(query, k=k, deadline_s=deadline_s)
                )
                payload = self._report_payload(report, gen, snapshot, k, metric)
                if not report.degraded:
                    self.result_cache.put(key, payload)
                return payload
            finally:
                snapshot.release()
                self.admission.observe_latency(time.perf_counter() - started)

    def _handle_batch(self, body: dict, headers) -> dict:
        if self.draining:
            raise _HTTPError(503, {"error": "draining; not accepting queries"})
        raw_queries = body.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise _HTTPError(
                400, {"error": 'body must include a non-empty "queries" array'}
            )
        k = self._int_field(body, "k", self.default_k)
        metric = body.get("metric", self.metric)
        deadline_s = self._deadline_s(body)
        slot = self._admit(headers)
        with slot:
            started = time.perf_counter()
            snapshot = self.manager.pin()
            try:
                gen = snapshot.generation
                queries = []
                for i, entry in enumerate(raw_queries):
                    terms = entry.get("terms") if isinstance(entry, dict) else None
                    if not isinstance(terms, dict) or not terms:
                        raise _HTTPError(
                            400,
                            {"error": f'queries[{i}] must have a "terms" object'},
                        )
                    queries.append(Query.from_dict(gen.table.catalog, terms))
                engine = BatchIVAEngine(
                    gen.table,
                    gen.index,
                    DistanceFunction(metric=metric, ndf_penalty=self.ndf_penalty),
                    registry=self.metrics_registry(),
                    tracer=self.tracer,
                    executor=self.executor,
                    kernel="v3",
                    fail_mode="degrade",
                    kernel_cache=gen.kernel_cache,
                    scan_end_element=snapshot.end_element,
                    shard_planner=gen.planner,
                )
                reports = self._search_metered(
                    gen,
                    lambda: engine.search_batch(queries, k=k, deadline_s=deadline_s),
                )
                return {
                    "reports": [
                        self._report_payload(report, gen, snapshot, k, metric)
                        for report in reports
                    ]
                }
            finally:
                snapshot.release()
                self.admission.observe_latency(time.perf_counter() - started)

    def _admit(self, headers):
        """Admission (quota first, then global) translated to HTTP 429."""
        client_id = headers.get("X-Client-Id") if headers is not None else None
        try:
            return self.admission.admit(client_id=client_id)
        except AdmissionRejected as exc:
            raise _HTTPError(
                429,
                {
                    "error": "overloaded",
                    "reason": exc.reason,
                    "retry_after_s": round(exc.retry_after_s, 3),
                },
                headers={"Retry-After": int(math.ceil(exc.retry_after_s))},
            )

    def _engine_for(self, gen, snapshot, metric: str) -> IVAEngine:
        return IVAEngine(
            gen.table,
            gen.index,
            DistanceFunction(metric=metric, ndf_penalty=self.ndf_penalty),
            registry=self.metrics_registry(),
            tracer=self.tracer,
            executor=self.executor,
            kernel="v3",
            fail_mode="degrade",
            kernel_cache=gen.kernel_cache,
            scan_end_element=snapshot.end_element,
            shard_planner=gen.planner,
        )

    def _search_metered(self, gen, run):
        """Run a search and publish the generation kernel-cache deltas.

        The cache object is shared across concurrent requests, so deltas
        may occasionally attribute a neighbour's hit — the totals stay
        exact, which is what the serving dashboards read.
        """
        cache = gen.kernel_cache
        hits_before, misses_before = cache.hits, cache.misses
        result = run()
        registry = self.metrics_registry()
        hit_delta = cache.hits - hits_before
        miss_delta = cache.misses - misses_before
        if hit_delta > 0:
            registry.counter(
                "repro_serve_cache_hits_total",
                labels={"layer": "kernel"},
                help="Serving cache hits, by cache layer.",
            ).inc(hit_delta)
        if miss_delta > 0:
            registry.counter(
                "repro_serve_cache_misses_total",
                labels={"layer": "kernel"},
                help="Serving cache misses, by cache layer.",
            ).inc(miss_delta)
        return result

    @staticmethod
    def _report_payload(
        report: SearchReport, gen, snapshot, k: int, metric: str
    ) -> dict:
        return {
            "results": [
                {"tid": r.tid, "distance": round(r.distance, 6)}
                for r in report.results
            ],
            "k": k,
            "metric": metric,
            "degraded": report.degraded,
            "deadline_hit": report.deadline_hit,
            "lost_tid_ranges": [list(pair) for pair in report.lost_tid_ranges],
            "generation": gen.gen_id,
            "snapshot_version": snapshot.version,
            "query_time_ms": round(report.query_time_ms, 3),
            "tuples_scanned": report.tuples_scanned,
            "table_accesses": report.table_accesses,
            "cached": False,
        }

    def _deadline_s(self, body: dict) -> Optional[float]:
        raw = body.get("deadline_ms", self.deadline_ms)
        if raw is None:
            return None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise _HTTPError(400, {"error": '"deadline_ms" must be a number'})
        if value <= 0:
            raise _HTTPError(400, {"error": '"deadline_ms" must be positive'})
        return value / 1000.0

    @staticmethod
    def _int_field(body: dict, name: str, default: int) -> int:
        raw = body.get(name, default)
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
            raise _HTTPError(400, {"error": f'"{name}" must be a positive integer'})
        return raw

    # --------------------------------------------------------------- admin

    def _handle_insert(self, body: dict, headers=None) -> dict:
        values = body.get("values")
        if not isinstance(values, dict) or not values:
            raise _HTTPError(
                400, {"error": 'body must include a non-empty "values" object'}
            )
        tid = self.manager.insert(values)
        self.result_cache.invalidate()
        self._maybe_background_compact()
        return {"tid": tid}

    def _handle_delete(self, body: dict, headers=None) -> dict:
        tid = body.get("tid")
        if not isinstance(tid, int) or isinstance(tid, bool):
            raise _HTTPError(400, {"error": 'body must include an integer "tid"'})
        self.manager.delete(tid)
        self.result_cache.invalidate()
        self._maybe_background_compact()
        return {"deleted": tid}

    def _handle_update(self, body: dict, headers=None) -> dict:
        tid = body.get("tid")
        values = body.get("values")
        if not isinstance(tid, int) or isinstance(tid, bool):
            raise _HTTPError(400, {"error": 'body must include an integer "tid"'})
        if not isinstance(values, dict) or not values:
            raise _HTTPError(
                400, {"error": 'body must include a non-empty "values" object'}
            )
        new_tid = self.manager.update(tid, values)
        self.result_cache.invalidate()
        self._maybe_background_compact()
        return {"tid": new_tid, "replaced": tid}

    def _handle_compact(self, body: dict, headers=None) -> dict:
        try:
            summary = self.manager.compact()
        except CompactionInProgress as exc:
            raise _HTTPError(409, {"error": str(exc)})
        self.result_cache.invalidate()
        return summary

    def _handle_drain(self, body: dict, headers=None) -> dict:
        self.draining = True
        return {
            "draining": True,
            "inflight": self.admission.running,
            "queued": self.admission.waiting,
        }

    def _handle_undrain(self, body: dict, headers=None) -> dict:
        """Re-enter serving after a drain (e.g. a cancelled takeover)."""
        self.draining = False
        return {"draining": False}

    def _handle_checkpoint(self, body: dict, headers=None) -> dict:
        """Durably save the served state and rotate the journal."""
        return self.manager.checkpoint(reason="admin")

    def _maybe_background_compact(self) -> None:
        """Kick the β-cleaning of Sec. IV-B as a background thread.

        The trigger check is cheap and read-only; the compaction itself
        runs off the request thread so the mutating client never waits
        for a rebuild (the paper's amortised cost becomes background
        wall-clock).  A concurrent trigger is harmless: the second
        compaction request finds ``_compacting`` set and bows out.
        """
        if self.beta is None:
            return
        if self.manager.compacting:
            return
        if self.manager.deleted_fraction < self.beta:
            return

        def _run() -> None:
            try:
                self.manager.compact()
                self.result_cache.invalidate()
            except CompactionInProgress:
                pass

        thread = threading.Thread(target=_run, name="repro-serve-compact", daemon=True)
        thread.start()
