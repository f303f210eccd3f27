"""The serving daemon: admission, caching, snapshots, online compaction.

The acceptance bar for the serving stack:

* admission control sheds load with 429 + ``Retry-After`` instead of
  queueing without bound;
* the result cache replays only non-degraded answers and is invalidated
  by every mutation;
* a pinned snapshot is a consistent read view — concurrent inserts are
  invisible until a new pin;
* online compaction serves concurrent queries with answers bit-identical
  to a quiesced rebuild, and queries never block on it;
* deadline-cut answers cross the wire explicitly flagged and are never
  cached.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAFile
from repro.data import DatasetConfig, DatasetGenerator
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import SpanRingBuffer
from repro.obs.trace import Tracer
from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    ClientQuota,
    CompactionInProgress,
    QueryDaemon,
    ResultCache,
    ServeLock,
    SnapshotManager,
    result_key,
)
from repro import SimulatedDisk, SparseWideTable


def _post(url: str, body: dict, headers: dict | None = None):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    for name, value in (headers or {}).items():
        req.add_header(name, value)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _build_manager(tuples: int = 200, seed: int = 7) -> SnapshotManager:
    disk = SimulatedDisk()
    table = SparseWideTable(disk)
    DatasetGenerator(
        DatasetConfig(
            num_tuples=tuples,
            num_attributes=30,
            mean_attrs_per_tuple=6.0,
            seed=seed,
        )
    ).populate(table)
    index = IVAFile.build(table)
    return SnapshotManager(disk, table, index)


@pytest.fixture
def manager() -> SnapshotManager:
    return _build_manager()


@pytest.fixture
def daemon(manager):
    srv = QueryDaemon(manager, port=0, registry=MetricsRegistry()).start()
    yield srv
    srv.close()


def _some_terms(manager, tid: int = 0) -> dict:
    """Two scalar query terms taken from one stored tuple (JSON-safe)."""
    record = manager.current.table.read(tid)
    catalog = manager.current.table.catalog
    items = []
    for attr_id, value in sorted(record.cells.items()):
        if isinstance(value, (tuple, list)):
            value = value[0]  # multi-string text cell: query one string
        if isinstance(value, (str, int, float)):
            items.append((attr_id, value))
    assert items, f"tuple {tid} has no usable cells"
    return {catalog.by_id(attr_id).name: value for attr_id, value in items[:2]}


# ----------------------------------------------------------------- admission


def test_admission_rejects_when_queue_full():
    controller = AdmissionController(
        max_concurrency=1, max_queue=0, queue_timeout_s=0.05,
        registry=MetricsRegistry(),
    )
    slot = controller.admit()
    with pytest.raises(AdmissionRejected) as excinfo:
        controller.admit()
    assert excinfo.value.reason == "queue_full"
    assert 1.0 <= excinfo.value.retry_after_s <= 30.0
    with slot:
        pass
    # Slot released: admission works again.
    with controller.admit():
        assert controller.running == 1
    assert controller.running == 0


def test_admission_times_out_waiting_for_a_slot():
    controller = AdmissionController(
        max_concurrency=1, max_queue=4, queue_timeout_s=0.05,
        registry=MetricsRegistry(),
    )
    with controller.admit():
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit()
        assert excinfo.value.reason == "timeout"


def test_admission_queue_admits_when_slot_frees():
    controller = AdmissionController(
        max_concurrency=1, max_queue=4, queue_timeout_s=5.0,
        registry=MetricsRegistry(),
    )
    slot = controller.admit()
    admitted = []

    def waiter():
        with controller.admit():
            admitted.append(True)

    thread = threading.Thread(target=waiter)
    thread.start()
    with slot:
        pass  # release the first slot; the waiter takes it
    thread.join(timeout=5.0)
    assert admitted == [True]


# -------------------------------------------------------------- result cache


def test_result_cache_lru_eviction_and_metrics():
    registry = MetricsRegistry()
    cache = ResultCache(capacity=2, registry=registry)
    k1 = result_key(0, 1, {"a": 1}, 10, "L2")
    k2 = result_key(0, 1, {"b": 2}, 10, "L2")
    k3 = result_key(0, 1, {"c": 3}, 10, "L2")
    cache.put(k1, {"r": 1})
    cache.put(k2, {"r": 2})
    assert cache.get(k1) == {"r": 1}  # refreshes k1's recency
    cache.put(k3, {"r": 3})  # evicts k2, the LRU entry
    assert cache.get(k2) is None
    assert cache.get(k1) == {"r": 1}
    assert cache.get(k3) == {"r": 3}
    assert cache.evictions == 1
    assert (
        registry.counter(
            "repro_serve_cache_hits_total", labels={"layer": "result"}
        ).value
        == 3
    )
    dropped = cache.invalidate()
    assert dropped == 2
    assert len(cache) == 0
    assert cache.get(k1) is None


def test_result_cache_key_is_order_insensitive():
    assert result_key(0, 1, {"a": 1, "b": 2}, 10, "L2") == result_key(
        0, 1, {"b": 2, "a": 1}, 10, "L2"
    )
    assert result_key(0, 1, {"a": 1}, 10, "L2") != result_key(
        0, 2, {"a": 1}, 10, "L2"
    )


# ----------------------------------------------------- snapshots / watermark


def test_pinned_snapshot_does_not_see_later_inserts(manager):
    snapshot = manager.pin()
    before = snapshot.end_element
    values = dict(_some_terms(manager))
    new_tid = manager.insert(values)
    try:
        gen = snapshot.generation
        # The pinned watermark is unchanged; the index physically grew.
        assert snapshot.end_element == before
        assert gen.index.tuple_elements > before
        engine = IVAEngine(
            gen.table,
            gen.index,
            registry=MetricsRegistry(),
            scan_end_element=snapshot.end_element,
        )
        report = engine.search(values, k=gen.index.tuple_elements)
        assert new_tid not in [r.tid for r in report.results]
        # A fresh pin sees the committed insert.
        fresh = manager.pin()
        assert fresh.end_element > before
        engine2 = IVAEngine(
            gen.table,
            gen.index,
            registry=MetricsRegistry(),
            scan_end_element=fresh.end_element,
        )
        report2 = engine2.search(values, k=gen.index.tuple_elements)
        assert new_tid in [r.tid for r in report2.results]
        fresh.release()
    finally:
        snapshot.release()
    assert manager._pinned == 0


def test_snapshot_release_is_idempotent(manager):
    snapshot = manager.pin()
    snapshot.release()
    snapshot.release()
    assert manager._pinned == 0


# ---------------------------------------------------------- online compaction


def test_compaction_is_bit_identical_to_quiesced_rebuild():
    manager = _build_manager(tuples=150, seed=13)
    # Tombstone a slice so compaction has something to clean.
    for tid in range(0, 30, 3):
        manager.delete(tid)
    queries = [_some_terms(manager, tid) for tid in (40, 50, 60, 70)]

    def answer(gen, end_element, query):
        engine = IVAEngine(
            gen.table,
            gen.index,
            registry=MetricsRegistry(),
            scan_end_element=end_element,
        )
        report = engine.search(query, k=10)
        assert report.degraded is False
        return [(r.tid, round(r.distance, 9)) for r in report.results]

    snapshot = manager.pin()
    expected = [answer(snapshot.generation, snapshot.end_element, q) for q in queries]
    snapshot.release()

    # Queries run concurrently with the compaction; every answer must be
    # bit-identical to the quiesced one (the acceptance criterion).
    results, errors = [], []

    def reader():
        try:
            for _ in range(3):
                snap = manager.pin()
                try:
                    got = [
                        answer(snap.generation, snap.end_element, q) for q in queries
                    ]
                finally:
                    snap.release()
                results.append(got)
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    summary = manager.compact()
    for thread in threads:
        thread.join(timeout=30.0)

    assert not errors
    for got in results:
        assert got == expected
    assert summary["to_generation"] == summary["from_generation"] + 1
    assert summary["dead_tuples_dropped"] == 10

    # The new generation answers identically and carries no tombstones.
    snap = manager.pin()
    try:
        assert snap.generation.gen_id == summary["to_generation"]
        assert snap.generation.table.dead_tuples == 0
        post = [answer(snap.generation, snap.end_element, q) for q in queries]
    finally:
        snap.release()
    assert post == expected


def test_concurrent_compaction_is_rejected(manager):
    with manager._gen_lock:
        manager._compacting = True
    try:
        with pytest.raises(CompactionInProgress):
            manager.compact()
    finally:
        with manager._gen_lock:
            manager._compacting = False
    # And compaction works once the flag clears.
    summary = manager.compact()
    assert summary["to_generation"] == 1


def test_maybe_compact_honours_beta(manager):
    assert manager.maybe_compact(beta=0.9) is False
    live = len(manager.current.table)
    for tid in range(live // 2):
        manager.delete(tid)
    assert manager.maybe_compact(beta=0.4) is True
    assert manager.current.table.dead_tuples == 0
    with pytest.raises(ValueError):
        manager.maybe_compact(beta=0.0)


# ------------------------------------------------------------- HTTP surface


def test_query_round_trip_and_result_cache_hit(daemon, manager):
    terms = _some_terms(manager, tid=3)
    code, _, first = _post(daemon.url + "/query", {"terms": terms, "k": 5})
    assert code == 200
    assert first["cached"] is False
    assert first["degraded"] is False
    assert first["results"]
    code, _, second = _post(daemon.url + "/query", {"terms": terms, "k": 5})
    assert code == 200
    assert second["cached"] is True
    assert second["results"] == first["results"]


def test_kernel_cache_hits_are_observable(daemon, manager):
    terms = _some_terms(manager, tid=5)
    # Same terms, different k: the result cache misses but the compiled
    # kernel artifacts are reused — the acceptance criterion's hit rate.
    _post(daemon.url + "/query", {"terms": terms, "k": 3})
    _post(daemon.url + "/query", {"terms": terms, "k": 4})
    code, body = _get(daemon.url + "/metrics")
    assert code == 200
    hits = [
        line
        for line in body.splitlines()
        if line.startswith("repro_serve_cache_hits_total") and 'layer="kernel"' in line
    ]
    assert hits, body
    assert float(hits[0].rsplit(" ", 1)[1]) > 0


def _segments_total(daemon) -> float:
    code, body = _get(daemon.url + "/metrics")
    assert code == 200
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in body.splitlines()
        if line.startswith("repro_kernel_segments_total")
    )


def _scalar_answer(manager, terms: dict, k: int) -> list:
    gen = manager.current
    engine = IVAEngine(gen.table, gen.index, kernel="scalar")
    return [
        {"tid": r.tid, "distance": round(r.distance, 6)}
        for r in engine.search(terms, k=k).results
    ]


def test_served_reads_run_kernel_v3(daemon, manager):
    """/query and /query/batch both run v3 and answer like scalar."""
    terms = _some_terms(manager, tid=4)
    before = _segments_total(daemon)
    code, _, single = _post(daemon.url + "/query", {"terms": terms, "k": 5})
    assert code == 200
    after_single = _segments_total(daemon)
    assert after_single > before
    assert single["results"] == _scalar_answer(manager, terms, 5)

    batch = [_some_terms(manager, tid) for tid in (6, 9)]
    code, _, payload = _post(
        daemon.url + "/query/batch",
        {"queries": [{"terms": t} for t in batch], "k": 5},
    )
    assert code == 200
    assert _segments_total(daemon) > after_single
    assert [report["results"] for report in payload["reports"]] == [
        _scalar_answer(manager, t, 5) for t in batch
    ]


def test_batch_round_trip(daemon, manager):
    queries = [{"terms": _some_terms(manager, tid)} for tid in (2, 8)]
    code, _, payload = _post(
        daemon.url + "/query/batch", {"queries": queries, "k": 3}
    )
    assert code == 200
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        assert report["degraded"] is False
        assert report["results"]


def test_batch_is_observable(manager):
    """A batch counts every query under the ``iVA`` engine label and
    leaves one ``query`` span in the daemon's trace ring."""
    registry = MetricsRegistry()
    ring = SpanRingBuffer()
    tracer = Tracer(registry=registry, sink=ring)
    srv = QueryDaemon(
        manager, port=0, registry=registry, tracer=tracer, ring=ring
    ).start()
    try:
        queries = [{"terms": _some_terms(manager, tid)} for tid in (2, 5, 8)]
        code, _, payload = _post(
            srv.url + "/query/batch",
            {"queries": queries, "k": 3, "deadline_ms": 1e-6},
        )
    finally:
        srv.close()
    assert code == 200
    assert all(report["deadline_hit"] for report in payload["reports"])
    labels = {"engine": "iVA"}
    for name in (
        "repro_queries_total",
        "repro_deadline_exceeded_total",
        "repro_degraded_queries_total",
    ):
        assert registry.counter(name, labels=labels).value == len(queries)
    spans = [span for span in ring.recent() if span["name"] == "query"]
    assert len(spans) == 1
    assert spans[0]["attrs"]["queries"] == len(queries)


def test_deadline_cut_is_flagged_and_never_cached(daemon, manager):
    terms = _some_terms(manager, tid=9)
    body = {"terms": terms, "k": 5, "deadline_ms": 1e-6}
    code, _, first = _post(daemon.url + "/query", body)
    assert code == 200
    assert first["degraded"] is True
    assert first["deadline_hit"] is True
    assert first["lost_tid_ranges"]
    code, _, second = _post(daemon.url + "/query", body)
    assert second["cached"] is False  # degraded answers are not replayed


def _requests_counted(daemon, route: str, code: int) -> float:
    return daemon.metrics_registry().counter(
        "repro_serve_requests_total", labels={"route": route, "code": str(code)}
    ).value


@pytest.mark.parametrize(
    "route, metric",
    [("/query", ["L2"]), ("/query", {"a": 1}), ("/query/batch", {"a": 1}),
     ("/query/batch", 2)],
)
def test_non_string_metric_is_a_400(daemon, manager, route, metric):
    terms = _some_terms(manager, tid=3)
    body = (
        {"terms": terms, "metric": metric}
        if route == "/query"
        else {"queries": [{"terms": terms}], "metric": metric}
    )
    code, _, payload = _post(daemon.url + route, body)
    assert code == 400
    assert "metric" in payload["error"]
    assert _requests_counted(daemon, route, 400) == 1


@pytest.mark.parametrize("route", ["/query", "/query/batch"])
@pytest.mark.parametrize(
    "deadline", [float("nan"), float("inf"), True, "5", 0, -1.0, [5]]
)
def test_malformed_deadline_is_a_400(daemon, manager, route, deadline):
    terms = _some_terms(manager, tid=3)
    body = (
        {"terms": terms, "deadline_ms": deadline}
        if route == "/query"
        else {"queries": [{"terms": terms}], "deadline_ms": deadline}
    )
    code, _, payload = _post(daemon.url + route, body)
    assert code == 400
    assert "deadline_ms" in payload["error"]


@pytest.mark.parametrize("deadline", [5000, 5000.0])
def test_numeric_deadline_is_accepted(daemon, manager, deadline):
    body = {"terms": _some_terms(manager, tid=3), "deadline_ms": deadline}
    code, _, payload = _post(daemon.url + "/query", body)
    assert code == 200
    assert payload["deadline_hit"] is False


def test_http_429_with_retry_after(daemon, manager):
    daemon.admission = AdmissionController(
        max_concurrency=1, max_queue=0, queue_timeout_s=0.05,
        registry=MetricsRegistry(),
    )
    slot = daemon.admission.admit()
    try:
        code, headers, payload = _post(
            daemon.url + "/query", {"terms": _some_terms(manager), "k": 3}
        )
        assert code == 429
        assert payload["reason"] == "queue_full"
        assert int(headers["Retry-After"]) >= 1
    finally:
        with slot:
            pass


def test_admin_mutations_and_compact_over_http(daemon, manager):
    values = dict(_some_terms(manager, tid=1))
    code, _, inserted = _post(daemon.url + "/admin/insert", {"values": values})
    assert code == 200
    new_tid = inserted["tid"]
    code, _, found = _post(
        daemon.url + "/query", {"terms": values, "k": manager.current.index.tuple_elements}
    )
    assert code == 200
    assert new_tid in [r["tid"] for r in found["results"]]
    code, _, deleted = _post(daemon.url + "/admin/delete", {"tid": new_tid})
    assert code == 200 and deleted["deleted"] == new_tid
    code, _, summary = _post(daemon.url + "/admin/compact", {})
    assert code == 200
    assert summary["to_generation"] == 1
    assert summary["dead_tuples_dropped"] >= 1
    # Queries keep working against the new generation.
    code, _, after = _post(daemon.url + "/query", {"terms": values, "k": 5})
    assert code == 200
    assert after["generation"] == 1
    assert new_tid not in [r["tid"] for r in after["results"]]


def test_compact_conflict_maps_to_409(daemon, manager):
    with manager._gen_lock:
        manager._compacting = True
    try:
        code, _, payload = _post(daemon.url + "/admin/compact", {})
        assert code == 409
        assert "already running" in payload["error"]
    finally:
        with manager._gen_lock:
            manager._compacting = False


def test_bad_requests_are_400(daemon):
    code, _, payload = _post(daemon.url + "/query", {})
    assert code == 400
    code, _, payload = _post(daemon.url + "/query", {"terms": {"nope": 1}})
    assert code == 400
    assert "unknown attribute" in payload["error"]
    code, _, payload = _post(
        daemon.url + "/query", {"terms": {"a": 1}, "k": "many"}
    )
    assert code == 400
    code, _, payload = _post(daemon.url + "/nothing-here", {})
    assert code == 404


def test_drain_flips_healthz_to_503(daemon, manager):
    code, body = _get(daemon.url + "/healthz")
    assert code == 200
    assert json.loads(body)["draining"] is False
    code, _, payload = _post(daemon.url + "/admin/drain", {})
    assert code == 200 and payload["draining"] is True
    code, body = _get(daemon.url + "/healthz")
    assert code == 503
    assert json.loads(body)["status"] == "draining"
    code, _, payload = _post(daemon.url + "/query", {"terms": {"a": 1}})
    assert code == 503


def test_health_reports_serving_state(daemon, manager):
    code, body = _get(daemon.url + "/healthz")
    assert code == 200
    payload = json.loads(body)
    for field in (
        "generation",
        "snapshot_version",
        "visible_elements",
        "pinned_readers",
        "compacting",
        "deleted_fraction",
        "inflight",
        "queue_depth",
        "result_cache_entries",
        "draining",
    ):
        assert field in payload


# ------------------------------------------ restart handoff / quotas / cache


def test_undrain_restores_serving(daemon, manager):
    """Drain is reversible: a drained daemon can rejoin the rotation."""
    code, _, payload = _post(daemon.url + "/admin/drain", {})
    assert code == 200 and payload["draining"] is True
    code, _ = _get(daemon.url + "/healthz")
    assert code == 503
    code, _, payload = _post(daemon.url + "/admin/undrain", {})
    assert code == 200 and payload["draining"] is False
    code, body = _get(daemon.url + "/healthz")
    assert code == 200
    assert json.loads(body)["draining"] is False
    code, _, payload = _post(
        daemon.url + "/query", {"terms": _some_terms(manager), "k": 3}
    )
    assert code == 200


def test_quota_429_is_per_client(daemon, manager):
    daemon.admission = AdmissionController(
        max_concurrency=8, max_queue=32, queue_timeout_s=2.0,
        quota=ClientQuota(rate_per_s=0.01, burst=1),
        registry=MetricsRegistry(),
    )
    terms = _some_terms(manager)
    alice = {"X-Client-Id": "alice"}
    code, _, _ = _post(daemon.url + "/query", {"terms": terms, "k": 3}, alice)
    assert code == 200
    code, headers, payload = _post(
        daemon.url + "/query", {"terms": terms, "k": 3}, alice
    )
    assert code == 429
    assert payload["reason"] == "quota"
    assert int(headers["Retry-After"]) >= 1
    # A different client has its own bucket and is still admitted.
    code, _, _ = _post(
        daemon.url + "/query", {"terms": terms, "k": 3}, {"X-Client-Id": "bob"}
    )
    assert code == 200


def test_doorkeeper_admits_only_repeated_keys():
    now = [0.0]
    cache = ResultCache(
        capacity=4, probation_s=10.0, registry=MetricsRegistry(),
        clock=lambda: now[0],
    )
    k1 = result_key(0, 1, {"a": 1}, 10, "L2")
    cache.put(k1, {"r": 1})
    assert len(cache) == 0  # one-hit wonder: skipped
    assert cache.doorkeeper_skips == 1
    cache.put(k1, {"r": 1})  # second sighting within the window: admitted
    assert cache.get(k1) == {"r": 1}
    # A sighting outside the probation window does not count.
    k2 = result_key(0, 1, {"b": 2}, 10, "L2")
    cache.put(k2, {"r": 2})
    now[0] = 20.0
    cache.put(k2, {"r": 2})  # stale first sighting: restamped, still skipped
    assert cache.get(k2) is None
    cache.put(k2, {"r": 2})
    assert cache.get(k2) == {"r": 2}
    assert cache.doorkeeper_skips == 3


def test_takeover_drains_the_live_holder(daemon, manager, tmp_path):
    path = str(tmp_path / "serve.lock")
    holder = ServeLock(path)
    holder.acquire()
    holder.update(url=daemon.url)
    taken = []

    def successor():
        lock = ServeLock(path)
        lock.acquire(takeover=True, wait_s=10.0)
        taken.append(lock)

    thread = threading.Thread(target=successor)
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not daemon.draining and time.monotonic() < deadline:
            time.sleep(0.02)
        # The takeover reached through the lock file and drained the holder.
        assert daemon.draining is True
        holder.release()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert taken and taken[0].held
    finally:
        holder.release()
        if taken:
            taken[0].release()
