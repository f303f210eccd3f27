#!/usr/bin/env python
"""Smoke-check the serving daemon end to end over real HTTP.

Boots a :class:`~repro.serve.QueryDaemon` on an ephemeral port over a
small synthetic snapshot and drives the full request surface with
stdlib ``urllib``:

* ``POST /query`` twice with identical bodies — the second answer must
  come from the result cache (``cached: true``) and match the first
  bit-for-bit;
* ``POST /query`` with the same terms and a different ``k`` — the
  result cache misses but the compiled-kernel cache must hit, and the
  hit must be observable as ``repro_serve_cache_hits_total`` with
  ``layer="kernel"`` on ``/metrics`` (the acceptance criterion);
* ``POST /query/batch`` — aligned, non-degraded reports, each query
  counted in ``repro_queries_total{engine="iVA"}`` on ``/metrics``;
* ``POST /admin/insert`` → the new tuple is immediately queryable;
  ``POST /admin/delete`` → tombstoned; ``POST /admin/compact`` → the
  generation advances, dead tuples drop to zero, and the same query
  still answers identically;
* an expired ``deadline_ms`` → the answer crosses the wire flagged
  ``degraded``/``deadline_hit`` and is never served from cache;
* ``GET /healthz`` reports serving state; ``POST /admin/drain`` flips
  it to 503.

Exit status 0 on success, 1 on any problem, so it can gate `make smoke`.
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request


def _post(url: str, body: dict):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _metric(daemon, name: str, label: str) -> float:
    """The value of the first *name* sample on ``/metrics`` carrying *label*."""
    _, text = _get(daemon.url + "/metrics")
    for line in text.splitlines():
        if line.startswith(name) and label in line:
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def main() -> int:
    from repro.core.iva_file import IVAFile
    from repro.data.generator import DatasetConfig, DatasetGenerator
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import QueryDaemon, SnapshotManager
    from repro.storage import SparseWideTable, simulated_backend

    disk = simulated_backend()
    table = SparseWideTable(disk)
    DatasetGenerator(
        DatasetConfig(
            num_tuples=400, num_attributes=40, mean_attrs_per_tuple=6.0, seed=31
        )
    ).populate(table)
    index = IVAFile.build(table)
    manager = SnapshotManager(disk, table, index)
    daemon = QueryDaemon(manager, port=0, registry=MetricsRegistry()).start()
    problems = []

    def check(ok: bool, label: str) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            problems.append(label)

    try:
        # Query terms lifted from a stored tuple so the top hit is exact.
        record = table.read(5)
        terms = {}
        for attr_id, value in sorted(record.cells.items()):
            if isinstance(value, (tuple, list)):
                value = value[0]
            if isinstance(value, (str, int, float)):
                terms[table.catalog.by_id(attr_id).name] = value
            if len(terms) == 2:
                break

        print(f"serve smoke against {daemon.url}")
        code, first = _post(daemon.url + "/query", {"terms": terms, "k": 5})
        check(code == 200 and not first["degraded"], "query answers")
        check(first["results"], "query returns results")
        code, second = _post(daemon.url + "/query", {"terms": terms, "k": 5})
        check(second["cached"] is True, "repeat query served from result cache")
        check(second["results"] == first["results"], "cached answer is identical")

        # Same terms, different k: result-cache miss, kernel-cache hit.
        code, third = _post(daemon.url + "/query", {"terms": terms, "k": 6})
        check(code == 200 and third["cached"] is False, "different k bypasses result cache")
        kernel_hits = _metric(daemon, "repro_serve_cache_hits_total", 'layer="kernel"')
        check(kernel_hits > 0, f"kernel-cache hits observable on /metrics ({kernel_hits:g})")

        queries = [{"terms": terms}, {"terms": dict(list(terms.items())[:1])}]
        counted = _metric(daemon, "repro_queries_total", 'engine="iVA"')
        code, batch = _post(daemon.url + "/query/batch", {"queries": queries, "k": 3})
        check(
            code == 200
            and len(batch["reports"]) == len(queries)
            and all(not r["degraded"] for r in batch["reports"]),
            "batch answers",
        )
        grown = _metric(daemon, "repro_queries_total", 'engine="iVA"') - counted
        check(
            grown == len(queries),
            f"batch queries counted on /metrics (+{grown:g} of {len(queries)})",
        )

        code, inserted = _post(daemon.url + "/admin/insert", {"values": terms})
        new_tid = inserted.get("tid")
        code, found = _post(daemon.url + "/query", {"terms": terms, "k": 10})
        check(
            new_tid in [r["tid"] for r in found["results"]],
            "inserted tuple immediately queryable",
        )
        code, _ = _post(daemon.url + "/admin/delete", {"tid": new_tid})
        check(code == 200, "delete accepted")
        code, summary = _post(daemon.url + "/admin/compact", {})
        check(
            code == 200 and summary["to_generation"] == 1,
            "online compaction advances the generation",
        )
        check(summary["dead_tuples_dropped"] >= 1, "compaction dropped tombstones")
        code, after = _post(daemon.url + "/query", {"terms": terms, "k": 5})
        check(
            code == 200 and after["generation"] == 1,
            "queries keep working on the new generation",
        )

        # k=7 is not in the result cache (a cached complete answer would —
        # correctly — satisfy a deadline-bounded request without degrading).
        code, cut = _post(
            daemon.url + "/query", {"terms": terms, "k": 7, "deadline_ms": 1e-6}
        )
        check(
            cut["degraded"] is True and cut["deadline_hit"] is True,
            "expired deadline degrades explicitly",
        )
        code, cut2 = _post(
            daemon.url + "/query", {"terms": terms, "k": 7, "deadline_ms": 1e-6}
        )
        check(cut2["cached"] is False, "degraded answers are never cached")

        code, health = _get(daemon.url + "/healthz")
        check(code == 200 and json.loads(health)["generation"] == 1, "healthz serves state")
        code, _ = _post(daemon.url + "/admin/drain", {})
        code, health = _get(daemon.url + "/healthz")
        check(code == 503, "drain flips healthz to 503")
    finally:
        daemon.close()

    if problems:
        print(f"serve smoke FAILED ({len(problems)} problem(s))")
        return 1
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
