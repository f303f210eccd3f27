"""The serving benchmark: one workload against a real ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload unique_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare BASE NEW    # result files or directories

A run sets the daemon up ``SETUPS`` times (``repro build`` on a copy of the
cached base table, then ``repro serve`` until ``/healthz`` is 200) and
reports the median as ``setup_s``, keeps the last daemon, drives the
workload for ``--seconds`` from this process, checks every answer, and
prints each metric with its unit.  Every end-to-end time is normalised for
the host's speed at the moment it was taken (see ``perfbench/hostspeed.py``);
the raw figures go to the result file.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the daemon is set
up once under ``perfbench/launch.py`` and the per-layer metrics are
reported instead).  The exit code is 1 when an answer was wrong or a
check failed.  Each run also writes a stamped result file under
``.perfbench/results/``; ``compare`` prints per-workload, per-metric deltas
between two sets of them, fails on wrong answers, more failures or
``modeled.*`` drift, and judges the end-to-end metrics against the bounds
in ``BENCHMARK.json``.

Workloads (queries: arity 1-5, k=10, L2, sampled from single tuples):

* ``unique_reads`` - closed loop, 1 connection, every query distinct, so
  the result cache never hits (20,000 tuples, the bench scale).
* ``zipf_reads`` - open loop at ``ZIPF_RATE`` requests/s over 2
  connections, queries drawn Zipf(1) from a 256-query pool (the result
  cache holds 128); latency is timed from each request's due time
  (5,000 tuples, so cache misses stay short next to the window).
* ``read_write_churn`` - closed loop, 1 connection; ``WRITE_SHARE`` of the
  operations are ``/admin/update`` or ``/admin/insert``, the rest Zipf
  reads; the daemon runs ``--journal --fsync always --beta BETA`` so
  background compaction + checkpoint cycles run during the window
  (2,000 tuples, so several cycles finish in one window).

``BENCHMARK.json`` lists ``unique_reads`` and ``read_write_churn``.
``zipf_reads`` runs only by hand: its read p95 falls on the boundary
between cache hits and misses, and its run-to-run spread exceeded the
bounds on a 2-vCPU host.  Its layers (HTTP, admission, result cache) are
also timed on the other two.

Every workload reports every end-to-end metric: the read-only workloads
send a ``WRITE_PROBE``-update probe to the first of their set-ups, which
measures the daemon's (unjournaled) write path.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import daemon as dmn  # noqa: E402 - needs the path above
from perfbench import hostspeed, loadgen  # noqa: E402
from perfbench.stats import mean, median, percentile  # noqa: E402

K = 10
SETUPS = 3
#: Host-speed samples taken before and after the open loop's window.
SPEED_BURST = 10
#: Latency limit behind ``reads_within_slo``.
SLO_MS = 500.0
#: Updates in the write probe of a read-only workload (``probe_writes``):
#: enough that the write p95 is not decided by a handful of the slowest.
WRITE_PROBE = 1000
#: Reads whose modeled (paper cost-model) counters are summed.
MODELED_PREFIX = 20
#: Reconciliation tolerance: over a traced run, the reads' client latency
#: not covered by the daemon's request spans (accept to handler exit) must
#: stay within this share of their total client latency.
RECONCILE_SHARE = 0.20
#: Clock slack when checking that the daemon's interval nests in the client's.
CLOCK_SLACK_MS = 0.5

#: Cost strata of the ``unique_reads`` universe (see ``_stratified_order``).
STRATA = 30
#: ``unique_reads`` reports the daemon's peak RSS after this many reads:
#: five rounds of the cost strata, so the peak comes from several of the
#: costliest queries rather than one or two.
RSS_AFTER_READS = 150
#: Arrival rate of ``zipf_reads``: about a fifth of the ~110 req/s the seed
#: commit's daemon completed on this mix with both connections busy.  At
#: half capacity about half the arrivals met a miss in service, so the
#: median flipped between the hit and the miss mode from run to run; this
#: rate keeps the daemon below half busy even when the host runs 2x slower.
ZIPF_RATE = 20.0
ZIPF_WARMUP_RANKS = 64
#: Zipf query pool of the Zipf workloads: twice the daemon's 128-entry
#: result cache, so about a fifth of the reads miss and the read p95 is a
#: miss while the median is a hit.
POOL = 256
WRITE_SHARE = 0.3
BETA = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    tuples: int
    universe: int
    flags: Tuple[str, ...] = ()


WORKLOADS = {
    # 450 distinct queries: about twice what a 35 s window reads at ~6.5
    # reads/s on a 2-vCPU host, so a faster daemon does not run out of them.
    "unique_reads": Workload("unique_reads", 20000, 450),
    "zipf_reads": Workload("zipf_reads", 5000, POOL),
    "read_write_churn": Workload(
        "read_write_churn", 2000, POOL,
        ("--journal", "--fsync", "always", "--beta", str(BETA)),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "read_qps": "1/s",
    "reads_within_slo": "ratio",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "daemon_rss_mb": "MB",
    "space_amp": "ratio",
}


@dataclass
class Op:
    """One request the client sends: a read of a universe query or a write."""

    kind: str  # "read" | "update" | "insert"
    query: int = -1
    tid: int = -1
    values: Optional[dict] = None
    phase: str = "window"  # "warmup" | "window" | "probe"
    request_id: str = ""


@dataclass
class Run:
    """Everything one benchmark run collects."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    setups: List[float] = field(default_factory=list)
    setup_factors: List[float] = field(default_factory=list)
    speed: hostspeed.Calibrator = field(default_factory=hostspeed.Calibrator)
    boots: List[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    window_s: float = 0.0
    wrong: List[str] = field(default_factory=list)
    wrong_ids: set = field(default_factory=set)
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    rss_mb: float = 0.0
    space_amp: float = 0.0
    prometheus: str = ""


# ----------------------------------------------------------------- driving


def _client(daemon, universe, prefix: str = ""):
    """``send(op)`` for the load generators; numbers requests from 1."""
    ids = itertools.count(1)

    def send(op: Op):
        op.request_id = f"{prefix}{next(ids)}"
        if op.kind == "read":
            return daemon.post("/query", {"terms": universe[op.query], "k": K}, op.request_id)
        if op.kind == "update":
            return daemon.post("/admin/update", {"tid": op.tid, "values": op.values}, op.request_id)
        return daemon.post("/admin/insert", {"values": op.values}, op.request_id)

    return send


def _stratified_order(costs: Sequence[float], rng: random.Random) -> List[int]:
    """Every universe index once, in rounds that take one query per cost stratum.

    The universe is cut into ``STRATA`` equal strata by scalar search cost;
    each round visits every stratum once in a seeded order, taking a seeded
    member of it.  Whatever prefix a run reaches then holds nearly the same
    cost mix for every seed, so seeds move the order and the members but
    not the read-latency distribution.
    """
    ranked = sorted(range(len(costs)), key=costs.__getitem__)
    size = len(ranked) // STRATA
    strata = [ranked[i * size:(i + 1) * size] for i in range(STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for round_ in range(size):
        visit = list(range(STRATA))
        rng.shuffle(visit)
        order.extend(strata[s][round_] for s in visit)
    return order


def probe_writes(run: Run, daemon, universe, answers) -> None:
    """The write probe: updates of distinct answer tuples, values from other queries.

    It runs on the first of the run's set-ups, which is stopped after it,
    so every seed's writes meet the same freshly booted daemon, not one
    whose caches and heap depend on how many reads that seed's window got
    through, and leave the served snapshot as the oracle computed it.  A
    host-speed sample follows every write.
    """
    rng = random.Random(run.seed)
    tids = sorted({tid for answer in answers for tid, _ in answer})
    rng.shuffle(tids)
    ops = [
        Op("update", tid=tid, values=dict(universe[rng.randrange(len(universe))]), phase="probe")
        for tid in tids[:WRITE_PROBE]
    ]
    send = _client(daemon, universe, prefix="probe-")
    run.outcomes += loadgen.closed_loop(send, iter(ops), 1e9, between=run.speed.sample)


def drive_unique(run: Run, daemon, universe, costs) -> None:
    rng = random.Random(run.seed)
    send = _client(daemon, universe)
    order = _stratified_order(costs, rng)

    def reads():
        for n, i in enumerate(order):
            # Each distinct query grows the daemon's kernel cache, so peak
            # RSS is read after a fixed number of reads, not at the end of
            # a window whose read count depends on speed.
            if n == RSS_AFTER_READS:
                run.rss_mb = daemon.peak_rss_mb()
            yield Op("read", query=i)

    started = time.perf_counter()
    window = loadgen.closed_loop(send, reads(), run.seconds, between=run.speed.maybe_sample)
    run.window_s = time.perf_counter() - started
    if len(window) == len(order):
        print("warning: the query universe ran out before the window ended", file=sys.stderr)
    run.outcomes += window


def drive_zipf(run: Run, daemon, universe, costs) -> None:
    # Popularity rank r is universe query r: the pool is fixed, the seed
    # drives the draws.
    sampler = loadgen.ZipfSampler(len(universe), 1.0, seed=run.seed)
    send = _client(daemon, universe)
    warm = [Op("read", query=r, phase="warmup") for r in range(ZIPF_WARMUP_RANKS)]
    outcomes = loadgen.closed_loop(send, iter(warm), 1e9)
    ops = [Op("read", query=sampler.sample()) for _ in range(int(run.seconds * ZIPF_RATE))]
    # The open loop never waits between requests, so the host speed is
    # sampled around its window instead of inside it.
    run.speed.burst(SPEED_BURST)
    started = time.perf_counter()
    window = loadgen.open_loop(send, ops, ZIPF_RATE, run.seconds, workers=2)
    run.window_s = max(o.done for o in window) - started if window else run.seconds
    run.speed.burst(SPEED_BURST)
    run.outcomes += outcomes + window


def drive_churn(run: Run, daemon, universe, mirror, oracle) -> None:
    rng = random.Random(run.seed)
    sampler = loadgen.ZipfSampler(len(universe), 1.0, seed=run.seed)
    live = mirror.table.live_tids()
    sources = [oracle.record_values(mirror.table, tid) for tid in rng.sample(live, 64)]
    send_raw = _client(daemon, universe)

    def send(op: Op):
        status, body = send_raw(op)
        if status == 200 and body is not None and op.kind == "update":
            live[live.index(op.tid)] = body["tid"]
        elif status == 200 and body is not None and op.kind == "insert":
            live.append(body["tid"])
        return status, body

    def ops():
        while True:
            if rng.random() >= WRITE_SHARE:
                yield Op("read", query=sampler.sample())
            elif rng.random() < 2.0 / 3.0:
                yield Op("update", tid=rng.choice(live), values=rng.choice(sources))
            else:
                yield Op("insert", values=rng.choice(sources))

    started = time.perf_counter()
    run.outcomes = loadgen.closed_loop(send, ops(), run.seconds, between=run.speed.maybe_sample)
    run.window_s = time.perf_counter() - started


# ---------------------------------------------------------------- checking


def check_static(run: Run, universe, answers, oracle) -> None:
    """Reads against the cached scalar answers; probe writes by tid sequence."""
    last_tid = None
    for o in run.outcomes:
        op = o.request
        if o.status != 200 or o.body is None:
            run.failed += 1
            continue
        if op.kind == "read":
            problem = oracle.check_answer(answers[op.query], o.body)
        elif o.body.get("replaced") != op.tid:
            problem = f"update of tid {op.tid} acknowledged as {o.body}"
        elif last_tid is not None and o.body["tid"] != last_tid + 1:
            problem = f"update returned tid {o.body['tid']}, expected {last_tid + 1}"
        else:
            problem = None
        if op.kind != "read":
            last_tid = o.body.get("tid")
        if problem is not None:
            run.failed += 1
            run.wrong_ids.add(op.request_id)
            run.wrong.append(f"request {op.request_id}: {problem}")


#: Every n-th churn read is re-answered on the mirror.
CHURN_SAMPLE_EVERY = 10


def check_churn(run: Run, universe, mirror) -> None:
    """Replay acknowledged writes on the mirror; check tids and sampled reads."""
    reads = 0
    for o in run.outcomes:
        op = o.request
        if o.status != 200 or o.body is None:
            run.failed += 1
            continue
        problem = None
        if op.kind == "update":
            expected = mirror.update(op.tid, op.values)
            if o.body.get("tid") != expected:
                problem = f"update returned tid {o.body.get('tid')}, mirror says {expected}"
        elif op.kind == "insert":
            expected = mirror.insert(op.values)
            if o.body.get("tid") != expected:
                problem = f"insert returned tid {o.body.get('tid')}, mirror says {expected}"
        else:
            reads += 1
            if o.body.get("degraded"):
                problem = "degraded answer"
            elif reads % CHURN_SAMPLE_EVERY == 1:
                from perfbench.oracle import check_answer

                problem = check_answer(mirror.answer(universe[op.query], K), o.body)
        if problem is not None:
            run.failed += 1
            run.wrong_ids.add(op.request_id)
            run.wrong.append(f"request {op.request_id}: {problem}")


def check_counters(run: Run, daemon) -> None:
    """The client's counts must equal the daemon's own ``/metrics`` counters."""
    text = daemon.prometheus()
    run.prometheus = text
    reads = [o for o in run.outcomes if o.request.kind == "read" and o.status == 200 and o.body]
    accesses = sum(o.body.get("table_accesses", 0) for o in reads if not o.body.get("cached"))
    hits = sum(1 for o in reads if o.body.get("cached"))
    pairs = [
        ("repro_table_accesses_total", {}, accesses),
        ("repro_serve_cache_hits_total", {"layer": "result"}, hits),
    ]
    for name, labels, counted in pairs:
        served = dmn.parse_prometheus(text, name, labels)
        if served != counted:
            run.checks.append(f"{name}{labels or ''} is {served:g} on /metrics, client counted {counted}")


# ----------------------------------------------------------------- metrics


def end_to_end(run: Run, normalise: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; times are host-normalised unless *normalise* is off.

    Reads are scaled by the whole host-speed unit and writes, which run no
    array code, by its interpreter part (see ``perfbench/hostspeed.py``).
    One figure stays raw: the write p95 of the journaled workload.  It
    falls in a cluster of writes at 12-16 ms, taken while a background
    compaction runs, whose latency does not follow the host's speed
    (likely waits for the GIL in 5 ms switch intervals); normalised, its
    IQR over five seeds was 0.23 of the median, against 0.04 raw.
    ``read_qps`` of the closed loops is good window reads per second of
    request time, which leaves out the untimed host-speed samples between
    requests; ``zipf_reads`` keeps reads per second of window, which its
    fixed arrival rate bounds.
    """
    window = [o for o in run.outcomes if o.request.phase == "window"]
    reads = [o for o in window if o.request.kind == "read"]
    writes = [o for o in run.outcomes if o.request.kind != "read" and o.request.phase != "warmup"]
    good = [o for o in reads if o.status == 200 and o.request.request_id not in run.wrong_ids]

    def ms(o, scaled: bool = normalise, interpreter: bool = False) -> float:
        if not scaled:
            return o.latency_ms
        return o.latency_ms * run.speed.factor(o.due, o.done, interpreter)

    read_ms = [ms(o) for o in reads]
    write_ms = [ms(o, interpreter=True) for o in writes]
    tail_ms = [ms(o, normalise and "--journal" not in run.workload.flags, True) for o in writes]
    if run.workload.name == "zipf_reads":
        qps = len(good) / run.window_s
    else:
        qps = len(good) / (sum(ms(o) for o in window) / 1000.0)
    setups = [s * f for s, f in zip(run.setups, run.setup_factors)] if normalise else run.setups
    return {
        "setup_s": median(setups),
        "read_p50_ms": percentile(read_ms, 50),
        "read_p95_ms": percentile(read_ms, 95),
        "read_qps": qps,
        "reads_within_slo": sum(1 for o in good if ms(o) <= SLO_MS) / len(reads),
        "write_p50_ms": percentile(write_ms, 50),
        "write_p95_ms": percentile(tail_ms, 95),
        "daemon_rss_mb": run.rss_mb,
        "space_amp": run.space_amp,
    }


PER_LAYER_UNITS = {
    "serve.http_ms": "ms",
    "admission.wait_ms": "ms",
    "admission.rejected": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_ms": "ms",
    "cache.invalidations": "count",
    "kernel.compile_ms": "ms",
    "kernel.cache_hit_ratio": "ratio",
    "kernel.evaluate_ms": "ms",
    "decode.ms": "ms",
    "decode.calls": "count",
    "tuple_list.scan_ms": "ms",
    "engine.search_ms": "ms",
    "engine.filter_wall_ms": "ms",
    "engine.refine_wall_ms": "ms",
    "engine.filter_self_ms": "ms",
    "engine.tuples_scanned": "count",
    "engine.accesses_per_result": "ratio",
    "table.read_ms": "ms",
    "table.reads": "count",
    "distance.actual_ms": "ms",
    "distance.actual_calls": "count",
    "modeled.filter_io_ms": "ms",
    "modeled.refine_io_ms": "ms",
    "modeled.table_accesses": "count",
    "snapshots.write_ms": "ms",
    "snapshots.pin_ms": "ms",
    "snapshots.compaction_s": "s",
    "snapshots.compactions": "count",
    "snapshots.checkpoint_ms": "ms",
    "journal.append_ms": "ms",
    "journal.fsyncs": "count",
    "journal.bytes_per_write": "bytes",
    "snapshot.save_ms": "ms",
    "snapshot.bytes": "bytes",
    "setup.build_s": "s",
    "setup.save_s": "s",
    "setup.boot_s": "s",
    "loadgen.lag_p95_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
    "error_ratio": "ratio",
}

#: Per-read self-time metrics and the tracer keys they sum.
READ_SELF_TIMES = {
    "admission.wait_ms": ("admission.admit",),
    "cache.get_ms": ("cache.get",),
    "kernel.compile_ms": ("kernel.compile",),
    "kernel.evaluate_ms": ("kernel.evaluate",),
    "decode.ms": ("decode",),
    "tuple_list.scan_ms": ("tuple_list.scan",),
    "engine.search_ms": ("engine.search",),
    "table.read_ms": ("table.read",),
    "distance.actual_ms": ("distance.actual",),
    "snapshots.pin_ms": ("snapshots.pin",),
}
FILTER_CHILDREN = ("kernel.compile", "kernel.evaluate", "decode", "tuple_list.scan")


def per_layer(run: Run, traces: Path) -> Tuple[Dict[str, float], Optional[str]]:
    """Per-layer metrics from the daemon and build traces; also the dominant layer."""
    serve = json.loads((traces / "serve.json").read_text())
    build = json.loads((traces / "build.json").read_text())
    by_id = {r["id"]: r for r in serve["requests"] if r["id"] is not None}
    window = [o for o in run.outcomes if o.request.phase == "window"]
    traced = [(o, by_id.get(o.request.request_id)) for o in run.outcomes if o.request.phase != "warmup"]
    missing = [o.request.request_id for o, r in traced if r is None]
    if missing:
        run.checks.append(f"{len(missing)} requests have no daemon trace (first: {missing[0]})")
    traced = [(o, r) for o, r in traced if r is not None]
    reads = [(o, r) for o, r in traced if o.request.kind == "read" and o.request.phase == "window"]
    writes = [(o, r) for o, r in traced if o.request.kind != "read"]

    # Reconciliation.  Per request: the daemon accepted the connection after
    # the client started it (both clocks are CLOCK_MONOTONIC), and the layer
    # self times sum to the daemon's span.  Over the run: the client time
    # outside every daemon span stays within RECONCILE_SHARE of the latency.
    residues, overhead_s, latency_s = [], 0.0, 0.0
    for o, r in traced:
        inside = (r["t1"] - r["t0"]) * 1000.0
        client = (o.done - o.sent) * 1000.0
        if r["t0"] < o.sent - CLOCK_SLACK_MS / 1000.0:
            run.checks.append(f"request {o.request.request_id}: accepted before it was sent")
        if r["handover_ms"] < -0.01 or abs(sum(r["self_ms"].values()) - inside) > 1e-6 * inside + 1e-3:
            run.checks.append(f"request {o.request.request_id}: timed calls overrun the daemon's span")
        if o.request.kind == "read" and o.request.phase == "window":
            residues.append(client - inside)
        overhead_s += r["wrapped_calls"] * serve["wrapper_cost_s"]
        latency_s += client / 1000.0
    read_ms = sum((o.done - o.sent) * 1000.0 for o, _ in reads)
    if reads and abs(sum(residues)) > RECONCILE_SHARE * read_ms:
        run.checks.append(
            f"reads spent {sum(residues) / read_ms:.1%} of their client latency outside "
            f"the daemon's spans (tolerance {RECONCILE_SHARE:.0%})"
        )

    def per_read(keys, kind="self_ms"):
        return mean([sum(r[kind].get(k, 0.0) for k in keys) for _, r in reads])

    def total(name, records):
        return sum(r["counts"].get(name, 0.0) for _, r in records)

    searches = total("engine.searches", reads)
    out: Dict[str, float] = {}
    for metric, keys in READ_SELF_TIMES.items():
        out[metric] = per_read(keys)
    out["serve.http_ms"] = mean(
        [(o.done - o.sent) * 1000.0 - sum(v for k, v in r["self_ms"].items() if k != "serve")
         for o, r in reads]
    )
    out["admission.rejected"] = total("admission.rejected", traced)
    gets = total("cache.gets", reads)
    out["cache.hit_ratio"] = total("cache.hits", reads) / gets if gets else 0.0
    out["cache.invalidations"] = total("cache.invalidations", traced) + serve["background"]["counts"].get(
        "cache.invalidations", 0.0
    )
    lookups = total("kernel.lookups", reads)
    out["kernel.cache_hit_ratio"] = total("kernel.hits", reads) / lookups if lookups else 0.0
    out["decode.calls"] = per_read(("decode",), "calls")
    for name in ("filter_wall_ms", "refine_wall_ms", "tuples_scanned"):
        out[f"engine.{name}"] = total(f"engine.{name}", reads) / searches if searches else 0.0
    filter_self = [
        r["counts"].get("engine.filter_wall_ms", 0.0) - sum(r["self_ms"].get(k, 0.0) for k in FILTER_CHILDREN)
        for _, r in reads
        if r["counts"].get("engine.searches")
    ]
    out["engine.filter_self_ms"] = mean(filter_self)
    results = total("engine.results", reads)
    out["engine.accesses_per_result"] = total("engine.table_accesses", reads) / results if results else 0.0
    out["table.reads"] = per_read(("table.read",), "calls")
    out["distance.actual_calls"] = per_read(("distance.actual",), "calls")
    prefix = sorted(reads, key=lambda pair: int(pair[0].request.request_id))[:MODELED_PREFIX]
    out["modeled.filter_io_ms"] = total("modeled.filter_io_ms", prefix)
    out["modeled.refine_io_ms"] = total("modeled.refine_io_ms", prefix)
    out["modeled.table_accesses"] = total("engine.table_accesses", prefix)
    out["snapshots.write_ms"] = mean([r["self_ms"].get("snapshots.write", 0.0) for _, r in writes])
    out["journal.append_ms"] = mean([r["self_ms"].get("journal.append", 0.0) for _, r in writes])
    events = serve["events"]
    out["snapshots.compaction_s"] = mean(events.get("snapshots.compaction_ms", [])) / 1000.0
    out["snapshots.compactions"] = float(len(events.get("snapshots.compaction_ms", [])))
    out["snapshots.checkpoint_ms"] = mean(events.get("snapshots.checkpoint_ms", []))
    out["journal.fsyncs"] = dmn.parse_prometheus(run.prometheus, "repro_journal_fsyncs_total")
    appends = dmn.parse_prometheus(run.prometheus, "repro_journal_appends_total")
    written = dmn.parse_prometheus(run.prometheus, "repro_journal_bytes_written_total")
    out["journal.bytes_per_write"] = written / appends if appends else 0.0
    built = build["events"]
    out["snapshot.save_ms"] = mean(built["snapshot.save_ms"] + events.get("snapshot.save_ms", []))
    out["snapshot.bytes"] = mean(built["snapshot.bytes"] + events.get("snapshot.bytes", []))
    out["setup.build_s"] = built["iva_file.build_ms"][0] / 1000.0
    out["setup.save_s"] = built["snapshot.save_ms"][0] / 1000.0
    out["setup.boot_s"] = run.boots[0]
    out["loadgen.lag_p95_ms"] = percentile([o.lateness_ms for o in window], 95)
    out["trace.overhead_ratio"] = overhead_s / latency_s if latency_s else 0.0
    out["trace.unattributed_ms"] = mean(residues)
    shares = {"serve.http_ms": out["serve.http_ms"]}
    shares.update({m: out[m] for m in READ_SELF_TIMES})
    dominant = max(shares, key=shares.get) if reads else None
    return out, dominant


# ------------------------------------------------------------------ a run


def stamp(run: Run) -> dict:
    from perfbench.oracle import UNIVERSE_SEED

    def git(*args) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "dataset": {"tuples": run.workload.tuples, "attributes": 300, "seed": 42},
        "seeds": {"workload": run.seed, "universe": UNIVERSE_SEED},
        "daemon_flags": list(run.workload.flags),
        "setups": len(run.setups),
        "seconds": run.seconds,
    }


def _stop(run: Run, daemon) -> None:
    code = daemon.stop()
    if code != 0:
        run.checks.append(f"repro serve exited {code} on SIGINT")


def execute(run: Run) -> Tuple[Dict[str, float], Dict[str, str], Optional[str]]:
    from perfbench import oracle  # imports repro: only after main() found src/

    workload = run.workload
    rundir = WORK / "runs" / f"{workload.name}-{run.seed}-{int(run.trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    logs = rundir / "logs"
    logs.mkdir(parents=True)
    traces = rundir / "traces" if run.trace else None
    if traces is not None:
        traces.mkdir()
    cache = WORK / "cache"
    base, table_bytes = oracle.base_snapshot(cache, workload.tuples)
    snapshot = rundir / "db.ivadb"
    read_only = workload.name != "read_write_churn"
    daemon = None
    try:
        # A traced run reports no setup_s, so it sets up once (and sends no
        # write probe: its write-path layers are timed on the churn).
        for i in range(1 if run.trace else SETUPS):
            if daemon is not None:
                _stop(run, daemon)
            started = time.perf_counter()
            with run.speed.alongside():
                seconds, boot, daemon = dmn.setup(base, snapshot, workload.flags, logs, traces)
            ended = time.perf_counter()
            run.setups.append(seconds)
            run.setup_factors.append(run.speed.factor(started, ended))
            run.boots.append(boot)
            if read_only and i == 0:
                pool = oracle.load_universe(cache, snapshot, workload.universe, K)
                universe, answers = pool.queries, pool.answers
                if not run.trace:
                    probe_writes(run, daemon, universe, answers)
        if read_only:
            drive = drive_unique if workload.name == "unique_reads" else drive_zipf
            drive(run, daemon, universe, pool.costs)
        else:
            mirror = oracle.Mirror(snapshot)
            universe = oracle.sample_universe(mirror.table, workload.universe)
            drive_churn(run, daemon, universe, mirror, oracle)
        check_counters(run, daemon)
        run.rss_mb = run.rss_mb or daemon.peak_rss_mb()
        stored = snapshot.stat().st_size + sum(
            p.stat().st_size for p in Path(f"{snapshot}.wal").glob("*") if p.is_file()
        )
        run.space_amp = stored / table_bytes
    finally:
        if daemon is not None:
            _stop(run, daemon)
    if workload.name == "read_write_churn":
        check_churn(run, universe, mirror)
    else:
        check_static(run, universe, answers, oracle)
    if run.trace:
        metrics, dominant = per_layer(run, traces)
        metrics["error_ratio"] = run.failed / len(run.outcomes)
        return metrics, PER_LAYER_UNITS, dominant
    shutil.rmtree(rundir, ignore_errors=True)
    return end_to_end(run), END_TO_END_UNITS, None


def host_record(run: Run) -> dict:
    """What the result file keeps about the host-speed normalisation."""
    unit, spread, samples = run.speed.summary()
    record = {"reference_ms": hostspeed.REFERENCE_MS, "unit_median_ms": unit,
              "unit_max_over_min": spread, "samples": samples,
              "sample_times": run.speed.times, "sample_unit_ms": run.speed.unit_ms,
              "sample_python_ms": run.speed.python_ms}
    if not run.trace:
        record["raw_metrics"] = end_to_end(run, normalise=False)
    return record


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    metrics, units, dominant = execute(run)
    for problem in run.wrong + run.checks:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = not run.wrong and not run.checks
    result = {
        "correct": correct,
        "attempted": len(run.outcomes),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    host = host_record(run)
    record = dict(result, workload=args.workload, trace=args.trace, stamp=stamp(run),
                  dominant_layer=dominant, problems=run.wrong + run.checks, host=host)
    (WORK / "results" / name).write_text(json.dumps(record, indent=2))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run.outcomes)} requests, {run.failed} failed, correct={correct}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:28s} {value['value']:14.4f} {value['unit']}")
    print(f"  set-ups (s): {', '.join(f'{s:.3f}' for s in run.setups)} raw, "
          f"host factors {', '.join(f'{f:.3f}' for f in run.setup_factors)}")
    print(f"  host unit: median {host['unit_median_ms']:.3f} ms over {host['samples']} samples "
          f"(max/min {host['unit_max_over_min']:.2f}; reference {hostspeed.REFERENCE_MS} ms)")
    for metric, value in host.get("raw_metrics", {}).items():
        print(f"  raw {metric:24s} {value:14.4f}")
    if dominant is not None:
        print(f"  dominant layer per read: {dominant}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
