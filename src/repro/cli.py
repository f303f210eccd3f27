"""Command-line interface: build and query iVA-file databases.

The CLI operates on snapshot files (see :mod:`repro.storage.snapshot`), so
a database built once can be queried across invocations::

    python -m repro generate --tuples 5000 --snapshot shop.ivadb
    python -m repro build    --snapshot shop.ivadb --alpha 0.2
    python -m repro info     --snapshot shop.ivadb
    python -m repro query    --snapshot shop.ivadb -k 5 \
        --term Category0="Digital Camera" --term Price290=200

Observability: commands that execute queries (``query``, ``compare``,
``workload``) write a metrics sidecar (``<snapshot>.metrics.json``) that a
later ``repro stats --snapshot shop.ivadb --format prometheus|json``
re-renders; ``--trace FILE`` on ``query``/``workload`` writes the nested
``query -> filter/refine`` spans as JSON lines; ``--explain-analyze``
prints the per-query candidate funnel, per-attribute scan statistics and
lower-bound tightness (see docs/profiling.md).  ``repro trace analyze
spans.jsonl`` aggregates a span file into per-phase p50/p95/p99 tables,
and ``repro obs serve`` exposes ``/metrics`` (Prometheus text),
``/metrics.json``, ``/healthz`` and ``/traces/recent`` over HTTP.

Parallel execution: ``--workers N`` on ``query``/``compare``/``workload``
shards the filter scan across N worker threads (see docs/parallelism.md);
``repro bench parallel-scaling`` sweeps the worker count on the standard
bench environment and emits a worker-count-vs-latency table.

Filter kernel: ``--kernel v3`` on ``query``/``compare``/``workload``
switches the filter phase to the v3 kernel: query-compiled lookup tables,
whole-segment columnar decode, zero-copy mmap reads and page-batched
refinement (see docs/architecture.md).  Answers are bit-identical to the
default scalar path.  ``repro serve`` always runs v3.  ``repro bench
kernel-compare`` races both kernels on both codecs and fails on any top-k
divergence.

Resilience: ``--fail-mode degrade`` on ``query``/``compare``/``workload``
lets a query survive shard failures with an explicitly flagged partial
answer (see docs/resilience.md); ``repro fsck`` exits 0 (clean), 1
(findings), or 2 (files unreadable) and ``--repair`` quarantines damaged
vector lists and rebuilds them from the base table; ``repro bench
fault-sweep`` runs the chaos harness and fails on any silently wrong
answer.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAConfig, IVAFile
from repro.data.generator import DatasetConfig, DatasetGenerator
from repro.errors import ReproError
from repro.metrics.distance import DistanceFunction
from repro.obs.export import load_snapshot, render_json, render_prometheus, write_snapshot
from repro.obs.metrics import get_registry
from repro.obs.trace import JsonlSpanSink, SlowQueryLog, Tracer
from repro.codec import CODEC_NAMES
from repro.query import Query, QueryTerm
from repro.storage import SparseWideTable, simulated_backend
from repro.storage.snapshot import load_disk, save_disk


def _metrics_sidecar(snapshot_path: str) -> str:
    """Where query-running commands persist the metrics registry."""
    return snapshot_path + ".metrics.json"


def _save_metrics(snapshot_path: str) -> str:
    """Snapshot the process registry next to the database snapshot."""
    return write_snapshot(get_registry(), _metrics_sidecar(snapshot_path))


def _executor_from(args: argparse.Namespace):
    """An ExecutorConfig for ``--workers N`` (None when sequential)."""
    workers = getattr(args, "workers", None)
    if workers is None or workers <= 1:
        return None
    from repro.parallel import ExecutorConfig

    return ExecutorConfig(workers=workers)


def _add_workers_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="shard the filter scan across N worker threads "
        "(parallel execution; 1 = sequential)",
    )


def _add_kernel_flag(subparser: argparse.ArgumentParser) -> None:
    from repro.core.kernel import KERNEL_MODES

    subparser.add_argument(
        "--kernel",
        default="scalar",
        choices=list(KERNEL_MODES),
        help="filter evaluation strategy: scalar (per-tuple) or v3 "
        "(query-compiled lookup tables over whole-segment columnar decode, "
        "with page-batched refine); answers are identical",
    )


def _add_fail_mode_flag(subparser: argparse.ArgumentParser) -> None:
    from repro.core.engine import FAIL_MODES

    subparser.add_argument(
        "--fail-mode",
        default="raise",
        choices=list(FAIL_MODES),
        help="scan-failure policy: raise (default) or degrade (answer "
        "without lost shards, flagged on the report)",
    )


def _add_explain_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--explain-analyze",
        action="store_true",
        help="profile the search and print its EXPLAIN ANALYZE artifact: "
        "candidate funnel, per-attribute scan stats, lower-bound "
        "tightness, phase/shard times (see docs/profiling.md)",
    )


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """A tracer wired to --trace / --slow-ms, or None when neither is set."""
    trace_file = getattr(args, "trace", None)
    slow_ms = getattr(args, "slow_ms", None)
    if trace_file is None and slow_ms is None:
        return None
    try:
        sink = JsonlSpanSink(trace_file) if trace_file else None
    except OSError as exc:
        raise ReproError(f"cannot open trace file {trace_file!r}: {exc}")
    try:
        slow = SlowQueryLog(slow_ms) if slow_ms is not None else None
    except ValueError as exc:
        raise ReproError(f"bad --slow-ms: {exc}")
    return Tracer(sink=sink, slow_query_log=slow)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iVA-file over sparse wide tables (ICDE 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic SWT")
    generate.add_argument("--snapshot", required=True, help="output snapshot file")
    generate.add_argument("--tuples", type=int, default=5000)
    generate.add_argument("--attributes", type=int, default=200)
    generate.add_argument("--mean-attrs", type=float, default=12.0)
    generate.add_argument("--seed", type=int, default=42)

    build = sub.add_parser("build", help="build the iVA-file index")
    build.add_argument("--snapshot", required=True)
    build.add_argument("--alpha", type=float, default=0.20)
    build.add_argument("--n", type=int, default=2)
    build.add_argument("--name", default="iva")
    build.add_argument(
        "--codec",
        default="raw",
        choices=list(CODEC_NAMES),
        help="vector-list wire format: raw (fixed-width) or compressed "
        "(delta/gap-coded)",
    )

    query = sub.add_parser("query", help="run a top-k similarity query")
    query.add_argument("--snapshot", required=True)
    query.add_argument("-k", type=int, default=10)
    query.add_argument("--metric", default="L2", choices=["L1", "L2", "Linf"])
    query.add_argument("--ndf-penalty", type=float, default=20.0)
    query.add_argument("--name", default="iva", help="index name inside the snapshot")
    query.add_argument("--trace", metavar="FILE",
                       help="write query/filter/refine spans as JSON lines")
    query.add_argument("--slow-ms", type=float, metavar="MS",
                       help="log queries whose modeled time crosses MS")
    query.add_argument(
        "--term",
        action="append",
        required=True,
        metavar="ATTR=VALUE",
        help="query value; repeat for multiple attributes",
    )
    _add_workers_flag(query)
    _add_kernel_flag(query)
    _add_fail_mode_flag(query)
    _add_explain_flag(query)

    load = sub.add_parser("load", help="load tuples from JSONL or CSV")
    load.add_argument("--snapshot", required=True)
    load.add_argument("--jsonl", help="JSON Lines file to import")
    load.add_argument("--csv", help="CSV file to import")
    load.add_argument("--create", action="store_true",
                      help="start a fresh snapshot instead of appending")

    export = sub.add_parser("export", help="dump the table as JSON Lines")
    export.add_argument("--snapshot", required=True)
    export.add_argument("--jsonl", required=True, help="output file")

    explain = sub.add_parser("explain", help="preview a query's scan plan")
    explain.add_argument("--snapshot", required=True)
    explain.add_argument("--name", default="iva")
    explain.add_argument("--term", action="append", required=True,
                         metavar="ATTR=VALUE")

    advise = sub.add_parser("advise", help="recommend α from sample measurements")
    advise.add_argument("--snapshot", required=True)
    advise.add_argument("--queries", type=int, default=5,
                        help="sample queries to measure with")
    advise.add_argument("--values-per-query", type=int, default=3)
    advise.add_argument("--sample-tuples", type=int, default=1000)
    advise.add_argument(
        "--codec",
        default="raw",
        choices=list(CODEC_NAMES),
        help="codec the candidate indexes are built with",
    )

    compare = sub.add_parser(
        "compare", help="race iVA vs SII vs DST on sampled queries"
    )
    compare.add_argument("--snapshot", required=True)
    compare.add_argument("--name", default="iva")
    compare.add_argument("--queries", type=int, default=5)
    compare.add_argument("--values-per-query", type=int, default=3)
    compare.add_argument("-k", type=int, default=10)
    compare.add_argument("--queries-file",
                         help="replay a saved query set instead of sampling")
    _add_workers_flag(compare)
    _add_kernel_flag(compare)
    _add_fail_mode_flag(compare)

    workload = sub.add_parser(
        "workload", help="sample a query set and save it for replay"
    )
    workload.add_argument("--snapshot", required=True)
    workload.add_argument("--out", required=True, help="output JSON file")
    workload.add_argument("--queries", type=int, default=20)
    workload.add_argument("--warmup", type=int, default=5)
    workload.add_argument("--values-per-query", type=int, default=3)
    workload.add_argument("--seed", type=int, default=7)
    workload.add_argument("--name", default="iva",
                          help="index to measure the sampled queries against")
    workload.add_argument("--trace", metavar="FILE",
                          help="write spans of the measurement runs as JSON lines")
    workload.add_argument("--slow-ms", type=float, metavar="MS",
                          help="log queries whose modeled time crosses MS")
    workload.add_argument("--no-run", action="store_true",
                          help="only sample and save; skip the measurement pass")
    _add_workers_flag(workload)
    _add_kernel_flag(workload)
    _add_fail_mode_flag(workload)
    _add_explain_flag(workload)

    bench = sub.add_parser(
        "bench", help="run a benchmark suite on the standard bench environment"
    )
    bench.add_argument(
        "suite",
        choices=[
            "parallel-scaling",
            "codec-compare",
            "kernel-compare",
            "fault-sweep",
            "crash-sweep",
        ],
        help="benchmark suite to run",
    )
    bench.add_argument(
        "--workers-list",
        default="1,2,4",
        metavar="N,N,...",
        help="comma-separated worker counts to sweep (1 = sequential baseline)",
    )
    bench.add_argument("-k", type=int, default=10)
    bench.add_argument("--values-per-query", type=int, default=3)
    bench.add_argument(
        "--rates",
        default="0,0.02,0.1",
        metavar="R,R,...",
        help="fault-sweep only: comma-separated injection rates to sweep",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=13,
        help="fault-sweep / crash-sweep: scenario seed (runs are replayable)",
    )
    bench.add_argument(
        "--ops",
        type=int,
        default=24,
        help="crash-sweep only: mutations in the journaled workload",
    )

    fsck = sub.add_parser("fsck", help="check table and index integrity")
    fsck.add_argument("--snapshot", required=True)
    fsck.add_argument("--name", default="iva")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged index structures and rebuild them from "
        "the base table, then re-check and save the snapshot",
    )

    info = sub.add_parser("info", help="show table and index statistics")
    info.add_argument("--snapshot", required=True)
    info.add_argument("--name", default="iva")

    stats = sub.add_parser(
        "stats", help="dump the metrics snapshot of the last query run"
    )
    stats.add_argument("--snapshot", required=True)
    stats.add_argument("--format", default="prometheus",
                       choices=["prometheus", "json"])

    obs = sub.add_parser(
        "obs", help="serve /metrics, /healthz and /traces/recent over HTTP"
    )
    obs.add_argument("action", choices=["serve"], help="obs subcommand")
    obs.add_argument("--host", default="127.0.0.1")
    obs.add_argument("--port", type=int, default=9464,
                     help="listen port (0 = ephemeral)")
    obs.add_argument(
        "--snapshot",
        help="serve this snapshot's metrics sidecar (re-read per request) "
        "instead of the live process registry, so the endpoint follows "
        "query commands run against the snapshot",
    )
    obs.add_argument("--ring", type=int, default=512,
                     help="span ring-buffer capacity behind /traces/recent")

    serve = sub.add_parser(
        "serve", help="run the always-on query daemon over a snapshot"
    )
    serve.add_argument("--snapshot", required=True, help="snapshot file to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9470,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--name", default="iva", help="index name inside the snapshot")
    serve.add_argument("--metric", default="L2", choices=["L1", "L2", "Linf"])
    serve.add_argument("--ndf-penalty", type=float, default=20.0)
    serve.add_argument("--workers", type=int, default=0,
                       help="shard served scans across N worker threads "
                       "(0/1 = sequential)")
    serve.add_argument("--max-concurrency", type=int, default=8,
                       help="queries executing at once before queueing")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="queued queries before 429 rejection")
    serve.add_argument("--queue-timeout-ms", type=float, default=2000.0,
                       help="max wait for an execution slot before 429")
    serve.add_argument("--cache-entries", type=int, default=128,
                       help="result-cache capacity (0 disables result caching)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-query deadline budget (degraded "
                       "partial answers past it); requests may override")
    serve.add_argument("--beta", type=float, default=None,
                       help="deleted-fraction threshold that triggers "
                       "background compaction (paper Sec. IV-B); unset "
                       "means compaction only via POST /admin/compact")
    serve.add_argument("--ring", type=int, default=512,
                       help="span ring-buffer capacity behind /traces/recent")
    serve.add_argument("--save-on-exit", action="store_true",
                       help="write the served state back to the snapshot "
                       "file on shutdown")
    serve.add_argument("--journal", nargs="?", const="auto", default=None,
                       metavar="DIR",
                       help="write-ahead journal directory (crash-safe "
                       "acknowledged writes + recovery on startup); bare "
                       "--journal uses <snapshot>.wal")
    serve.add_argument("--fsync", choices=["always", "interval", "off"],
                       default="always",
                       help="journal flush policy (default: always)")
    serve.add_argument("--fsync-interval-ms", type=float, default=500.0,
                       help="flush cadence for --fsync interval")
    serve.add_argument("--lock", default=None, metavar="PATH",
                       help="serve-lock file guarding the snapshot "
                       "(default: <snapshot>.lock)")
    serve.add_argument("--takeover", action="store_true",
                       help="rolling restart: ask the live lock holder to "
                       "drain, wait for it to exit, recover, then serve")
    serve.add_argument("--takeover-wait-s", type=float, default=30.0,
                       help="max seconds to wait for the predecessor")
    serve.add_argument("--quota-rps", type=float, default=None,
                       help="per-client token-bucket rate (X-Client-Id "
                       "header); unset disables per-client quotas")
    serve.add_argument("--quota-burst", type=float, default=None,
                       help="per-client bucket depth (default: 2x rate)")
    serve.add_argument("--cache-probation-s", type=float, default=0.0,
                       help="result-cache doorkeeper window: cache a query "
                       "only on its second sighting within this many "
                       "seconds (0 disables the doorkeeper)")

    trace = sub.add_parser(
        "trace", help="aggregate a JSONL span file into latency tables"
    )
    trace.add_argument("action", choices=["analyze"], help="trace subcommand")
    trace.add_argument("spans", help="spans.jsonl written by --trace")
    trace.add_argument("--slowest", type=int, default=5,
                       help="how many slowest root spans to list")
    return parser


def _parse_terms(table: SparseWideTable, raw_terms: Sequence[str]) -> Query:
    terms: List[QueryTerm] = []
    for raw in raw_terms:
        if "=" not in raw:
            raise ReproError(f"bad --term {raw!r}; expected ATTR=VALUE")
        name, value = raw.split("=", 1)
        attr = table.catalog.require(name)
        if attr.is_numeric:
            try:
                terms.append(QueryTerm(attr=attr, value=float(value)))
            except ValueError:
                raise ReproError(
                    f"attribute {name!r} is numeric; {value!r} is not a number"
                ) from None
        else:
            terms.append(QueryTerm(attr=attr, value=value))
    return Query(terms=tuple(terms))


def _cmd_generate(args: argparse.Namespace) -> int:
    disk = simulated_backend()
    table = SparseWideTable(disk)
    config = DatasetConfig(
        num_tuples=args.tuples,
        num_attributes=args.attributes,
        mean_attrs_per_tuple=args.mean_attrs,
        seed=args.seed,
    )
    DatasetGenerator(config).populate(table)
    written = save_disk(disk, args.snapshot)
    print(
        f"generated {len(table)} tuples over {len(table.catalog)} attributes; "
        f"snapshot {args.snapshot} ({written:,} bytes)"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    disk = load_disk(args.snapshot)
    table = SparseWideTable.attach(disk)
    index = IVAFile.build(
        table,
        IVAConfig(alpha=args.alpha, n=args.n, name=args.name, codec=args.codec),
    )
    save_disk(disk, args.snapshot)
    print(
        f"built iVA-file {args.name!r}: {index.total_bytes():,} bytes "
        f"(α={args.alpha:.0%}, n={args.n}, codec={args.codec}) "
        f"over {len(table)} tuples"
    )
    return 0


def _open(args: argparse.Namespace):
    disk = load_disk(args.snapshot)
    table = SparseWideTable.attach(disk)
    index = IVAFile.attach(table, IVAConfig(name=args.name))
    return disk, table, index


def _cmd_query(args: argparse.Namespace) -> int:
    disk, table, index = _open(args)
    disk.publish_metrics(label="cli")
    query = _parse_terms(table, args.term)
    tracer = _make_tracer(args)
    engine = IVAEngine(
        table,
        index,
        DistanceFunction(metric=args.metric, ndf_penalty=args.ndf_penalty),
        tracer=tracer,
        executor=_executor_from(args),
        kernel=getattr(args, "kernel", "scalar"),
        fail_mode=getattr(args, "fail_mode", "raise"),
        profile=getattr(args, "explain_analyze", False),
    )
    report = engine.search(query, k=args.k)
    print(f"query: {query.describe()}  (k={args.k}, {args.metric})")
    if report.degraded:
        print(
            f"  WARNING: degraded answer; lost shards {report.lost_shards} "
            f"covering tid ranges {report.lost_tid_ranges}"
        )
    for rank, result in enumerate(report.results, start=1):
        record = table.read(result.tid)
        cells = ", ".join(
            f"{table.catalog.by_id(attr_id).name}={value!r}"
            for attr_id, value in sorted(record.cells.items())
        )
        print(f"  #{rank}  tid={result.tid}  distance={result.distance:.3f}  {cells}")
    print(
        f"scanned {report.tuples_scanned} tuples, "
        f"{report.table_accesses} table-file accesses, "
        f"{report.query_time_ms:.1f} ms modeled"
    )
    if report.profile is not None:
        print()
        print(report.profile.format())
    if tracer is not None and tracer.sink is not None:
        tracer.sink.close()
        print(f"wrote {tracer.sink.spans_written} trace span(s) to {args.trace}")
    sidecar = _save_metrics(args.snapshot)
    print(f"metrics snapshot: {sidecar} (render with `repro stats`)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    disk, table, index = _open(args)
    text = len(table.catalog.text_attributes())
    numeric = len(table.catalog.numeric_attributes())
    print(f"snapshot: {args.snapshot}")
    print(
        f"table: {len(table)} live tuples ({table.dead_tuples} dead), "
        f"{len(table.catalog)} attributes ({text} text / {numeric} numeric), "
        f"{table.file_bytes:,} bytes"
    )
    print(
        f"index {args.name!r}: {index.total_bytes():,} bytes, "
        f"{index.tuple_elements} tuple-list elements "
        f"({index.deleted_elements} tombstoned)"
    )
    by_type: dict = {}
    by_codec: dict = {}
    for entry in index.entries():
        by_type[entry.list_type.name] = by_type.get(entry.list_type.name, 0) + 1
        by_codec[entry.codec] = by_codec.get(entry.codec, 0) + 1
    layouts = ", ".join(f"{name}: {count}" for name, count in sorted(by_type.items()))
    print(f"vector-list layouts: {layouts}")
    codecs = ", ".join(f"{name}: {count}" for name, count in sorted(by_codec.items()))
    print(f"vector-list codecs: {codecs}")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.data.io_utils import load_csv, load_jsonl

    if bool(args.jsonl) == bool(args.csv):
        raise ReproError("pass exactly one of --jsonl or --csv")
    if args.create:
        disk = simulated_backend()
        table = SparseWideTable(disk)
    else:
        disk = load_disk(args.snapshot)
        table = SparseWideTable.attach(disk)
    if args.jsonl:
        count = load_jsonl(table, args.jsonl)
        source = args.jsonl
    else:
        count = load_csv(table, args.csv)
        source = args.csv
    save_disk(disk, args.snapshot)
    print(f"loaded {count} tuples from {source} into {args.snapshot} "
          f"({len(table)} live tuples total); rebuild indexes with `build`")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.data.io_utils import dump_jsonl

    disk = load_disk(args.snapshot)
    table = SparseWideTable.attach(disk)
    count = dump_jsonl(table, args.jsonl)
    print(f"exported {count} tuples to {args.jsonl}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explain import explain as build_plan

    _, table, index = _open(args)
    query = _parse_terms(table, args.term)
    print(build_plan(table, index, query).describe())
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.analysis.advisor import recommend_alpha
    from repro.data.workload import WorkloadGenerator

    disk = load_disk(args.snapshot)
    table = SparseWideTable.attach(disk)
    workload = WorkloadGenerator(table, seed=17)
    queries = [
        workload.sample_query(args.values_per_query) for _ in range(args.queries)
    ]
    recommendation = recommend_alpha(
        table, queries, sample_tuples=args.sample_tuples, codec=args.codec
    )
    print(recommendation.describe())
    print(f"\nrecommended: --alpha {recommendation.best_alpha}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.bench.workload_io import dump_query_set
    from repro.data.workload import WorkloadGenerator

    disk = load_disk(args.snapshot)
    disk.publish_metrics(label="cli")
    table = SparseWideTable.attach(disk)
    generator = WorkloadGenerator(table, seed=args.seed)
    query_set = generator.query_set(
        args.values_per_query, count=args.queries, warmup_count=args.warmup
    )
    dump_query_set(query_set, args.out)
    print(
        f"saved {args.queries} queries ({args.warmup} warm-up, "
        f"{args.values_per_query} values each) to {args.out}"
    )
    if not args.no_run:
        try:
            index = IVAFile.attach(table, IVAConfig(name=args.name))
        except ReproError:
            print(
                f"note: no index {args.name!r} in the snapshot; skipping the "
                "measurement pass (run `build` first, or pass --no-run)"
            )
        else:
            tracer = _make_tracer(args)
            engine = IVAEngine(
                table,
                index,
                tracer=tracer,
                executor=_executor_from(args),
                kernel=getattr(args, "kernel", "scalar"),
                fail_mode=getattr(args, "fail_mode", "raise"),
                profile=getattr(args, "explain_analyze", False),
            )
            for query in query_set.warmup:
                engine.search(query, k=10)
            reports = [engine.search(query, k=10) for query in query_set.measured]
            mean_ms = sum(r.query_time_ms for r in reports) / len(reports)
            print(
                f"measured {len(reports)} queries against index {args.name!r}: "
                f"{mean_ms:.1f} ms modeled per query"
            )
            if getattr(args, "explain_analyze", False):
                print()
                print("per-query candidate funnels")
                for qi, report in enumerate(reports):
                    prof = report.profile
                    if prof is None:
                        continue
                    print(
                        f"  q{qi:<3} scanned {prof.tuples_scanned:>6}  "
                        f"pruned {prof.bound_pruned:>6} "
                        f"({prof.prune_rate:.1%})  "
                        f"refined {prof.refined:>5} "
                        f"({prof.access_rate:.1%})  "
                        f"{prof.query_time_ms:>8.1f} ms modeled"
                    )
                slowest = max(
                    (r for r in reports if r.profile is not None),
                    key=lambda r: r.query_time_ms,
                    default=None,
                )
                if slowest is not None:
                    print()
                    print("slowest measured query:")
                    print(slowest.profile.format())
            if tracer is not None and tracer.sink is not None:
                tracer.sink.close()
                print(
                    f"wrote {tracer.sink.spans_written} trace span(s) "
                    f"to {args.trace}"
                )
    sidecar = _save_metrics(args.snapshot)
    print(f"metrics snapshot: {sidecar} (render with `repro stats`)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines.dst import DirectScanEngine
    from repro.baselines.sii import SIIEngine, SparseInvertedIndex
    from repro.data.workload import WorkloadGenerator

    _, table, index = _open(args)
    sii = SparseInvertedIndex.build(table, name="_compare_sii")
    if args.queries_file:
        from repro.bench.workload_io import load_query_set

        queries = list(load_query_set(args.queries_file, table.catalog).queries)
    else:
        workload = WorkloadGenerator(table, seed=23)
        queries = [
            workload.sample_query(args.values_per_query)
            for _ in range(args.queries)
        ]
    executor = _executor_from(args)
    engines = [
        IVAEngine(
            table,
            index,
            executor=executor,
            kernel=getattr(args, "kernel", "scalar"),
            fail_mode=getattr(args, "fail_mode", "raise"),
        ),
        # Baselines accept the knob for parity; their filters are not
        # sharded (and have no v3 kernel), so they run the plain
        # sequential path either way.
        SIIEngine(table, sii, executor=executor),
        DirectScanEngine(table),
    ]
    print(f"{len(queries)} queries, k={args.k}")
    print(f"{'engine':>6}  {'time/query (ms)':>16}  {'table accesses':>14}")
    for engine in engines:
        reports = [engine.search(query, k=args.k) for query in queries]
        mean_ms = sum(r.query_time_ms for r in reports) / len(reports)
        mean_acc = sum(r.table_accesses for r in reports) / len(reports)
        print(f"{engine.name:>6}  {mean_ms:>16.1f}  {mean_acc:>14.1f}")
    _save_metrics(args.snapshot)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import build_environment

    if args.suite == "codec-compare":
        from repro.bench.codec_compare import codec_compare_sweep, emit_codec_compare

        print("building the bench environment (generated dataset + indexes)...")
        env = build_environment()
        sweep = codec_compare_sweep(
            env, values_per_query=args.values_per_query, k=args.k
        )
        emit_codec_compare(sweep)
        broken = [run.codec for run in sweep.values() if not run.answers_identical]
        if broken:
            raise ReproError(
                f"codec(s) {broken} returned different answers than raw"
            )
        return 0

    if args.suite == "fault-sweep":
        from repro.bench.fault_sweep import emit_fault_sweep, fault_sweep

        try:
            rates = tuple(
                float(part) for part in args.rates.split(",") if part.strip()
            )
        except ValueError:
            raise ReproError(
                f"bad --rates {args.rates!r}; expected e.g. 0,0.02,0.1"
            ) from None
        if not rates:
            raise ReproError("--rates must name at least one injection rate")
        print("building the chaos environment (generated dataset + indexes)...")
        runs = fault_sweep(rates=rates, seed=args.seed, k=args.k)
        emit_fault_sweep(runs)
        wrong = [
            f"{run.codec}/{run.kernel}@{run.rate}"
            for run in runs
            if run.silently_wrong
        ]
        if wrong:
            raise ReproError(
                f"silently wrong answers under fault injection on: {wrong}"
            )
        return 0

    if args.suite == "crash-sweep":
        from repro.bench.crash_sweep import crash_sweep, emit_crash_sweep

        if args.ops < 4:
            raise ReproError("--ops must be at least 4")
        print(
            "building the crash environment (journaled daemon + kill points)..."
        )
        runs = crash_sweep(seed=args.seed, ops=args.ops, k=args.k)
        emit_crash_sweep(runs)
        failing = [run.name for run in runs if not run.ok]
        if failing:
            raise ReproError(
                f"acknowledged writes lost or divergent recovery at kill "
                f"point(s): {failing}"
            )
        return 0

    if args.suite == "kernel-compare":
        from repro.bench.kernel_compare import (
            emit_kernel_compare,
            kernel_compare_sweep,
        )

        try:
            worker_counts = tuple(
                int(part) for part in args.workers_list.split(",") if part.strip()
            )
        except ValueError:
            raise ReproError(
                f"bad --workers-list {args.workers_list!r}; expected e.g. 1,2,4"
            ) from None
        print("building the bench environment (generated dataset + indexes)...")
        env = build_environment()
        sweep = kernel_compare_sweep(
            env,
            worker_counts=worker_counts or (1,),
            values_per_query=args.values_per_query,
            k=args.k,
        )
        emit_kernel_compare(sweep)
        broken = [
            f"{run.codec}/x{run.workers}"
            for run in sweep
            if not run.answers_identical
        ]
        if broken:
            raise ReproError(
                f"v3 kernel diverged from scalar answers on: {broken}"
            )
        return 0

    from repro.bench.parallel_scaling import (
        emit_parallel_scaling,
        parallel_scaling_sweep,
    )

    try:
        worker_counts = tuple(
            int(part) for part in args.workers_list.split(",") if part.strip()
        )
    except ValueError:
        raise ReproError(
            f"bad --workers-list {args.workers_list!r}; expected e.g. 1,2,4"
        ) from None
    if not worker_counts:
        raise ReproError("--workers-list must name at least one worker count")
    print("building the bench environment (generated dataset + indexes)...")
    env = build_environment()
    sweep = parallel_scaling_sweep(
        env,
        worker_counts=worker_counts,
        values_per_query=args.values_per_query,
        k=args.k,
    )
    emit_parallel_scaling(sweep)
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Check (and optionally repair) a snapshot.

    Exit codes: 0 — clean; 1 — findings were reported; 2 — the snapshot
    (or part of it) could not be read at all.
    """
    from repro.storage.fsck import check_all, repair_index

    try:
        disk, table, index = _open(args)
        findings = check_all(table, index)
    except (ReproError, OSError) as exc:
        print(f"unreadable: {exc}", file=sys.stderr)
        return 2
    if findings and args.repair:
        for finding in findings:
            print(finding)
        for action in repair_index(table, index, findings):
            print(f"repair: {action}")
        save_disk(disk, args.snapshot)
        findings = check_all(table, index)
        print(f"re-check after repair: {len(findings)} finding(s) remain")
    if not findings:
        print(f"ok: {args.snapshot} is consistent "
              f"({len(table)} live tuples, index {args.name!r})")
        return 0
    for finding in findings:
        print(finding)
    errors = sum(1 for f in findings if f.severity == "error")
    print(f"{len(findings)} finding(s), {errors} error(s)")
    if any(f.kind == "unreadable" for f in findings):
        return 2
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import os

    sidecar = _metrics_sidecar(args.snapshot)
    if not os.path.exists(sidecar):
        raise ReproError(
            f"no metrics snapshot at {sidecar}; run `repro query`, "
            "`repro workload` or `repro compare` against this snapshot first"
        )
    registry = load_snapshot(sidecar)
    if args.format == "prometheus":
        sys.stdout.write(render_prometheus(registry))
    else:
        print(render_json(registry))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import os

    from repro.obs.server import ObsServer, SpanRingBuffer
    from repro.obs.trace import get_tracer

    registry_provider = None
    if args.snapshot:
        sidecar = _metrics_sidecar(args.snapshot)
        if not os.path.exists(sidecar):
            raise ReproError(
                f"no metrics snapshot at {sidecar}; run `repro query` or "
                "`repro workload` against this snapshot first"
            )

        def registry_provider():
            return load_snapshot(sidecar)

    ring = SpanRingBuffer(capacity=args.ring)
    # Root spans completed in this process (e.g. embedders driving the
    # tracer) land in /traces/recent automatically.
    get_tracer().sink = ring
    try:
        server = ObsServer(
            host=args.host,
            port=args.port,
            registry_provider=registry_provider,
            ring=ring,
        )
    except OSError as exc:
        raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}")
    source = (
        f"metrics sidecar {_metrics_sidecar(args.snapshot)} (re-read per request)"
        if args.snapshot
        else "live process registry"
    )
    print(f"serving {server.url}/metrics from {source}")
    print("endpoints: /metrics /metrics.json /healthz /traces/recent")
    print("press Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.server import SpanRingBuffer
    from repro.obs.trace import get_tracer
    from repro.serve import (
        AdmissionController,
        ClientQuota,
        QueryDaemon,
        ResultCache,
        ServeLock,
        SnapshotManager,
        WriteAheadJournal,
        recover,
    )

    if args.queue_timeout_ms <= 0:
        raise ReproError("--queue-timeout-ms must be positive")
    lock = ServeLock(args.lock or f"{args.snapshot}.lock")
    lock.acquire(takeover=args.takeover, wait_s=args.takeover_wait_s)
    try:
        disk, table, index = _open(args)
        journal = None
        checkpointer = None
        if args.journal is not None:
            from repro.storage.hostdisk import HostDisk

            journal_dir = (
                f"{args.snapshot}.wal" if args.journal == "auto" else args.journal
            )
            journal = WriteAheadJournal(
                HostDisk(journal_dir),
                fsync=args.fsync,
                fsync_interval_s=args.fsync_interval_ms / 1000.0,
            )
            report = recover(table, index, journal)
            if not report.clean:
                print(f"journal recovery: {report.to_dict()}")

            def checkpointer(gen):
                return save_disk(gen.disk, args.snapshot)

        manager = SnapshotManager(
            disk, table, index, journal=journal, checkpointer=checkpointer
        )
        if journal is not None and not report.clean:
            # Persist the replayed state immediately so a crash loop can't
            # keep re-replaying an ever-longer journal.
            manager.checkpoint(reason="recovery")
        ring = SpanRingBuffer(capacity=args.ring)
        get_tracer().sink = ring
        quota = None
        if args.quota_rps is not None:
            quota = ClientQuota(args.quota_rps, args.quota_burst)
        admission = AdmissionController(
            max_concurrency=args.max_concurrency,
            max_queue=args.max_queue,
            queue_timeout_s=args.queue_timeout_ms / 1000.0,
            quota=quota,
        )
        try:
            daemon = QueryDaemon(
                manager,
                host=args.host,
                port=args.port,
                metric=args.metric,
                ndf_penalty=args.ndf_penalty,
                workers=args.workers,
                deadline_ms=args.deadline_ms,
                beta=args.beta,
                admission=admission,
                result_cache=ResultCache(
                    capacity=args.cache_entries,
                    probation_s=args.cache_probation_s,
                ),
                ring=ring,
            )
        except OSError as exc:
            raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}")
        lock.update(host=args.host, port=daemon.port, url=daemon.url)
        print(
            f"serving snapshot {args.snapshot!r} (index {args.name!r}) "
            f"at {daemon.url}"
        )
        print(
            "endpoints: POST /query /query/batch /admin/insert /admin/delete "
            "/admin/update /admin/compact /admin/checkpoint /admin/drain "
            "/admin/undrain"
        )
        print("           GET  /metrics /metrics.json /healthz /traces/recent")
        if journal is not None:
            print(f"journal: {journal_dir} (fsync {args.fsync})")
        print("press Ctrl-C to stop")
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            daemon.close()
            if journal is not None:
                summary = manager.checkpoint(reason="shutdown")
                print(
                    f"checkpointed {args.snapshot} at seq "
                    f"{summary['applied_seq']} and rotated the journal"
                )
            elif args.save_on_exit:
                written = save_disk(manager.current.disk, args.snapshot)
                print(
                    f"saved served state back to {args.snapshot} "
                    f"({written} bytes)"
                )
    finally:
        lock.release()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace_analysis import analyze_file, format_analysis

    if args.slowest < 0:
        raise ReproError("--slowest must be non-negative")
    try:
        analysis = analyze_file(args.spans, slowest=args.slowest)
    except OSError as exc:
        raise ReproError(f"cannot read span file {args.spans!r}: {exc}")
    except ValueError as exc:
        raise ReproError(str(exc))
    print(format_analysis(analysis))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "query": _cmd_query,
    "load": _cmd_load,
    "export": _cmd_export,
    "explain": _cmd_explain,
    "advise": _cmd_advise,
    "compare": _cmd_compare,
    "workload": _cmd_workload,
    "bench": _cmd_bench,
    "fsck": _cmd_fsck,
    "info": _cmd_info,
    "stats": _cmd_stats,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
