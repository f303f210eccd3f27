"""Query processing: the parallel filter-and-refine plan (Sec. IV-A, Alg. 1).

The engine scans the tuple list and the queried attributes' vector lists in
a synchronized manner, computes a per-tuple lower bound of the similarity
distance from the approximation vectors, and — interleaved with the scan
("refining happens from time to time during the filtering process") —
random-accesses the table file for every tuple whose bound beats the
temporary result pool.

The same template drives the SII baseline (which yields content-blind
bounds) so the two systems differ only in what their filter knows, exactly
the comparison the paper makes.

Instrumentation: every search reports the counters behind the paper's
figures — table-file accesses (Fig. 8), filter vs. refine modeled I/O time
and measured wall-clock time (Figs. 9/15), and the overall per-query time
(Figs. 10–14, 16).  The same numbers feed the observability layer
(:mod:`repro.obs`): each search runs inside a ``query`` span with
``filter``/``refine`` children and lands per-engine counters and
latency histograms in the metrics registry.
"""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.iva_file import DELETED_PTR, IVAFile
from repro.core.kernel import BLOCK_TUPLES, QueryKernel, validate_kernel_mode
from repro.core.pool import ResultPool
from repro.core.signature import QueryStringEncoder
from repro.errors import DeadlineExceeded, QueryError, ReproError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profile import ProfileCollector, QueryProfile
from repro.obs.trace import Tracer, get_tracer
from repro.query import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.config import ExecutorConfig

logger = logging.getLogger(__name__)

#: What a filter yields per live tuple: (tid, per-term lower bounds, exact).
#: ``exact`` is True when every bound is the exact difference (e.g. the
#: tuple is ndf on every queried attribute), so refinement is unnecessary.
FilterItem = Tuple[int, List[float], bool]

#: Accepted values of the engines' ``fail_mode`` knob.
FAIL_MODES = ("raise", "degrade")

#: Candidates buffered between page-ordered refine flushes (v3 kernel).
#: Candidacy is re-checked at flush against the then-current pool, so
#: deferral never admits a tuple the inline path would have pruned — it
#: only sorts the surviving table reads by page before issuing them.
REFINE_BATCH = 64


def validate_fail_mode(mode: str) -> str:
    """Validate a ``fail_mode`` value (``"raise"`` or ``"degrade"``)."""
    if mode not in FAIL_MODES:
        raise QueryError(f"fail_mode must be one of {FAIL_MODES}, got {mode!r}")
    return mode


class BoundEvaluator:
    """Per-query machinery turning scanner payloads into distance bounds.

    Owns the query-string encoders and numeric quantizers for one query's
    terms and converts one tuple's vector-list payloads into ``(diffs,
    exact)`` — the per-term lower bounds of Algorithm 1 plus the all-ndf
    shortcut flag.  Extracted from the engine's filter loop so shard
    workers in :mod:`repro.parallel` evaluate bounds with exactly the same
    code path as the sequential scan.

    *position* maps attribute id → index into the payload row; ``None``
    means payloads align 1:1 with the query's terms (the single-query
    scan).  The batch engine passes the union-scan position map instead.

    *cache*, when given to :meth:`evaluate`, memoizes text bounds per tuple
    keyed ``(attr_id, query string)`` so batched queries sharing a term pay
    the signature comparison once (the batch engine's optimization).
    """

    def __init__(
        self,
        index: IVAFile,
        query: Query,
        distance: DistanceFunction,
        position: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.query = query
        n = index.config.n
        self._encoders: List[Optional[QueryStringEncoder]] = []
        self._quantizers = []
        for term in query.terms:
            if term.attr.is_text:
                self._encoders.append(QueryStringEncoder(str(term.value), n))
                self._quantizers.append(None)
            else:
                self._encoders.append(None)
                entry = index.entry(term.attr.attr_id)
                self._quantizers.append(entry.quantizer if entry is not None else None)
        self._ndf_penalty = distance.ndf_penalty
        if position is None:
            self._slots = list(range(len(query.terms)))
        else:
            self._slots = [position[term.attr.attr_id] for term in query.terms]

    def evaluate(
        self,
        payloads: Sequence[object],
        cache: Optional[dict] = None,
    ) -> Tuple[List[float], bool]:
        """One tuple's per-term lower bounds plus the all-ndf flag."""
        diffs: List[float] = []
        exact = True
        for idx, term in enumerate(self.query.terms):
            payload = payloads[self._slots[idx]]
            if payload is None:
                diffs.append(self._ndf_penalty)
                continue
            exact = False
            if term.attr.is_text:
                if cache is None:
                    diffs.append(
                        min(self._encoders[idx].lower_bound(sig) for sig in payload)
                    )
                    continue
                key = (term.attr.attr_id, str(term.value))
                bound = cache.get(key)
                if bound is None:
                    bound = min(self._encoders[idx].lower_bound(sig) for sig in payload)
                    cache[key] = bound
                diffs.append(bound)
            else:
                diffs.append(self._quantizers[idx].lower_bound(float(term.value), payload))
        return diffs, exact


@dataclass(frozen=True)
class QueryResult:
    """One answer tuple with its actual similarity distance."""

    tid: int
    distance: float


@dataclass
class SearchReport:
    """Results plus the full cost breakdown of one query."""

    results: List[QueryResult] = field(default_factory=list)
    #: Tuple-list elements filtered (live tuples considered).
    tuples_scanned: int = 0
    #: Random accesses to the table file (the refine step; paper Fig. 8).
    table_accesses: int = 0
    #: Tuples resolved exactly from the index (all-ndf shortcut).
    exact_shortcuts: int = 0
    #: Modeled I/O milliseconds spent scanning index lists.
    filter_io_ms: float = 0.0
    #: Modeled I/O milliseconds spent on table-file random accesses.
    refine_io_ms: float = 0.0
    #: Measured wall-clock seconds (``time.perf_counter``) in the filter
    #: (scan + estimate) phase.  Wall time, not CPU time: it includes any
    #: time this thread spends off-CPU.
    filter_wall_s: float = 0.0
    #: Measured wall-clock seconds (``time.perf_counter``) in the refine
    #: (fetch + exact distance) phase.
    refine_wall_s: float = 0.0
    #: True when part of the scan was lost and the results may be missing
    #: true top-k members (``fail_mode="degrade"`` only; a non-degraded
    #: report is always complete).
    degraded: bool = False
    #: Shard indices whose tid ranges could not be scanned (parallel path).
    lost_shards: List[int] = field(default_factory=list)
    #: Inclusive (first, last) tid ranges not covered by the scan.  The
    #: sequential path reports ``(next_tid, -1)`` — ``-1`` meaning
    #: "through the end of the scan" — since it cannot know where the
    #: aborted scan would have ended.
    lost_tid_ranges: List[Tuple[int, int]] = field(default_factory=list)
    #: True when the query's deadline budget expired and the scan was cut
    #: short.  Always accompanied by ``degraded=True`` (a deadline cut is
    #: one way a report degrades; storage faults are the other).
    deadline_hit: bool = False
    #: Structured EXPLAIN ANALYZE artifact; populated only when the engine
    #: was built with ``profile=True`` (``--explain-analyze`` on the CLI).
    profile: Optional[QueryProfile] = None

    @property
    def total_io_ms(self) -> float:
        """Modeled I/O total across both phases."""
        return self.filter_io_ms + self.refine_io_ms

    @property
    def total_wall_s(self) -> float:
        """Measured wall-clock total across both phases."""
        return self.filter_wall_s + self.refine_wall_s

    @property
    def filter_time_ms(self) -> float:
        """Modeled filter time: simulated I/O plus measured wall-clock."""
        return self.filter_io_ms + self.filter_wall_s * 1000.0

    @property
    def refine_time_ms(self) -> float:
        """Modeled refine time: simulated I/O plus measured wall-clock."""
        return self.refine_io_ms + self.refine_wall_s * 1000.0

    @property
    def query_time_ms(self) -> float:
        """Modeled per-query time (the paper's "time per query")."""
        return self.filter_time_ms + self.refine_time_ms


def observe_search(
    registry: MetricsRegistry, engine_name: str, report: SearchReport
) -> None:
    """Land one finished report's numbers in the metrics registry.

    Every engine (template subclasses, DST, the distributed wrappers' inner
    engines) funnels through here so the registry speaks one vocabulary:
    per-engine query/filter/refine latency histograms plus the paper's
    counters (tuples scanned, table accesses, exact shortcuts).
    """
    labels = {"engine": engine_name}
    registry.counter(
        "repro_queries_total", labels=labels, help="Completed top-k searches."
    ).inc()
    registry.counter(
        "repro_tuples_scanned_total",
        labels=labels,
        help="Live tuples considered by the filter phase.",
    ).inc(report.tuples_scanned)
    registry.counter(
        "repro_table_accesses_total",
        labels=labels,
        help="Random table-file accesses during refinement (paper Fig. 8).",
    ).inc(report.table_accesses)
    registry.counter(
        "repro_exact_shortcuts_total",
        labels=labels,
        help="Tuples resolved exactly from the index (all-ndf shortcut).",
    ).inc(report.exact_shortcuts)
    registry.histogram(
        "repro_query_time_ms",
        labels=labels,
        help="Modeled per-query time: simulated I/O plus wall-clock CPU.",
    ).observe(report.query_time_ms)
    registry.histogram(
        "repro_filter_time_ms",
        labels=labels,
        help="Modeled filter-phase time per query (paper Figs. 9/15).",
    ).observe(report.filter_time_ms)
    registry.histogram(
        "repro_refine_time_ms",
        labels=labels,
        help="Modeled refine-phase time per query (paper Figs. 9/15).",
    ).observe(report.refine_time_ms)
    if report.degraded:
        registry.counter(
            "repro_degraded_queries_total",
            labels=labels,
            help="Searches that completed with lost shards or a cut scan.",
        ).inc()
    if report.deadline_hit:
        registry.counter(
            "repro_deadline_exceeded_total",
            labels=labels,
            help="Searches cut short by an expired deadline budget.",
        ).inc()


def trace_phases(tracer: Tracer, span, report: SearchReport) -> None:
    """Attach ``filter``/``refine`` child spans for a finished report.

    The two phases interleave during the scan ("refining happens from time
    to time during the filtering process"), so they are recorded as
    synthetic spans whose durations are the accumulated per-phase wall
    totals — they reconcile exactly with the report.
    """
    tracer.record(
        "filter",
        report.filter_wall_s * 1000.0,
        io_ms=report.filter_io_ms,
        tuples_scanned=report.tuples_scanned,
        exact_shortcuts=report.exact_shortcuts,
    )
    tracer.record(
        "refine",
        report.refine_wall_s * 1000.0,
        io_ms=report.refine_io_ms,
        table_accesses=report.table_accesses,
    )
    span.attrs["modeled_ms"] = report.query_time_ms
    span.attrs["results"] = len(report.results)


class FilterAndRefineEngine(ABC):
    """Template for scan-based engines: Algorithm 1 around a filter source."""

    #: Engine label used in benchmark tables.
    name = "engine"

    #: Whether this engine's filter can be sharded by :mod:`repro.parallel`.
    #: Engines that cannot (the baselines) still accept the ``parallelism``
    #: knob and degrade gracefully to the sequential path.
    supports_parallel = False

    def __init__(
        self,
        table,
        distance: Optional[DistanceFunction] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        parallelism: Optional[int] = None,
        executor: Optional["ExecutorConfig"] = None,
        kernel: str = "scalar",
        fail_mode: str = "raise",
        profile: bool = False,
        kernel_cache=None,
        scan_end_element: Optional[int] = None,
        shard_planner=None,
    ) -> None:
        self.table = table
        self.distance = distance or DistanceFunction()
        #: Optional shared :class:`~repro.core.kernel.KernelCache`: compiled
        #: query-term artifacts are reused across searches (the serving
        #: daemon injects one per index snapshot so Zipfian traffic skips
        #: recompilation).  None compiles fresh per query.
        self.kernel_cache = kernel_cache
        #: Optional scan watermark: only the first N tuple-list elements
        #: are visible to this engine's scans (snapshot-isolated reads).
        #: None scans everything committed at scan-open time.
        self.scan_end_element = scan_end_element
        #: Optional pre-built :class:`~repro.parallel.shards.ShardPlanner`
        #: shared across searches; the parallel executor uses it instead of
        #: building (and paying the plan I/O of) its own.
        self.shard_planner = shard_planner
        #: When True every search carries a :class:`ProfileCollector` and
        #: the report gains a ``profile`` (EXPLAIN ANALYZE) artifact.  Off
        #: by default: the hot loops then pay one None-check per tuple.
        self.profile = profile
        #: The in-flight search's collector; filter implementations feed
        #: their per-tuple payload probes through it.  ``search`` is not
        #: reentrant per engine instance, so one slot suffices.
        self._collector: Optional[ProfileCollector] = None
        #: Scan-failure policy: ``"raise"`` propagates storage errors
        #: (after any sequential fallback); ``"degrade"`` completes the
        #: query with what survived and flags ``SearchReport.degraded``.
        self.fail_mode = validate_fail_mode(fail_mode)
        #: Filter evaluation strategy: ``"scalar"`` (per-tuple ``move_to``
        #: plus per-term arithmetic) or ``"v3"`` (whole-segment columnar
        #: decode through a compiled :class:`~repro.core.kernel.QueryKernel`,
        #: plus page-batched refine).  Both return bit-identical answers;
        #: engines without a kernel filter implementation run the scalar
        #: path regardless.
        self.kernel = validate_kernel_mode(kernel)
        #: When the filter's bounds are exact (all queried attributes ndf),
        #: insert the distance directly instead of fetching the tuple.  The
        #: answer set is identical; only the access count changes.
        self.skip_exact = True
        #: Observability destinations; None means the process-global ones.
        self.registry = registry
        self.tracer = tracer
        if executor is None and parallelism is not None:
            from repro.parallel.config import ExecutorConfig

            executor = ExecutorConfig(workers=parallelism)
        #: Parallel-execution configuration; None means always sequential.
        self.executor = executor

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    @abstractmethod
    def _filter(self, query: Query, distance: DistanceFunction) -> Iterator[FilterItem]:
        """Yield (tid, per-term lower bounds, exact) for every live tuple."""

    def _filter_estimates(
        self, query: Query, distance: DistanceFunction
    ) -> Iterator[Tuple[int, float, bool]]:
        """Yield (tid, combined distance estimate, exact) per live tuple.

        The default is the scalar path — per-term bounds from
        :meth:`_filter` combined tuple-by-tuple.  Engines with a kernel
        filter override this to decode and evaluate whole blocks
        while yielding the exact same estimates in the exact same order.
        """
        for tid, diffs, exact in self._filter(query, distance):
            yield tid, distance.combine_bounds(query, diffs), exact

    def prepare_query(self, query: Union[Query, Mapping[str, object]]) -> Query:
        """Coerce a mapping into a validated :class:`Query`."""
        if isinstance(query, Query):
            return query
        if isinstance(query, Mapping):
            return Query.from_dict(self.table.catalog, query)
        raise QueryError(f"cannot interpret {query!r} as a query")

    def search(
        self,
        query: Union[Query, Mapping[str, object]],
        k: int = 10,
        distance: Optional[DistanceFunction] = None,
        deadline_s: Optional[float] = None,
    ) -> SearchReport:
        """Run a top-k structured similarity query.

        Dispatches to the parallel executor when one is configured (and the
        engine supports sharded filtering); otherwise — or when the pool
        cannot start and fallback is enabled — runs Algorithm 1 inline.
        Both paths return bit-identical results (see :mod:`repro.parallel`).

        *deadline_s* is a wall-clock budget for this search.  When it
        expires mid-scan, ``fail_mode="degrade"`` returns the partial
        answer flagged ``degraded``/``deadline_hit`` (candidates already
        found are still refined — never a silently-wrong full answer);
        ``fail_mode="raise"`` raises :class:`~repro.errors.DeadlineExceeded`.
        """
        query = self.prepare_query(query)
        deadline = (
            time.perf_counter() + deadline_s if deadline_s is not None else None
        )
        config = self.executor
        if (
            config is not None
            and self.supports_parallel
            and config.effective_workers() > 1
        ):
            from repro.parallel.executor import ParallelExecutionError, parallel_search

            try:
                return parallel_search(
                    self, query, k=k, distance=distance, deadline=deadline
                )
            except ParallelExecutionError as exc:
                if not config.fallback:
                    raise
                self._note_parallel_fallback(exc)
        return self._sequential_search(query, k, distance, deadline=deadline)

    def _note_parallel_fallback(self, exc: Exception) -> None:
        """Record an automatic degradation to the sequential path."""
        logger.warning("parallel execution failed, running sequentially: %s", exc)
        self._registry().counter(
            "repro_parallel_fallbacks_total",
            labels={"engine": self.name},
            help="Searches that fell back to the sequential path.",
        ).inc()

    def _sequential_search(
        self,
        query: Query,
        k: int = 10,
        distance: Optional[DistanceFunction] = None,
        deadline: Optional[float] = None,
    ) -> SearchReport:
        """The inline (single-threaded) Algorithm 1 loop.

        *deadline* is an absolute ``time.perf_counter()`` instant; the
        deadline check is per tuple and only paid when a deadline is set.
        """
        dist = distance or self.distance
        pool = ResultPool(k)
        report = SearchReport()
        disk = self.table.disk
        tracer = self._tracer()
        collector = ProfileCollector.for_query(query) if self.profile else None
        self._collector = collector

        with tracer.span(
            "query",
            engine=self.name,
            k=k,
            attr_ids=list(query.attribute_ids()),
        ) as span:
            start_io = disk.stats.io_time_ms
            start_wall = time.perf_counter()
            refine_io = 0.0
            refine_wall = 0.0

            # Page-batched refine (v3): buffer surviving candidates and
            # issue their table reads sorted by file offset.  Deferred
            # tuples are re-checked against the pool at flush; losing the
            # re-check implies the tuple cannot be in the final top-k
            # (actual >= estimate >= pool worst under the (distance, tid)
            # tie order), so the answer set is identical to inline refine.
            batched = self.kernel == "v3"
            refine_batch: List[Tuple[int, float]] = []
            locate = self.table.locate

            def flush_refines() -> None:
                nonlocal refine_io, refine_wall
                if not refine_batch:
                    return
                pending = sorted(refine_batch, key=lambda item: locate(item[0])[0])
                refine_batch.clear()
                for tid, estimated in pending:
                    if not pool.is_candidate(estimated, tid):
                        if collector is not None:
                            collector.on_pruned()
                        continue
                    refine_io_before = disk.stats.io_time_ms
                    refine_wall_before = time.perf_counter()
                    record = self.table.read(tid)
                    actual = dist.actual(query, record)
                    pool.insert(tid, actual)
                    refine_io += disk.stats.io_time_ms - refine_io_before
                    refine_wall += time.perf_counter() - refine_wall_before
                    report.table_accesses += 1
                    if collector is not None:
                        collector.on_candidate()
                        collector.on_refined(estimated, actual)

            last_tid = -1
            try:
                for tid, estimated, exact in self._filter_estimates(query, dist):
                    if deadline is not None and time.perf_counter() > deadline:
                        raise DeadlineExceeded(
                            f"deadline expired after tid {last_tid}"
                        )
                    last_tid = tid
                    report.tuples_scanned += 1
                    if exact and self.skip_exact:
                        pool.insert(tid, estimated)
                        report.exact_shortcuts += 1
                        if collector is not None:
                            collector.on_exact()
                        continue
                    if not pool.is_candidate(estimated, tid):
                        if collector is not None:
                            collector.on_pruned()
                        continue
                    if batched:
                        refine_batch.append((tid, estimated))
                        if len(refine_batch) >= REFINE_BATCH:
                            flush_refines()
                        continue
                    refine_io_before = disk.stats.io_time_ms
                    refine_wall_before = time.perf_counter()
                    record = self.table.read(tid)
                    actual = dist.actual(query, record)
                    pool.insert(tid, actual)
                    refine_io += disk.stats.io_time_ms - refine_io_before
                    refine_wall += time.perf_counter() - refine_wall_before
                    report.table_accesses += 1
                    if collector is not None:
                        collector.on_candidate()
                        collector.on_refined(estimated, actual)
                flush_refines()
            except ReproError as exc:
                if self.fail_mode != "degrade":
                    raise
                # Degrade-don't-die: keep what the scan delivered and
                # account the uncovered tail (-1 = through end of scan).
                report.degraded = True
                report.deadline_hit = isinstance(exc, DeadlineExceeded)
                report.lost_tid_ranges.append((last_tid + 1, -1))
                logger.warning(
                    "scan failed after tid %d; returning degraded results: %s",
                    last_tid,
                    exc,
                )
                try:
                    # Best effort: candidates found before the failure are
                    # still refined (the docstring's degraded-answer promise).
                    flush_refines()
                except ReproError:
                    logger.warning("degraded refine flush failed; dropping batch")
            finally:
                self._collector = None

            total_io = disk.stats.io_time_ms - start_io
            total_wall = time.perf_counter() - start_wall
            report.refine_io_ms = refine_io
            report.refine_wall_s = refine_wall
            report.filter_io_ms = total_io - refine_io
            report.filter_wall_s = total_wall - refine_wall
            report.results = [
                QueryResult(tid=entry.tid, distance=entry.distance)
                for entry in pool.results()
            ]
            if collector is not None:
                report.profile = collector.build(
                    report,
                    query=query,
                    index=getattr(self, "index", None),
                    engine=self.name,
                    kernel=self.kernel,
                    fail_mode=self.fail_mode,
                    metric=getattr(dist.metric, "name", ""),
                    k=k,
                )
            trace_phases(tracer, span, report)
        observe_search(self._registry(), self.name, report)
        return report


class IVAEngine(FilterAndRefineEngine):
    """Algorithm 1 over the iVA-file: content-conscious filtering."""

    name = "iVA"
    supports_parallel = True

    def __init__(
        self,
        table,
        index: IVAFile,
        distance: Optional[DistanceFunction] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        parallelism: Optional[int] = None,
        executor: Optional["ExecutorConfig"] = None,
        kernel: str = "scalar",
        fail_mode: str = "raise",
        profile: bool = False,
        kernel_cache=None,
        scan_end_element: Optional[int] = None,
        shard_planner=None,
    ) -> None:
        super().__init__(
            table,
            distance,
            registry=registry,
            tracer=tracer,
            parallelism=parallelism,
            executor=executor,
            kernel=kernel,
            fail_mode=fail_mode,
            profile=profile,
            kernel_cache=kernel_cache,
            scan_end_element=scan_end_element,
            shard_planner=shard_planner,
        )
        self.index = index

    def _filter(self, query: Query, distance: DistanceFunction) -> Iterator[FilterItem]:
        attr_ids = query.attribute_ids()
        scan = self.index.open_scan(attr_ids, end_element=self.scan_end_element)
        evaluator = BoundEvaluator(self.index, query, distance)
        collector = self._collector

        for tid, ptr in scan:
            payloads = scan.payloads(tid)
            # Probed before the tombstone check on purpose: the scan
            # decodes the payload row either way, and the per-attribute
            # entry counts then agree with the v3 path, which decodes
            # whole segments tombstones included.
            if collector is not None:
                collector.on_payloads(payloads)
            if ptr == DELETED_PTR:
                continue
            diffs, exact = evaluator.evaluate(payloads)
            yield tid, diffs, exact

    def _filter_estimates(
        self, query: Query, distance: DistanceFunction
    ) -> Iterator[Tuple[int, float, bool]]:
        """Scalar or v3 filtering, per the engine's ``kernel`` mode.

        The v3 path compiles the query once (``kernel.compile`` span),
        then per tuple-list block drives every scanner's ``decode_segment``
        and evaluates the decoded segments through the kernel's lookup
        tables (accumulated into one ``kernel.block`` span).  Estimates
        are bit-identical to the scalar path and arrive in the same tid
        order.
        """
        if self.kernel != "v3":
            yield from super()._filter_estimates(query, distance)
            return
        attr_ids = query.attribute_ids()
        scan = self.index.open_scan(attr_ids, end_element=self.scan_end_element)
        tracer = self._tracer()
        registry = self._registry()
        compile_start = time.perf_counter()
        compiled = QueryKernel.compile(
            self.index, query, distance, cache=self.kernel_cache
        )
        tracer.record(
            "kernel.compile",
            (time.perf_counter() - compile_start) * 1000.0,
            terms=len(compiled.terms),
            table_entries=compiled.table_entries,
        )
        registry.counter(
            "repro_kernel_compiles_total",
            labels={"engine": self.name},
            help="Query kernels compiled for v3 filtering.",
        ).inc()
        blocks = 0
        tuples = 0
        segments_total = 0
        block_wall = 0.0
        collector = self._collector
        for tids, ptrs in scan.blocks(BLOCK_TUPLES):
            block_start = time.perf_counter()
            segments = scan.segment_blocks(tids)
            estimates, exacts = compiled.evaluate_segments(segments, len(tids))
            block_wall += time.perf_counter() - block_start
            blocks += 1
            segments_total += len(segments)
            if collector is not None:
                collector.on_segments(segments, len(tids))
            for i, tid in enumerate(tids):
                if ptrs[i] == DELETED_PTR:
                    continue
                tuples += 1
                yield tid, estimates[i], exacts[i]
        tracer.record("kernel.block", block_wall * 1000.0, blocks=blocks, tuples=tuples)
        registry.counter(
            "repro_kernel_blocks_total",
            labels={"engine": self.name},
            help="Tuple-list blocks decoded and evaluated by the v3 kernel.",
        ).inc(blocks)
        registry.counter(
            "repro_kernel_segments_total",
            labels={"engine": self.name},
            help="Vector-list segments decoded columnar by the v3 kernel.",
        ).inc(segments_total)
