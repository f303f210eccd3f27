"""Query processing: the parallel filter-and-refine plan (Sec. IV-A, Alg. 1).

"Parallel" is the paper's word for scanning the tuple list and the vector
lists side by side in one pass; the plan runs on one thread.

The engine scans the tuple list and the queried attributes' vector lists in
a synchronized manner and computes a per-tuple lower bound of the
similarity distance from the approximation vectors.  The scalar oracle
then does what Algorithm 1 says: interleaved with the scan ("refining
happens from time to time during the filtering process") it
random-accesses the table file for every tuple whose bound beats the
temporary result pool.  The v3 kernel, which bounds whole blocks at once,
searches in two phases, as the VA-file does: the scan only prefilters and
keeps the survivors' bounds, and refinement then visits them best-first,
stopping at the first bound that can no longer beat the pool.  Both
return the same answers; v3 refines at most as many rows.

The same template drives the SII baseline (which yields content-blind
bounds) so the two systems differ only in what their filter knows, exactly
the comparison the paper makes.

One driver (``FilterAndRefineEngine._run``) serves one query or many: a
batch (:meth:`IVAEngine.search_batch`) shares one scan over the union of
its queries' attributes, keeps one pool per query, and fetches a tuple
that several queries want from the table file once.  Answers are
identical to searching the queries one by one; only the cost changes.

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
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.iva_file import DELETED_PTR, IVAFile
from repro.core.kernel import (
    BLOCK_TUPLES,
    KernelCache,
    QueryKernel,
    validate_kernel_mode,
)
from repro.core.pool import BlockCandidacy, ResultPool
from repro.core.refine import Refiner
from repro.core.signature import QueryStringEncoder
from repro.errors import DeadlineExceeded, QueryError, ReproError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profile import ProfileCollector, QueryProfile
from repro.obs.trace import Tracer, get_tracer
from repro.query import Query

logger = logging.getLogger(__name__)

#: What a filter yields per live tuple: (tid, per-term lower bounds, exact).
#: ``exact`` is True when every bound is the exact difference (e.g. the
#: tuple is ndf on every queried attribute), so refinement is unnecessary.
FilterItem = Tuple[int, List[float], bool]

#: Accepted values of the engines' ``fail_mode`` knob.
FAIL_MODES = ("raise", "degrade")


def validate_fail_mode(mode: str) -> str:
    """Validate a ``fail_mode`` value (``"raise"`` or ``"degrade"``)."""
    if mode not in FAIL_MODES:
        raise QueryError(f"fail_mode must be one of {FAIL_MODES}, got {mode!r}")
    return mode


def check_deadline(deadline: Optional[float], last_tid: int) -> None:
    """Raise :class:`DeadlineExceeded` once the absolute *deadline* passed."""
    if deadline is not None and time.perf_counter() > deadline:
        raise DeadlineExceeded(f"deadline expired after tid {last_tid}")


class BoundEvaluator:
    """Per-query machinery turning scanner payloads into distance bounds.

    Owns the query-string encoders and numeric quantizers for one query's
    terms and converts one tuple's vector-list payloads, aligned 1:1 with
    the query's terms, into ``(diffs, exact)`` — the per-term lower bounds
    of Algorithm 1 plus the all-ndf shortcut flag.  The scalar oracle's
    filter; the v3 kernel (:mod:`repro.core.kernel`) computes the same
    bounds a block at a time.
    """

    def __init__(
        self,
        index: IVAFile,
        query: Query,
        distance: DistanceFunction,
    ) -> None:
        self.query = query
        n = index.config.n
        self._encoders: List[Optional[QueryStringEncoder]] = []
        #: Each term's numeric quantizer (None for text terms and for
        #: attributes absent from the index).
        self.quantizers = []
        for term in query.terms:
            if term.attr.is_text:
                self._encoders.append(QueryStringEncoder(str(term.value), n))
                self.quantizers.append(None)
            else:
                self._encoders.append(None)
                entry = index.entry(term.attr.attr_id)
                self.quantizers.append(entry.quantizer if entry is not None else None)
        self._ndf_penalty = distance.ndf_penalty

    def evaluate(self, payloads: Sequence[object]) -> Tuple[List[float], bool]:
        """One tuple's per-term lower bounds plus the all-ndf flag."""
        diffs: List[float] = []
        exact = True
        for idx, term in enumerate(self.query.terms):
            payload = payloads[idx]
            if payload is None:
                diffs.append(self._ndf_penalty)
                continue
            exact = False
            if term.attr.is_text:
                diffs.append(
                    min(self._encoders[idx].lower_bound(sig) for sig in payload)
                )
            else:
                diffs.append(self.quantizers[idx].lower_bound(float(term.value), payload))
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
    #: Inclusive (first, last) tid ranges not covered by the scan:
    #: ``(next_tid, -1)``, ``-1`` meaning "through the end of the scan",
    #: since a cut scan cannot know where it would have ended.
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
    registry: MetricsRegistry,
    engine_name: str,
    report: SearchReport,
    *,
    times: bool = True,
) -> None:
    """Land one finished report's numbers in the metrics registry.

    Every engine (template subclasses, DST, the distributed wrappers' inner
    engines) funnels through here so the registry speaks one vocabulary:
    per-engine query/filter/refine latency histograms plus the paper's
    counters (tuples scanned, table accesses, exact shortcuts).  With
    *times* off only the counters move: a batch observes its shared time
    once, on the report that carries it, not as zeros for the others.
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
    if times:
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
            help="Searches that completed with a cut scan.",
        ).inc()
    if report.deadline_hit:
        registry.counter(
            "repro_deadline_exceeded_total",
            labels=labels,
            help="Searches cut short by an expired deadline budget.",
        ).inc()


def trace_phases(tracer: Tracer, span, reports: Sequence[SearchReport]) -> None:
    """Attach ``filter``/``refine`` child spans for one run's finished reports.

    On the scalar path the two phases interleave during the scan
    ("refining happens from time to time during the filtering process"),
    so they are recorded as synthetic spans whose durations are the
    accumulated per-phase wall totals — they reconcile exactly with the
    reports.  A batch's spans sum its reports: the shared costs sit on
    one report, the per-query counters on each.
    """
    tracer.record(
        "filter",
        sum(r.filter_wall_s for r in reports) * 1000.0,
        io_ms=sum(r.filter_io_ms for r in reports),
        tuples_scanned=sum(r.tuples_scanned for r in reports),
        exact_shortcuts=sum(r.exact_shortcuts for r in reports),
    )
    tracer.record(
        "refine",
        sum(r.refine_wall_s for r in reports) * 1000.0,
        io_ms=sum(r.refine_io_ms for r in reports),
        table_accesses=sum(r.table_accesses for r in reports),
    )
    span.attrs["modeled_ms"] = sum(r.query_time_ms for r in reports)
    span.attrs["results"] = sum(len(r.results) for r in reports)


def scan_slots(queries: Sequence[Query]) -> Dict[int, int]:
    """Attribute id → payload slot of one scan over *queries*' attributes.

    The scan opens the union of the queried attributes in ascending id
    order; for a single query the slots align 1:1 with its terms.
    """
    attr_ids = sorted({attr_id for q in queries for attr_id in q.attribute_ids()})
    return {attr_id: slot for slot, attr_id in enumerate(attr_ids)}


class FilterAndRefineEngine(ABC):
    """Template for scan-based engines: Algorithm 1 around a filter source."""

    #: Engine label used in benchmark tables.
    name = "engine"

    #: Filter evaluation strategy.  Template engines walk their filter
    #: tuple by tuple and refine inline; :class:`IVAEngine` also runs the
    #: v3 kernel (see its ``kernel`` argument).
    kernel = "scalar"

    def __init__(
        self,
        table,
        distance: Optional[DistanceFunction] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        fail_mode: str = "raise",
        profile: bool = False,
        kernel_cache=None,
        scan_end_element: Optional[int] = None,
    ) -> None:
        self.table = table
        self.distance = distance or DistanceFunction()
        #: Optional shared :class:`~repro.core.kernel.KernelCache`: compiled
        #: query-term artifacts are reused across searches (the serving
        #: daemon injects one per index snapshot so Zipfian traffic skips
        #: recompilation).  None compiles fresh per search.
        self.kernel_cache = kernel_cache
        #: Optional scan watermark: only the first N tuple-list elements
        #: are visible to this engine's scans (snapshot-isolated reads).
        #: None scans everything committed at scan-open time.
        self.scan_end_element = scan_end_element
        #: When True every search carries a :class:`ProfileCollector` per
        #: query and each report gains a ``profile`` (EXPLAIN ANALYZE)
        #: artifact.  Off by default: the hot loops then pay one
        #: None-check per tuple.
        self.profile = profile
        #: The in-flight scalar walk's collector; :meth:`_filter`
        #: implementations feed their per-tuple payload probes through it.
        #: A search is not reentrant per engine instance, so one slot
        #: suffices.
        self._collector: Optional[ProfileCollector] = None
        #: Scan-failure policy: ``"raise"`` propagates storage errors;
        #: ``"degrade"`` completes the search with what survived and flags
        #: ``SearchReport.degraded``.
        self.fail_mode = validate_fail_mode(fail_mode)
        #: Observability destinations; None means the process-global ones.
        self.registry = registry
        self.tracer = tracer

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    @abstractmethod
    def _filter(self, query: Query, distance: DistanceFunction) -> Iterator[FilterItem]:
        """Yield (tid, per-term lower bounds, exact) for every live tuple."""

    def _candidates(
        self,
        queries: Sequence[Query],
        distance: DistanceFunction,
        candidacies: Sequence[BlockCandidacy],
        deadline: Optional[float],
        progress: List[int],
    ) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(tid, query index, estimated)`` per refine candidate.

        The caller refines each candidate before asking for the next, so
        every decision sees the pool as it stands.  This is the scalar
        walk, for exactly one query: every live tuple from :meth:`_filter`
        has its per-term bounds combined and is decided through the
        query's candidacy, one at a time, checking *deadline* before
        each.  ``progress[0]`` is kept at the last tid the scan got past,
        for the degraded report.
        """
        (query,), (candidacy,) = queries, candidacies
        self._collector = candidacy.collector
        for tid, diffs, exact in self._filter(query, distance):
            check_deadline(deadline, progress[0])
            progress[0] = tid
            estimated = distance.combine_bounds(query, diffs)
            if candidacy.admit(tid, estimated, exact):
                yield tid, 0, estimated

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

        Candidates go to one :class:`~repro.core.refine.Refiner`: as the
        scan admits them on the scalar path (Algorithm 1), best-first
        after the scan under the v3 kernel.  I/O is metered on this
        thread, so other threads' disk traffic (concurrent daemon
        requests) never lands in the report.

        *deadline_s* is a wall-clock budget for the scan, checked once per
        filter block under v3 and per tuple on the scalar path, and only
        paid when a deadline is set.  When it expires mid-scan (or a
        storage error cuts the scan), ``fail_mode="degrade"`` returns the
        partial answer flagged ``degraded`` (and ``deadline_hit``), with
        the unscanned tail in ``lost_tid_ranges``: the candidates found
        so far are still refined (best-first under v3), so the answer is
        the exact top-k over the live tuples up to the last scanned tid —
        never a silently-wrong full answer.  ``fail_mode="raise"`` raises
        :class:`~repro.errors.DeadlineExceeded` (or the storage error).
        """
        return self._run([self.prepare_query(query)], k, distance, deadline_s)[0]

    def _run(
        self,
        queries: Sequence[Query],
        k: int,
        distance: Optional[DistanceFunction],
        deadline_s: Optional[float],
    ) -> List[SearchReport]:
        """Filter and refine for one query, or for a batch sharing one scan.

        Each query gets its own pool, candidacy, collector and report; one
        :class:`~repro.core.refine.Refiner` serves them all and refines
        whatever :meth:`_candidates` hands over.  The run is one ``query``
        span and one ``disk.metered()`` window, opened before the scan so
        scan-open reads land in the reports.  A cut scan degrades every
        report alike.  The run's shared costs (scan and table I/O, wall
        time) go on report 0; ``tuples_scanned``, ``exact_shortcuts`` and
        ``table_accesses`` stay per query.  The registry's time
        histograms take one sample per run (report 0's shared time);
        its counters count every query.
        """
        deadline = (
            time.perf_counter() + deadline_s if deadline_s is not None else None
        )
        dist = distance or self.distance
        position = scan_slots(queries)
        pools = [ResultPool(k) for _ in queries]
        reports = [SearchReport() for _ in queries]
        collectors: Optional[List[ProfileCollector]] = None
        if self.profile:
            collectors = [ProfileCollector.for_query(q, position) for q in queries]
        candidacies = [
            BlockCandidacy(pool, collector=collectors[qi] if collectors else None)
            for qi, pool in enumerate(pools)
        ]
        refiner = Refiner(self.table, queries, dist, pools, collectors=collectors)
        tracer = self._tracer()

        with tracer.span(
            "query",
            engine=self.name,
            k=k,
            attr_ids=list(position),
            queries=len(queries),
        ) as span, self.table.disk.metered() as meter:
            start_wall = time.perf_counter()
            progress = [-1]
            try:
                for tid, qi, estimated in self._candidates(
                    queries, dist, candidacies, deadline, progress
                ):
                    refiner.refine(qi, tid, estimated)
            except ReproError as exc:
                if self.fail_mode != "degrade":
                    raise
                last_tid = progress[0]
                # Degrade-don't-die: keep what the scan delivered and
                # account the uncovered tail (-1 = through end of scan),
                # on every report — the one scan was cut for all of them.
                for report in reports:
                    report.degraded = True
                    report.deadline_hit = isinstance(exc, DeadlineExceeded)
                    report.lost_tid_ranges.append((last_tid + 1, -1))
                logger.warning(
                    "scan failed after tid %d; returning degraded results: %s",
                    last_tid,
                    exc,
                )
            finally:
                self._collector = None

            for qi, report in enumerate(reports):
                report.tuples_scanned = candidacies[qi].scanned
                report.exact_shortcuts = candidacies[qi].exact_shortcuts
                report.table_accesses = refiner.table_accesses[qi]
                report.results = [
                    QueryResult(tid=entry.tid, distance=entry.distance)
                    for entry in pools[qi].results()
                ]
            shared = reports[0]
            shared.refine_io_ms = refiner.io_ms
            shared.refine_wall_s = refiner.seconds
            shared.filter_io_ms = meter.io_ms - refiner.io_ms
            shared.filter_wall_s = time.perf_counter() - start_wall - refiner.seconds
            if collectors is not None:
                for query, report, collector in zip(queries, reports, collectors):
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
            trace_phases(tracer, span, reports)
        registry = self._registry()
        for qi, report in enumerate(reports):
            observe_search(registry, self.name, report, times=qi == 0)
        return reports


class IVAEngine(FilterAndRefineEngine):
    """Algorithm 1 over the iVA-file: content-conscious filtering.

    *kernel* picks the filter: ``"v3"`` (the default) decodes whole
    segments columnar through compiled
    :class:`~repro.core.kernel.QueryKernel` objects, adds the length
    filter to the text bound, refines its survivors best-first after the
    scan and also runs batches (:meth:`search_batch`).  ``"scalar"``
    walks every scanner tuple by tuple and refines inline: the published
    Algorithm 1 with the paper's Eq. 3, kept as the identity oracle the
    other paths are checked against, one query at a time.  Both return
    bit-identical answers; v3 never refines more rows.
    """

    name = "iVA"

    def __init__(
        self,
        table,
        index: IVAFile,
        distance: Optional[DistanceFunction] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        kernel: str = "v3",
        fail_mode: str = "raise",
        profile: bool = False,
        kernel_cache=None,
        scan_end_element: Optional[int] = None,
    ) -> None:
        super().__init__(
            table,
            distance,
            registry=registry,
            tracer=tracer,
            fail_mode=fail_mode,
            profile=profile,
            kernel_cache=kernel_cache,
            scan_end_element=scan_end_element,
        )
        self.kernel = validate_kernel_mode(kernel)
        self.index = index

    def search_batch(
        self,
        queries: Sequence[Union[Query, Mapping[str, object]]],
        k: int = 10,
        distance: Optional[DistanceFunction] = None,
        deadline_s: Optional[float] = None,
    ) -> List[SearchReport]:
        """Run all *queries* in one shared v3 scan; reports align with the input.

        Answers are identical to searching the queries one by one; a tuple
        that several queries refine is fetched once.  *deadline_s* bounds
        the whole batch and a cut degrades (or raises for) every query
        alike.  The batch's shared I/O and wall time are reported on the
        first report; ``tuples_scanned`` and ``table_accesses`` stay per
        query.  Under ``kernel="scalar"`` this raises
        :class:`~repro.errors.QueryError`: the oracle runs one query at a
        time.
        """
        if self.kernel != "v3":
            raise QueryError(
                "search_batch needs the v3 kernel; the scalar oracle "
                "searches one query at a time"
            )
        if not queries:
            return []
        bound = [self.prepare_query(query) for query in queries]
        return self._run(bound, k, distance, deadline_s)

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

    def _candidates(
        self,
        queries: Sequence[Query],
        distance: DistanceFunction,
        candidacies: Sequence[BlockCandidacy],
        deadline: Optional[float],
        progress: List[int],
    ) -> Iterator[Tuple[int, int, float]]:
        """The v3 search: two phases, every query at once.

        Phase 1 opens one scan over the union of the queries' attributes
        and compiles every query once (``kernel.compile`` span) against
        one shared :class:`~repro.core.kernel.KernelCache`.  Per block,
        checking *deadline* first, it decodes every scanner's segment,
        evaluates each query's kernel (accumulated into one
        ``kernel.block`` span; queries naming the same term share one
        bound column) and hands the block, tombstones included, to each
        query's :meth:`~repro.core.pool.BlockCandidacy.add_block`.  No row
        is refined during the scan.

        Phase 2 yields each query's survivors best-first
        (:meth:`~repro.core.pool.BlockCandidacy.best_first`), query after
        query; rows a batch shares are read once.  A scan cut under
        ``fail_mode="degrade"`` still runs phase 2 over the survivors of
        the blocks scanned so far, then re-raises the cut for the caller
        to degrade the reports.
        """
        if self.kernel != "v3":
            yield from super()._candidates(
                queries, distance, candidacies, deadline, progress
            )
            return
        cut: Optional[ReproError] = None
        try:
            self._scan_blocks(queries, distance, candidacies, deadline, progress)
        except ReproError as exc:
            if self.fail_mode != "degrade":
                raise
            cut = exc
        for qi, candidacy in enumerate(candidacies):
            for tid, estimated in candidacy.best_first():
                yield tid, qi, estimated
        if cut is not None:
            raise cut

    def _scan_blocks(
        self,
        queries: Sequence[Query],
        distance: DistanceFunction,
        candidacies: Sequence[BlockCandidacy],
        deadline: Optional[float],
        progress: List[int],
    ) -> None:
        """Phase 1 of the v3 search (see :meth:`_candidates`)."""
        position = scan_slots(queries)
        scan = self.index.open_scan(list(position), end_element=self.scan_end_element)
        tracer = self._tracer()
        registry = self._registry()
        labels = {"engine": self.name}
        compile_start = time.perf_counter()
        cache = self.kernel_cache if self.kernel_cache is not None else KernelCache()
        kernels = [
            QueryKernel.compile(self.index, query, distance, position, cache=cache)
            for query in queries
        ]
        tracer.record(
            "kernel.compile",
            (time.perf_counter() - compile_start) * 1000.0,
            terms=sum(len(kern.terms) for kern in kernels),
            table_entries=sum(kern.table_entries for kern in kernels),
        )
        registry.counter(
            "repro_kernel_compiles_total",
            labels=labels,
            help="Query kernels compiled for v3 filtering.",
        ).inc(len(kernels))
        collectors = [c.collector for c in candidacies if c.collector is not None]
        blocks = 0
        tuples = 0
        segments_total = 0
        block_wall = 0.0
        for tids, ptrs in scan.blocks(BLOCK_TUPLES):
            # One deadline check per block: the block is the unit of
            # decode work, so a finer check buys nothing.
            check_deadline(deadline, progress[0])
            block_start = time.perf_counter()
            count = len(tids)
            segments = scan.segment_blocks(tids)
            columns: dict = {}
            evaluated = [
                kern.evaluate_segments(segments, count, columns) for kern in kernels
            ]
            block_wall += time.perf_counter() - block_start
            blocks += 1
            segments_total += len(segments)
            deleted = int(np.count_nonzero(ptrs == DELETED_PTR))
            tuples += count - deleted
            for collector in collectors:
                collector.on_segments(segments, count)
            tombstones = ptrs if deleted else None
            for candidacy, (estimates, exact) in zip(candidacies, evaluated):
                candidacy.add_block(tids, tombstones, estimates, exact)
            progress[0] = int(tids[-1])
        tracer.record("kernel.block", block_wall * 1000.0, blocks=blocks, tuples=tuples)
        registry.counter(
            "repro_kernel_blocks_total",
            labels=labels,
            help="Tuple-list blocks decoded and evaluated by the v3 kernel.",
        ).inc(blocks)
        registry.counter(
            "repro_kernel_segments_total",
            labels=labels,
            help="Vector-list segments decoded columnar by the v3 kernel.",
        ).inc(segments_total)
