"""Batched query processing: one synchronized scan, many queries.

A CWMS front-end serves many concurrent searches; since Algorithm 1's
filter phase is a sequential scan, queries can share it.  The batch engine
opens one scan over the *union* of the queries' attributes, evaluates
every query's bounds per tuple, keeps one pool per query, and — when a
tuple is a candidate for several queries at once — fetches it from the
table file once.

Answers are identical to running the queries one by one (each pool runs
the same Algorithm 1 decision); only the cost changes: index-scan I/O is
paid once per batch instead of once per query, and overlapping candidate
sets share their random accesses.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Union

from repro.core.engine import QueryResult, SearchReport, validate_fail_mode
from repro.core.iva_file import DELETED_PTR, IVAFile
from repro.core.kernel import (
    BLOCK_TUPLES,
    KernelCache,
    QueryKernel,
    validate_kernel_mode,
)
from repro.core.pool import ResultPool
from repro.core.signature import QueryStringEncoder
from repro.errors import DeadlineExceeded, QueryError, ReproError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profile import ProfileCollector
from repro.obs.trace import Tracer, get_tracer
from repro.query import Query
from repro.storage.table import SparseWideTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.config import ExecutorConfig

logger = logging.getLogger(__name__)


class BatchIVAEngine:
    """Shared-scan execution of a batch of top-k queries."""

    name = "iVA-batch"

    def __init__(
        self,
        table: SparseWideTable,
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
        kernel_cache: Optional[KernelCache] = None,
        scan_end_element: Optional[int] = None,
        shard_planner=None,
    ) -> None:
        self.table = table
        self.index = index
        self.distance = distance or DistanceFunction()
        #: Optional shared compiled-term cache, snapshot watermark and
        #: shard planner — same semantics as on
        #: :class:`~repro.core.engine.FilterAndRefineEngine`; the serving
        #: daemon injects all three per index snapshot.
        self.kernel_cache = kernel_cache
        self.scan_end_element = scan_end_element
        self.shard_planner = shard_planner
        #: When True every report in the batch carries an EXPLAIN ANALYZE
        #: artifact (``SearchReport.profile``); see :mod:`repro.obs.profile`.
        self.profile = profile
        #: Filter strategy: ``"scalar"`` or ``"v3"`` (see
        #: :mod:`repro.core.kernel`); answers are bit-identical.
        self.kernel = validate_kernel_mode(kernel)
        #: Scan-failure policy (see :class:`FilterAndRefineEngine`): the
        #: parallel path walks the shard-recovery ladder and flags every
        #: report in the batch ``degraded`` when a shard stays lost.
        self.fail_mode = validate_fail_mode(fail_mode)
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

    def _prepare(self, queries: Sequence[Union[Query, Mapping[str, object]]]) -> List[Query]:
        bound: List[Query] = []
        for query in queries:
            if isinstance(query, Mapping):
                bound.append(Query.from_dict(self.table.catalog, query))
            elif isinstance(query, Query):
                bound.append(query)
            else:
                raise QueryError(f"cannot interpret {query!r} as a query")
        return bound

    def search_batch(
        self,
        queries: Sequence[Union[Query, Mapping[str, object]]],
        k: int = 10,
        distance: Optional[DistanceFunction] = None,
        deadline_s: Optional[float] = None,
    ) -> List[SearchReport]:
        """Run all *queries* in one pass; reports align with the input.

        Dispatches the shared scan to the parallel executor when one is
        configured; the sequential loop runs otherwise (or as the fallback
        when the pool cannot start).  Both paths return bit-identical
        answers.

        *deadline_s* is a wall-clock budget for the whole batch: on expiry
        ``fail_mode="degrade"`` flags every report ``degraded``/
        ``deadline_hit`` (the shared scan was cut for all of them), while
        ``fail_mode="raise"`` raises :class:`~repro.errors.DeadlineExceeded`.
        """
        if not queries:
            return []
        bound = self._prepare(queries)
        deadline = (
            time.perf_counter() + deadline_s if deadline_s is not None else None
        )
        config = self.executor
        if config is not None and config.effective_workers() > 1:
            from repro.parallel.executor import (
                ParallelExecutionError,
                parallel_search_batch,
            )

            try:
                return parallel_search_batch(
                    self, bound, k=k, distance=distance, deadline=deadline
                )
            except ParallelExecutionError as exc:
                if not config.fallback:
                    raise
                logger.warning(
                    "parallel batch execution failed, running sequentially: %s", exc
                )
                self._registry().counter(
                    "repro_parallel_fallbacks_total",
                    labels={"engine": self.name},
                    help="Searches that fell back to the sequential path.",
                ).inc()
        return self._sequential_search_batch(bound, k, distance, deadline=deadline)

    def _sequential_search_batch(
        self,
        bound: Sequence[Query],
        k: int = 10,
        distance: Optional[DistanceFunction] = None,
        deadline: Optional[float] = None,
    ) -> List[SearchReport]:
        """The inline shared-scan loop.

        Cost attribution: the batch's shared I/O (the single scan, the
        de-duplicated table fetches) is reported once on the *first*
        report; ``tuples_scanned`` and ``table_accesses`` stay per-query
        ("how many tuples this query refined" — several queries refining
        the same tuple share one physical fetch).
        """
        dist = distance or self.distance
        attr_ids = sorted({t.attr.attr_id for q in bound for t in q.terms})
        position = {attr_id: i for i, attr_id in enumerate(attr_ids)}
        scan = self.index.open_scan(attr_ids, end_element=self.scan_end_element)
        n = self.index.config.n

        kernels: Optional[List[QueryKernel]] = None
        encoders = {}
        quantizers = {}
        if self.kernel == "v3":
            # One shared compiled artifact for the whole batch: queries
            # naming the same term reuse one set of gram masks and lookup
            # tables (and the per-block column cache keys on that identity).
            shared_terms = (
                self.kernel_cache if self.kernel_cache is not None else KernelCache()
            )
            kernels = [
                QueryKernel.compile(self.index, q, dist, position, cache=shared_terms)
                for q in bound
            ]
        else:
            for query in bound:
                for term in query.terms:
                    attr_id = term.attr.attr_id
                    if term.attr.is_text:
                        key = (attr_id, str(term.value))
                        if key not in encoders:
                            encoders[key] = QueryStringEncoder(str(term.value), n)
                    else:
                        entry = self.index.entry(attr_id)
                        quantizers[attr_id] = entry.quantizer if entry else None

        pools = [ResultPool(k) for _ in bound]
        reports = [SearchReport() for _ in bound]
        collectors: Optional[List[ProfileCollector]] = (
            [ProfileCollector.for_query(q, position) for q in bound]
            if self.profile
            else None
        )
        ndf_penalty = dist.ndf_penalty
        disk = self.table.disk
        io_start = disk.stats.io_time_ms
        wall_start = time.perf_counter()
        refine_io = 0.0
        refine_wall = 0.0
        segments_total = 0

        last_tid = -1
        try:
            if kernels is not None:
                for tids, ptrs in scan.blocks(BLOCK_TUPLES):
                    # One deadline check per block: the block is the unit
                    # of decode work, so a finer check buys nothing.
                    if deadline is not None and time.perf_counter() > deadline:
                        raise DeadlineExceeded(
                            f"batch deadline expired after tid {last_tid}"
                        )
                    count = len(tids)
                    block_cache: dict = {}
                    segments = scan.segment_blocks(tids)
                    segments_total += len(segments)
                    if collectors is not None:
                        for collector in collectors:
                            collector.on_segments(segments, count)
                    evaluated = [
                        kern.evaluate_segments(segments, count, block_cache)
                        for kern in kernels
                    ]
                    for i in range(count):
                        if ptrs[i] == DELETED_PTR:
                            continue
                        tid = tids[i]
                        last_tid = tid
                        record = None
                        for qi, query in enumerate(bound):
                            reports[qi].tuples_scanned += 1
                            estimated = evaluated[qi][0][i]
                            exact = evaluated[qi][1][i]
                            pool = pools[qi]
                            if exact:
                                pool.insert(tid, estimated)
                                reports[qi].exact_shortcuts += 1
                                if collectors is not None:
                                    collectors[qi].on_exact()
                                continue
                            if not pool.is_candidate(estimated, tid):
                                if collectors is not None:
                                    collectors[qi].on_pruned()
                                continue
                            if record is None:
                                io_before = disk.stats.io_time_ms
                                wall_before = time.perf_counter()
                                record = self.table.read(tid)
                                refine_io += disk.stats.io_time_ms - io_before
                                refine_wall += time.perf_counter() - wall_before
                            reports[qi].table_accesses += 1
                            actual = dist.actual(query, record)
                            pool.insert(tid, actual)
                            if collectors is not None:
                                collectors[qi].on_candidate()
                                collectors[qi].on_refined(estimated, actual)
            else:
                for tid, ptr in scan:
                    if deadline is not None and time.perf_counter() > deadline:
                        raise DeadlineExceeded(
                            f"batch deadline expired after tid {last_tid}"
                        )
                    payloads = scan.payloads(tid)
                    # Like the single-query scalar filter: probe before the
                    # tombstone check so entry counts match the v3 path.
                    if collectors is not None:
                        for collector in collectors:
                            collector.on_payloads(payloads)
                    if ptr == DELETED_PTR:
                        continue
                    last_tid = tid
                    record = None
                    text_bound_cache = {}
                    for qi, query in enumerate(bound):
                        reports[qi].tuples_scanned += 1
                        diffs: List[float] = []
                        exact = True
                        for term in query.terms:
                            attr_id = term.attr.attr_id
                            payload = payloads[position[attr_id]]
                            if payload is None:
                                diffs.append(ndf_penalty)
                                continue
                            exact = False
                            if term.attr.is_text:
                                key = (attr_id, str(term.value))
                                cached = text_bound_cache.get(key)
                                if cached is None:
                                    encoder = encoders[key]
                                    cached = min(
                                        encoder.lower_bound(s) for s in payload
                                    )
                                    text_bound_cache[key] = cached
                                diffs.append(cached)
                            else:
                                diffs.append(
                                    quantizers[attr_id].lower_bound(
                                        float(term.value), payload
                                    )
                                )
                        pool = pools[qi]
                        estimated = dist.combine_bounds(query, diffs)
                        if exact:
                            pool.insert(tid, estimated)
                            reports[qi].exact_shortcuts += 1
                            if collectors is not None:
                                collectors[qi].on_exact()
                            continue
                        if not pool.is_candidate(estimated, tid):
                            if collectors is not None:
                                collectors[qi].on_pruned()
                            continue
                        if record is None:
                            io_before = disk.stats.io_time_ms
                            wall_before = time.perf_counter()
                            record = self.table.read(tid)
                            refine_io += disk.stats.io_time_ms - io_before
                            refine_wall += time.perf_counter() - wall_before
                        reports[qi].table_accesses += 1
                        actual = dist.actual(query, record)
                        pool.insert(tid, actual)
                        if collectors is not None:
                            collectors[qi].on_candidate()
                            collectors[qi].on_refined(estimated, actual)
        except ReproError as exc:
            if self.fail_mode != "degrade":
                raise
            # Degrade-don't-die, batch-wide: the shared scan was cut for
            # every query, so every report carries the degradation flags
            # and the uncovered tail (-1 = through end of scan).
            hit = isinstance(exc, DeadlineExceeded)
            for report in reports:
                report.degraded = True
                report.deadline_hit = hit
                report.lost_tid_ranges.append((last_tid + 1, -1))
            logger.warning(
                "batch scan failed after tid %d; returning degraded results: %s",
                last_tid,
                exc,
            )

        if segments_total:
            self._registry().counter(
                "repro_kernel_segments_total",
                labels={"engine": self.name},
                help="Vector-list segments decoded columnar by the v3 kernel.",
            ).inc(segments_total)
        total_io = disk.stats.io_time_ms - io_start
        total_wall = time.perf_counter() - wall_start
        # Shared batch costs are attributed to the first report (the batch
        # ran once); per-query counters above stay exact.
        reports[0].refine_io_ms = refine_io
        reports[0].refine_wall_s = refine_wall
        reports[0].filter_io_ms = total_io - refine_io
        reports[0].filter_wall_s = total_wall - refine_wall
        for qi, pool in enumerate(pools):
            reports[qi].results = [
                QueryResult(tid=e.tid, distance=e.distance) for e in pool.results()
            ]
        if collectors is not None:
            metric = getattr(dist.metric, "name", "")
            for qi, collector in enumerate(collectors):
                reports[qi].profile = collector.build(
                    reports[qi],
                    query=bound[qi],
                    index=self.index,
                    engine=self.name,
                    kernel=self.kernel,
                    fail_mode=self.fail_mode,
                    metric=metric,
                    k=k,
                )
        return reports
