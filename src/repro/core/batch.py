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
sets share their random accesses.  The filter is the v3 kernel; the
scalar oracle is the per-query :class:`~repro.core.engine.IVAEngine`.
"""

from __future__ import annotations

import logging
import time
from typing import List, Mapping, Optional, Sequence, Union

from repro.core.engine import (
    QueryResult,
    SearchReport,
    check_deadline,
    validate_fail_mode,
)
from repro.core.iva_file import IVAFile
from repro.core.kernel import BLOCK_TUPLES, KernelCache, QueryKernel
from repro.core.pool import BlockCandidacy, ResultPool, block_candidates
from repro.core.refine import Refiner
from repro.errors import DeadlineExceeded, QueryError, ReproError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profile import ProfileCollector
from repro.query import Query
from repro.storage.table import SparseWideTable

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
        fail_mode: str = "raise",
        profile: bool = False,
        kernel_cache: Optional[KernelCache] = None,
        scan_end_element: Optional[int] = None,
    ) -> None:
        self.table = table
        self.index = index
        self.distance = distance or DistanceFunction()
        #: Optional shared compiled-term cache and snapshot watermark —
        #: same semantics as on
        #: :class:`~repro.core.engine.FilterAndRefineEngine`; the serving
        #: daemon injects both per index snapshot.
        self.kernel_cache = kernel_cache
        self.scan_end_element = scan_end_element
        #: When True every report in the batch carries an EXPLAIN ANALYZE
        #: artifact (``SearchReport.profile``); see :mod:`repro.obs.profile`.
        self.profile = profile
        #: Scan-failure policy (see :class:`FilterAndRefineEngine`): a cut
        #: shared scan flags every report in the batch ``degraded``.
        self.fail_mode = validate_fail_mode(fail_mode)
        self.registry = registry

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

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
        """Run all *queries* in one shared scan; reports align with the input.

        *deadline_s* is a wall-clock budget for the whole batch: on expiry
        ``fail_mode="degrade"`` flags every report ``degraded``/
        ``deadline_hit`` (the shared scan was cut for all of them), while
        ``fail_mode="raise"`` raises :class:`~repro.errors.DeadlineExceeded`.

        Cost attribution: the batch's shared I/O (the single scan, the
        de-duplicated table fetches) is reported once on the *first*
        report; ``tuples_scanned`` and ``table_accesses`` stay per-query
        ("how many tuples this query refined" — several queries refining
        the same tuple share one physical fetch).
        """
        if not queries:
            return []
        bound = self._prepare(queries)
        deadline = (
            time.perf_counter() + deadline_s if deadline_s is not None else None
        )
        dist = distance or self.distance
        attr_ids = sorted({t.attr.attr_id for q in bound for t in q.terms})
        position = {attr_id: i for i, attr_id in enumerate(attr_ids)}
        scan = self.index.open_scan(attr_ids, end_element=self.scan_end_element)
        # One shared compiled artifact for the whole batch: queries naming
        # the same term reuse one set of gram masks and lookup tables (and
        # the per-block column cache keys on that identity).
        shared_terms = (
            self.kernel_cache if self.kernel_cache is not None else KernelCache()
        )
        kernels = [
            QueryKernel.compile(self.index, q, dist, position, cache=shared_terms)
            for q in bound
        ]

        pools = [ResultPool(k) for _ in bound]
        reports = [SearchReport() for _ in bound]
        collectors: Optional[List[ProfileCollector]] = (
            [ProfileCollector.for_query(q, position) for q in bound]
            if self.profile
            else None
        )
        candidacies = [
            BlockCandidacy(
                pool, collector=collectors[qi] if collectors is not None else None
            )
            for qi, pool in enumerate(pools)
        ]
        refiner = Refiner(self.table, bound, dist, pools, collectors=collectors)
        segments_total = 0

        last_tid = -1
        with self.table.disk.metered() as meter:
            wall_start = time.perf_counter()
            try:
                for tids, ptrs in scan.blocks(BLOCK_TUPLES):
                    # One deadline check per block: the block is the unit
                    # of decode work, so a finer check buys nothing.
                    check_deadline(deadline, last_tid)
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
                    for tid, qi, estimated in block_candidates(
                        candidacies, tids, ptrs, evaluated
                    ):
                        last_tid = tid
                        refiner.add(qi, tid, estimated)
                    last_tid = tids[-1]
                refiner.flush()
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
                try:
                    refiner.flush()
                except ReproError:
                    logger.warning("degraded refine flush failed; dropping batch")
            total_wall = time.perf_counter() - wall_start

        for qi, (report, candidacy) in enumerate(zip(reports, candidacies)):
            report.tuples_scanned = candidacy.scanned
            report.exact_shortcuts = candidacy.exact_shortcuts
            report.table_accesses = refiner.table_accesses[qi]
        if segments_total:
            self._registry().counter(
                "repro_kernel_segments_total",
                labels={"engine": self.name},
                help="Vector-list segments decoded columnar by the v3 kernel.",
            ).inc(segments_total)
        # Shared batch costs are attributed to the first report (the batch
        # ran once); per-query counters above stay exact.
        reports[0].refine_io_ms = refiner.io_ms
        reports[0].refine_wall_s = refiner.seconds
        reports[0].filter_io_ms = meter.io_ms - refiner.io_ms
        reports[0].filter_wall_s = total_wall - refiner.seconds
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
                    kernel="v3",
                    fail_mode=self.fail_mode,
                    metric=metric,
                    k=k,
                )
        return reports
