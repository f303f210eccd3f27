"""The refine step of Algorithm 1: fetch each candidate, pool its exact distance.

Every search, one query or a batch, hands the candidates its filter
admits to one :class:`Refiner`.  Buffered candidates are issued sorted by
their row's table-file offset and re-checked against their pool first.
Losing the re-check implies the tuple cannot be in the final top-k
(``actual >= estimate >= pool worst`` under the ``(distance, tid)`` tie
order), so deferral never changes an answer, only when pools tighten.
A buffer of one refines inline in admission order, as the published
Algorithm 1 (the scalar oracle) does.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pool import ResultPool
from repro.metrics.distance import DistanceFunction
from repro.query import Query

#: Candidates buffered between page-ordered flushes under the v3 kernel.
REFINE_BATCH = 64


class Refiner:
    """Refines one run's candidates, a page-ordered buffer at a time.

    *pools* (and *collectors*, when given) align with *queries*.  ``add``
    flushes once *batch* candidates are buffered.  Rows are projected onto
    the run's attributes and, when several queries share the run, cached
    by tid; ``table_accesses`` counts per query.
    """

    def __init__(
        self,
        table,
        queries: Sequence[Query],
        dist: DistanceFunction,
        pools: Sequence[ResultPool],
        *,
        batch: int = REFINE_BATCH,
        collectors: Optional[Sequence] = None,
    ) -> None:
        self.table = table
        self.queries = queries
        self.dist = dist
        self.pools = pools
        self.batch = batch
        self.collectors = collectors
        self.attrs = frozenset(a for q in queries for a in q.attribute_ids())
        self._rows: Optional[Dict[int, object]] = {} if len(queries) > 1 else None
        self._pending: List[Tuple[int, int, float]] = []
        #: Candidates refined per query (the paper's table accesses).
        self.table_accesses = [0] * len(queries)
        #: Modeled I/O of this thread's table reads (``disk.metered()``).
        self.io_ms = 0.0
        #: Wall-clock seconds spent in :meth:`flush`.
        self.seconds = 0.0

    def add(self, qi: int, tid: int, estimated: float) -> None:
        """Buffer query *qi*'s candidate; flushes when the buffer is full."""
        self._pending.append((qi, tid, estimated))
        if len(self._pending) >= self.batch:
            self.flush()

    def flush(self) -> None:
        """Refine every buffered candidate, in table-file order."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        start = time.perf_counter()
        if len(pending) > 1:
            locate = self.table.locate
            pending.sort(key=lambda item: locate(item[1])[0])
        read, attrs, actual = self.table.read, self.attrs, self.dist.actual
        pools, queries = self.pools, self.queries
        collectors, rows = self.collectors, self._rows
        try:
            with self.table.disk.metered() as meter:
                for qi, tid, estimated in pending:
                    collector = collectors[qi] if collectors is not None else None
                    pool = pools[qi]
                    if not pool.is_candidate(estimated, tid):
                        if collector is not None:
                            collector.on_late_pruned()
                        continue
                    record = rows.get(tid) if rows is not None else None
                    if record is None:
                        # Per-read difference of the meter's running total:
                        # the same float operations as a stats delta.
                        before = meter.total_ms
                        record = read(tid, attrs)
                        self.io_ms += meter.total_ms - before
                        if rows is not None:
                            rows[tid] = record
                    distance = actual(queries[qi], record)
                    pool.insert(tid, distance)
                    self.table_accesses[qi] += 1
                    if collector is not None:
                        collector.on_refined(estimated, distance)
        finally:
            self.seconds += time.perf_counter() - start
