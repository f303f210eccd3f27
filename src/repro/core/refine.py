"""The refine step of Algorithm 1: fetch each candidate, pool its exact distance.

Every search, one query or a batch, hands its candidates to one
:class:`Refiner`, which refines each the moment it is handed over, so the
pool tightens before the next candidate is decided.  The scalar oracle
hands candidates over as its scan admits them (Algorithm 1); v3 hands
over its phase-1 survivors best-first, in ``(estimate, tid)`` order
(:meth:`~repro.core.pool.BlockCandidacy.best_first`).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.core.pool import ResultPool
from repro.metrics.distance import DistanceFunction
from repro.query import Query


class Refiner:
    """Refines one run's candidates, one row at a time.

    *pools* (and *collectors*, when given) align with *queries*.  Each
    query's distance is compiled once (:meth:`DistanceFunction.compile`)
    and scores the rows handed to it.  Rows are projected onto the union
    of the run's queried attributes and, when several queries share the
    run, cached by tid; ``table_accesses`` counts per query.
    """

    def __init__(
        self,
        table,
        queries: Sequence[Query],
        dist: DistanceFunction,
        pools: Sequence[ResultPool],
        *,
        collectors: Optional[Sequence] = None,
    ) -> None:
        self.table = table
        self.queries = queries
        self.dist = dist
        self.pools = pools
        self.collectors = collectors
        self.plans = [dist.compile(q) for q in queries]
        self.attrs = frozenset(a for plan in self.plans for a in plan.attr_ids)
        self._rows: Optional[Dict[int, object]] = {} if len(queries) > 1 else None
        #: Candidates refined per query (the paper's table accesses).
        self.table_accesses = [0] * len(queries)
        #: One meter for every table read of the run, entered per read, so
        #: the filter's reads in between (scan refills on the scalar path)
        #: stay out of it.  ``StorageBackend.metered`` promises an object
        #: that may be entered again and yields one meter each time.
        self._metered = table.disk.metered()
        with self._metered as meter:
            self._meter = meter
        #: Wall-clock seconds spent in :meth:`refine`.
        self.seconds = 0.0

    @property
    def io_ms(self) -> float:
        """Modeled I/O of this thread's table reads: their own charges, summed."""
        return self._meter.io_ms

    def refine(self, qi: int, tid: int, estimated: float) -> None:
        """Fetch query *qi*'s candidate *tid* and pool its exact distance."""
        start = time.perf_counter()
        rows = self._rows
        try:
            record = rows.get(tid) if rows is not None else None
            if record is None:
                with self._metered:
                    record = self.table.read(tid, self.attrs)
                if rows is not None:
                    rows[tid] = record
            distance = self.dist.actual(self.queries[qi], record, self.plans[qi])
            self.pools[qi].insert(tid, distance)
            self.table_accesses[qi] += 1
            if self.collectors is not None:
                self.collectors[qi].on_refined(estimated, distance)
        finally:
            self.seconds += time.perf_counter() - start
