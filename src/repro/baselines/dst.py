"""Direct scan of the table file (DST).

The unindexed baseline of Sec. V: read every row sequentially, compute its
exact distance, and keep the best k.  Its per-query cost is essentially the
sequential read of the whole table file — the paper measures ~30 s per
query regardless of parameters.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Union

from repro.core.engine import (
    QueryResult,
    SearchReport,
    observe_search,
    trace_phases,
)
from repro.core.pool import ResultPool
from repro.errors import QueryError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer, get_tracer
from repro.query import Query
from repro.storage.table import SparseWideTable


class DirectScanEngine:
    """Exhaustive sequential scan; no index, no approximation."""

    name = "DST"

    def __init__(
        self,
        table: SparseWideTable,
        distance: Optional[DistanceFunction] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.table = table
        self.distance = distance or DistanceFunction()
        self.registry = registry
        self.tracer = tracer

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
    ) -> SearchReport:
        """Run a top-k structured similarity query; returns a report."""
        query = self.prepare_query(query)
        dist = distance or self.distance
        pool = ResultPool(k)
        report = SearchReport()
        disk = self.table.disk
        tracer = self.tracer if self.tracer is not None else get_tracer()

        with tracer.span(
            "query", engine=self.name, k=k, attr_ids=list(query.attribute_ids())
        ) as span:
            io_before = disk.stats.io_time_ms
            wall_before = time.perf_counter()
            plan = dist.compile(query)
            for record in self.table.scan():
                report.tuples_scanned += 1
                pool.insert(record.tid, dist.actual(query, record, plan))
            # All work is one sequential pass: report it as filter cost (there
            # is no separate refine phase and no random table access).
            report.filter_io_ms = disk.stats.io_time_ms - io_before
            report.filter_wall_s = time.perf_counter() - wall_before
            report.results = [
                QueryResult(tid=entry.tid, distance=entry.distance)
                for entry in pool.results()
            ]
            trace_phases(tracer, span, [report])
        registry = self.registry if self.registry is not None else get_registry()
        observe_search(registry, self.name, report)
        return report
