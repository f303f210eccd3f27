"""The *sequential* filter-and-refine plan — the VA-file's strategy.

Sec. IV-A: "The existing process proposed in the VA-file is to scan the
whole VA-file to get a set of candidate tuples, and check them all in the
data file afterwards (sequential plan).  This plan requires the
approximation vector to be able to provide not only a lower bound … but
also a meaningful upper bound.  Otherwise, the filtering step fails as all
tuples are in the candidate set.  However, a limited length vector cannot
indicate any upper bound for unlimited-and-variable length strings …
So we propose the parallel plan."

We implement the sequential plan for completeness and as an executable
ablation of that argument:

* numeric codes *do* carry an upper bound (the far edge of the slice, with
  the boundary slices open-ended and therefore unbounded), so the plan
  works on numeric-only queries;
* for text terms there is no finite upper bound — the plan degrades to
  refining every tuple whose lower bound survives phase 1 against the
  *k-th smallest upper bound*, which for text is infinite: the candidate
  set is the whole table, exactly as the paper predicts.

The engine stays exact in all cases; only its efficiency collapses where
the paper says it must.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

from repro.core.engine import (
    FilterAndRefineEngine,
    QueryResult,
    SearchReport,
    observe_search,
    trace_phases,
)
from repro.core.iva_file import DELETED_PTR, IVAFile
from repro.core.pool import ResultPool
from repro.core.signature import QueryStringEncoder
from repro.metrics.distance import DistanceFunction
from repro.query import Query


class SequentialPlanEngine(FilterAndRefineEngine):
    """Two-phase (scan-then-refine) query processing over the iVA-file."""

    name = "iVA-seq"

    def __init__(
        self,
        table,
        index: IVAFile,
        distance: Optional[DistanceFunction] = None,
    ) -> None:
        super().__init__(table, distance)
        self.index = index

    # The base-class template is interleaved; the sequential plan overrides
    # search() wholesale with the two-phase strategy.
    def _filter(self, query, distance):  # pragma: no cover - not used
        raise NotImplementedError("the sequential plan overrides search()")

    def _bounds(
        self, query: Query, distance: DistanceFunction
    ) -> List[Tuple[int, float, float]]:
        """Phase 1: one full scan yielding (tid, lower, upper) per tuple."""
        scan = self.index.open_scan(query.attribute_ids())
        n = self.index.config.n
        encoders = []
        quantizers = []
        for term in query.terms:
            if term.attr.is_text:
                encoders.append(QueryStringEncoder(str(term.value), n))
                quantizers.append(None)
            else:
                encoders.append(None)
                entry = self.index.entry(term.attr.attr_id)
                quantizers.append(entry.quantizer if entry is not None else None)
        ndf_penalty = distance.ndf_penalty
        out = []
        for tid, ptr in scan:
            payloads = scan.payloads(tid)
            if ptr == DELETED_PTR:
                continue
            lowers: List[float] = []
            uppers: List[float] = []
            for idx, term in enumerate(query.terms):
                payload = payloads[idx]
                if payload is None:
                    lowers.append(ndf_penalty)
                    uppers.append(ndf_penalty)
                elif term.attr.is_text:
                    lowers.append(
                        min(encoders[idx].lower_bound(sig) for sig in payload)
                    )
                    # No finite upper bound exists for a string signature.
                    uppers.append(math.inf)
                else:
                    quantizer = quantizers[idx]
                    code = payload
                    lowers.append(quantizer.lower_bound(float(term.value), code))
                    uppers.append(
                        _numeric_upper_bound(quantizer, float(term.value), code)
                    )
            lower = distance.combine_bounds(query, lowers)
            upper = (
                math.inf
                if any(math.isinf(u) for u in uppers)
                else distance.combine_bounds(query, uppers)
            )
            out.append((tid, lower, upper))
        return out

    def search(self, query, k: int = 10, distance=None) -> SearchReport:
        """Run a top-k structured similarity query; returns a report."""
        query = self.prepare_query(query)
        dist = distance or self.distance
        report = SearchReport()
        disk = self.table.disk
        tracer = self._tracer()

        with tracer.span(
            "query", engine=self.name, k=k, attr_ids=list(query.attribute_ids())
        ) as span:
            io_before = disk.stats.io_time_ms
            wall_before = time.perf_counter()
            bounds = self._bounds(query, dist)
            report.tuples_scanned = len(bounds)
            report.filter_io_ms = disk.stats.io_time_ms - io_before
            report.filter_wall_s = time.perf_counter() - wall_before

            # The pruning threshold: the k-th smallest upper bound.  With any
            # text term every upper bound is infinite and nothing is pruned.
            uppers = sorted(upper for _, _, upper in bounds)
            threshold = uppers[k - 1] if len(uppers) >= k else math.inf
            candidates = [tid for tid, lower, _ in bounds if lower <= threshold]

            io_before = disk.stats.io_time_ms
            wall_before = time.perf_counter()
            pool = ResultPool(k)
            refine_attrs = frozenset(query.attribute_ids())
            for tid in candidates:
                record = self.table.read(tid, refine_attrs)
                pool.insert(tid, dist.actual(query, record))
                report.table_accesses += 1
            report.refine_io_ms = disk.stats.io_time_ms - io_before
            report.refine_wall_s = time.perf_counter() - wall_before
            report.results = [
                QueryResult(tid=entry.tid, distance=entry.distance)
                for entry in pool.results()
            ]
            trace_phases(tracer, span, [report])
        observe_search(self._registry(), self.name, report)
        return report


def _numeric_upper_bound(quantizer, query_value: float, code: int) -> float:
    """Largest possible |query − v| for any v encoding to *code*.

    Boundary slices are open-ended (out-of-domain values clamp into them),
    so their upper bound is infinite.
    """
    lo, hi = quantizer.slice_bounds(code)
    open_low = code == 0
    open_high = code == quantizer.num_slices - 1
    if open_low or open_high:
        return math.inf
    return max(abs(query_value - lo), abs(query_value - hi))
