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
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.engine import (
    BoundEvaluator,
    FilterAndRefineEngine,
    check_deadline,
)
from repro.core.iva_file import DELETED_PTR, IVAFile
from repro.core.pool import BlockCandidacy
from repro.errors import ReproError
from repro.metrics.distance import DistanceFunction
from repro.query import Query


class SequentialPlanEngine(FilterAndRefineEngine):
    """Two-phase (scan-then-refine) query processing over the iVA-file.

    Keyword options (``registry``, ``tracer``, ``fail_mode``,
    ``profile``, ...) are the base engine's.
    """

    name = "iVA-seq"

    def __init__(
        self,
        table,
        index: IVAFile,
        distance: Optional[DistanceFunction] = None,
        **options,
    ) -> None:
        super().__init__(table, distance, **options)
        self.index = index

    def _filter(self, query, distance):  # pragma: no cover - not used
        raise NotImplementedError("the sequential plan overrides _candidates()")

    def _candidates(
        self,
        queries: Sequence[Query],
        distance: DistanceFunction,
        candidacies: Sequence[BlockCandidacy],
        deadline: Optional[float],
        progress: List[int],
    ) -> Iterator[Tuple[int, int, float]]:
        """Phase 1 bounds every live tuple; phase 2 refines the survivors.

        Phase 1 is one full scan keeping ``(tid, lower, upper)`` per live
        tuple, checking *deadline* before keeping each.  Phase 2 hands over, in
        tid order, every tuple whose lower bound does not exceed the
        *k-th smallest upper bound*; each is refined, whatever the pool
        holds by then.  A scan cut under ``fail_mode="degrade"`` still
        refines the scanned prefix's candidates, then re-raises the cut
        for the caller to degrade the report.
        """
        (query,), (candidacy,) = queries, candidacies
        collector = candidacy.collector
        bounds: List[Tuple[int, float, float]] = []
        cut: Optional[ReproError] = None
        try:
            for tid, lower, upper in self._bounds(query, distance, collector):
                check_deadline(deadline, progress[0])
                bounds.append((tid, lower, upper))
                progress[0] = tid
        except ReproError as exc:
            if self.fail_mode != "degrade":
                raise
            cut = exc
        candidacy.scanned = len(bounds)
        # The pruning threshold: the k-th smallest upper bound.  With any
        # text term every upper bound is infinite and nothing is pruned.
        k = candidacy.pool.k
        uppers = sorted(upper for _, _, upper in bounds)
        threshold = uppers[k - 1] if len(uppers) >= k else math.inf
        candidates = [(tid, lower) for tid, lower, _ in bounds if lower <= threshold]
        if collector is not None:
            collector.on_pruned(len(bounds) - len(candidates))
            collector.on_candidate(len(candidates))
        for tid, lower in candidates:
            yield tid, 0, lower
        if cut is not None:
            raise cut

    def _bounds(
        self, query: Query, distance: DistanceFunction, collector
    ) -> Iterator[Tuple[int, float, float]]:
        """Phase 1: ``(tid, lower, upper)`` per live tuple, in tid order."""
        scan = self.index.open_scan(
            query.attribute_ids(), end_element=self.scan_end_element
        )
        evaluator = BoundEvaluator(self.index, query, distance)
        ndf_penalty = distance.ndf_penalty
        for tid, ptr in scan:
            payloads = scan.payloads(tid)
            if collector is not None:
                collector.on_payloads(payloads)
            if ptr == DELETED_PTR:
                continue
            lowers, _ = evaluator.evaluate(payloads)
            uppers: List[float] = []
            for term, quantizer, payload in zip(
                query.terms, evaluator.quantizers, payloads
            ):
                if payload is None:
                    uppers.append(ndf_penalty)
                elif term.attr.is_text:
                    # No finite upper bound exists for a string signature.
                    uppers.append(math.inf)
                else:
                    uppers.append(
                        _numeric_upper_bound(quantizer, float(term.value), payload)
                    )
            lower = distance.combine_bounds(query, lowers)
            upper = (
                math.inf
                if any(math.isinf(u) for u in uppers)
                else distance.combine_bounds(query, uppers)
            )
            yield tid, lower, upper


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
