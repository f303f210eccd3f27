"""In-memory columnar acceleration of the iVA-file filter.

The paper's 2009 design streams approximation vectors from disk; on modern
hardware the whole approximation file fits in RAM, and the bit-twiddling
of Eq. 3 vectorises.  :class:`InMemoryIVAEngine` materialises each
attribute's vectors into numpy arrays once (signatures grouped by their
``(l, t)`` geometry, codes as integer columns), evaluates a query's lower
bounds for *all* tuples with array ops, and then refines **best-first**:
candidates sorted by estimated distance, stopping as soon as the next
estimate cannot beat the pool — the classic VA-file near-optimal access
order, which the interleaved disk plan cannot use because it must follow
tid order.

Answers are identical to :class:`~repro.core.engine.IVAEngine` (same
bounds, same pool rule); the access *count* is never larger, because
best-first refinement is optimal for a fixed set of lower bounds.

The accelerator snapshots the index at construction; call :meth:`refresh`
after updates.  Without numpy the class still works (scalar arithmetic),
just without the speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.engine import QueryResult, SearchReport
from repro.core.iva_file import IVAFile
from repro.core.numeric import VECTORISED_MAX_BYTES
from repro.core.pool import ResultPool
from repro.core.signature import QueryStringEncoder
from repro.core.tuple_list import DELETED_PTR
from repro.errors import QueryError
from repro.metrics.distance import DistanceFunction, L1Metric, L2Metric, LInfMetric
from repro.query import Query
from repro.storage.table import SparseWideTable

try:  # pragma: no cover - both branches covered via behaviour tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


@dataclass
class _TextBucket:
    """Signatures sharing one (l_bits, t) geometry, as arrays."""

    positions: List[int] = field(default_factory=list)
    lengths: List[int] = field(default_factory=list)
    bits: List[int] = field(default_factory=list)
    words: object = None  # numpy uint64 matrix (m, W) when frozen
    positions_arr: object = None
    lengths_arr: object = None

    def freeze(self, l_bits: int) -> None:
        """Convert the accumulated lists into numpy arrays."""
        if _np is None:
            return
        word_count = (l_bits + 63) // 64
        matrix = _np.zeros((len(self.bits), word_count), dtype=_np.uint64)
        for row, value in enumerate(self.bits):
            for w in range(word_count):
                matrix[row, w] = (value >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
        self.words = matrix
        self.positions_arr = _np.asarray(self.positions, dtype=_np.int64)
        self.lengths_arr = _np.asarray(self.lengths, dtype=_np.float64)


@dataclass
class _TextColumn:
    buckets: Dict[Tuple[int, int], _TextBucket] = field(default_factory=dict)


@dataclass
class _NumericColumn:
    codes: List[int] = field(default_factory=list)  # -1 = ndf
    codes_arr: object = None

    def freeze(self) -> None:
        """Convert the accumulated lists into numpy arrays."""
        if _np is not None:
            self.codes_arr = _np.asarray(self.codes, dtype=_np.int64)


class InMemoryIVAEngine:
    """Vectorized filter + best-first refine over a memory-resident index."""

    name = "iVA-mem"

    def __init__(
        self,
        table: SparseWideTable,
        index: IVAFile,
        distance: Optional[DistanceFunction] = None,
    ) -> None:
        self.table = table
        self.index = index
        self.distance = distance or DistanceFunction()
        self._tids: List[int] = []
        self._deleted: List[bool] = []
        self._text: Dict[int, _TextColumn] = {}
        self._numeric: Dict[int, _NumericColumn] = {}
        self.refresh()

    # ------------------------------------------------------------- snapshot

    def refresh(self) -> None:
        """Re-materialise the columnar snapshot from the index."""
        self._tids = []
        self._deleted = []
        for tid, ptr in self.index._tuples.scan():
            self._tids.append(tid)
            self._deleted.append(ptr == DELETED_PTR)
        self._text = {}
        self._numeric = {}
        for entry in self.index.entries():
            attr_id = entry.attr.attr_id
            scanner = self.index.make_scanner(attr_id)
            if entry.attr.is_text:
                column = _TextColumn()
                for position, tid in enumerate(self._tids):
                    payload = scanner.move_to(tid)
                    if payload is None:
                        continue
                    for signature in payload:
                        key = (signature.l_bits, signature.t)
                        bucket = column.buckets.setdefault(key, _TextBucket())
                        bucket.positions.append(position)
                        bucket.lengths.append(signature.length)
                        bucket.bits.append(signature.bits)
                for (l_bits, _), bucket in column.buckets.items():
                    bucket.freeze(l_bits)
                self._text[attr_id] = column
            else:
                column = _NumericColumn()
                for tid in self._tids:
                    payload = scanner.move_to(tid)
                    column.codes.append(-1 if payload is None else payload)
                column.freeze()
                self._numeric[attr_id] = column

    # -------------------------------------------------------------- bounds

    def _text_bounds(self, attr_id: int, query_string: str, penalty: float):
        """Per-position lower bound for one text term (penalty where ndf)."""
        n = self.index.config.n
        encoder = QueryStringEncoder(query_string, n)
        count = len(self._tids)
        column = self._text.get(attr_id)
        if column is None:
            return self._full(penalty, count), self._full(False, count, bool_=True)
        if _np is None:
            return self._text_bounds_scalar(column, encoder, penalty, count, n)
        bounds = _np.full(count, _np.inf)
        qlen = float(encoder.query_length)
        for (l_bits, t), bucket in column.buckets.items():
            if not bucket.positions:
                continue
            words = bucket.words
            hits = _np.zeros(len(bucket.positions))
            for mask, gram_count in encoder._masks(l_bits, t):
                mask_words = _np.zeros(words.shape[1], dtype=_np.uint64)
                for w in range(words.shape[1]):
                    mask_words[w] = (mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
                ok = _np.all((words & mask_words) == mask_words, axis=1)
                hits += gram_count * ok
            est = (_np.maximum(qlen, bucket.lengths_arr) - hits - 1) / n + 1
            est = _np.clip(est, 0.0, None)
            _np.minimum.at(bounds, bucket.positions_arr, est)
        defined = ~_np.isinf(bounds)
        bounds = _np.where(defined, bounds, penalty)
        return bounds, defined

    def _text_bounds_scalar(self, column, encoder, penalty, count, n):
        bounds = [float("inf")] * count
        for (l_bits, t), bucket in column.buckets.items():
            for position, length, bits in zip(
                bucket.positions, bucket.lengths, bucket.bits
            ):
                from repro.core.signature import Signature

                est = encoder.lower_bound(
                    Signature(length=length, l_bits=l_bits, t=t, bits=bits)
                )
                if est < bounds[position]:
                    bounds[position] = est
        defined = [b != float("inf") for b in bounds]
        bounds = [b if d else penalty for b, d in zip(bounds, defined)]
        return bounds, defined

    def _numeric_bounds(self, attr_id: int, query_value: float, penalty: float):
        count = len(self._tids)
        column = self._numeric.get(attr_id)
        entry = self.index.entry(attr_id)
        if column is None or entry is None:
            return self._full(penalty, count), self._full(False, count, bool_=True)
        quantizer = entry.quantizer
        if _np is None or quantizer.vector_bytes > VECTORISED_MAX_BYTES:
            bounds = []
            defined = []
            for code in column.codes:
                if code < 0:
                    bounds.append(penalty)
                    defined.append(False)
                else:
                    bounds.append(quantizer.lower_bound(query_value, code))
                    defined.append(True)
            return bounds, defined
        codes = column.codes_arr
        defined = codes >= 0
        bound = quantizer.lower_bound_array(query_value, _np.where(defined, codes, 0))
        return _np.where(defined, bound, penalty), defined

    @staticmethod
    def _full(value, count, bool_: bool = False):
        if _np is not None:
            return _np.full(count, value, dtype=bool if bool_ else float)
        return [value] * count

    # --------------------------------------------------------------- search

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
        report = SearchReport()
        disk = self.table.disk
        wall_start = time.perf_counter()
        penalty = dist.ndf_penalty

        per_term_bounds = []
        per_term_defined = []
        for term in query.terms:
            if term.attr.is_text:
                bounds, defined = self._text_bounds(
                    term.attr.attr_id, str(term.value), penalty
                )
            else:
                bounds, defined = self._numeric_bounds(
                    term.attr.attr_id, float(term.value), penalty
                )
            per_term_bounds.append(bounds)
            per_term_defined.append(defined)

        count = len(self._tids)
        estimates = self._combine(query, dist, per_term_bounds, count)
        if _np is not None:
            any_defined = _np.zeros(count, dtype=bool)
            for defined in per_term_defined:
                any_defined |= _np.asarray(defined, dtype=bool)
            order = _np.argsort(estimates, kind="stable")
        else:
            any_defined = [any(d[i] for d in per_term_defined) for i in range(count)]
            order = sorted(range(count), key=lambda i: estimates[i])

        report.filter_wall_s = time.perf_counter() - wall_start
        pool = ResultPool(k)
        refine_attrs = frozenset(query.attribute_ids())
        refine_wall_start = time.perf_counter()
        refine_io_start = disk.stats.io_time_ms
        for position in order:
            position = int(position)
            if self._deleted[position]:
                continue
            report.tuples_scanned += 1
            estimate = float(estimates[position])
            tid = self._tids[position]
            if not any_defined[position]:
                pool.insert(tid, estimate)  # exact: all queried attrs ndf
                report.exact_shortcuts += 1
                continue
            if pool.is_full() and not pool.is_candidate(estimate):
                # Best-first: every later estimate is at least this large,
                # but all-ndf tuples after this point still belong in the
                # pool race, so only stop refining, keep scanning exacts.
                continue
            record = self.table.read(tid, refine_attrs)
            pool.insert(tid, dist.actual(query, record))
            report.table_accesses += 1
        report.refine_io_ms = disk.stats.io_time_ms - refine_io_start
        report.refine_wall_s = time.perf_counter() - refine_wall_start
        report.results = [
            QueryResult(tid=e.tid, distance=e.distance) for e in pool.results()
        ]
        return report

    def _combine(self, query, dist, per_term_bounds, count):
        weights = [dist.weight(t.attr.attr_id, query) for t in query.terms]
        metric = dist.metric
        if _np is not None:
            stacked = _np.vstack(
                [_np.asarray(b, dtype=float) * w for b, w in zip(per_term_bounds, weights)]
            )
            if isinstance(metric, L1Metric):
                return stacked.sum(axis=0)
            if isinstance(metric, L2Metric):
                return _np.sqrt((stacked ** 2).sum(axis=0))
            if isinstance(metric, LInfMetric):
                return stacked.max(axis=0)
            return _np.asarray(
                [
                    metric.combine([stacked[t, i] for t in range(len(weights))])
                    for i in range(count)
                ]
            )
        out = []
        for i in range(count):
            out.append(
                metric.combine(
                    [b[i] * w for b, w in zip(per_term_bounds, weights)]
                )
            )
        return out
