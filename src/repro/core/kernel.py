"""The block-at-a-time filter kernel: query-compiled lower-bound tables.

The paper's premise (Sec. IV-A) is that the filter phase is a cheap
sequential scan; a per-tuple Python loop re-deriving every bound from
scratch makes interpreter overhead — not I/O — the dominant cost.  The
kernel removes the repeated arithmetic by compiling each query **once**
into lookup tables and then evaluating whole blocks of decoded tuples per
call:

* **numeric terms** become a ``code → lower_bound`` array over the
  quantizer's code space (eager for one-byte vectors, lazily memoised for
  wider codes), each entry produced by
  :meth:`~repro.core.numeric.NumericQuantizer.lower_bound` itself;
* **text terms** become per-stored-length tables: the query's gram masks
  for that signature geometry (most-selective first) plus a
  ``hit_count → bound`` array — :func:`~repro.core.ngram.estimate_from_hits`
  depends only on ``(stored_length, hit_count)``, so the inner loop is a
  popcount-style mask test and a table index;
* **ndf** stays the distance function's constant penalty.

Every table entry is computed by the same scalar routine the
:class:`~repro.core.engine.BoundEvaluator` path calls per tuple, so kernel
bounds are **bit-identical** to scalar bounds — the no-false-negative
contract (Prop. 3.3, open-ended boundary slices) holds by construction,
and the engines assert answer identity in tests, ``make smoke`` and
``repro bench kernel-compare``.

Compiled terms are shared: :class:`KernelCache` deduplicates per
``(attribute, value)`` so parallel shard workers and batched queries reuse
one artifact (gram sets, masks, LUTs) instead of rebuilding
:class:`~repro.core.signature.QueryStringEncoder` state per context.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import fastpath
from repro.core.ngram import estimate_from_hits
from repro.core.numeric import EAGER_LUT_MAX_CODES, NumericQuantizer
from repro.core.signature import QueryStringEncoder
from repro.errors import QueryError
from repro.metrics.distance import (
    DistanceFunction,
    L1Metric,
    L2Metric,
    LInfMetric,
)
from repro.query import Query

#: Tuple-list elements evaluated per kernel call.  One block of the default
#: 12-byte tuple elements spans ~3 KB of the tuple list — well inside one
#: buffered-reader chunk, so blocking changes call counts, not I/O.
BLOCK_TUPLES = 256

#: Valid filter-kernel modes on engines and the CLI's ``--kernel`` flag:
#: ``scalar`` (per-tuple; the identity oracle) and ``v3`` (whole-segment
#: columnar decode + array-wide evaluation, falling back to per-block
#: columns through :meth:`QueryKernel.evaluate_block` without numpy).
KERNEL_MODES = ("scalar", "v3")


def _metric_kind(metric) -> Optional[str]:
    """The exact-vectorisable metric family, or None for custom metrics.

    ``type(...) is`` on purpose: a subclass may override ``combine``, and
    only the built-in combine rules have proven bit-identical array
    equivalents (:func:`repro.core.fastpath.combine_columns`).
    """
    kind = type(metric)
    if kind is L1Metric:
        return "L1"
    if kind is L2Metric:
        return "L2"
    if kind is LInfMetric:
        return "Linf"
    return None


def validate_kernel_mode(mode: str) -> str:
    """Return *mode* if it names a filter kernel; raise otherwise."""
    if mode not in KERNEL_MODES:
        raise QueryError(
            f"unknown filter kernel {mode!r}; expected one of {KERNEL_MODES}"
        )
    return mode


class CompiledTextTerm:
    """One text term compiled to per-geometry mask + bound tables.

    Wraps the term's :class:`QueryStringEncoder` (the gram multiset is
    computed once and the popcount-ordered masks are shared with the
    scalar path) and adds, per distinct stored length seen in the data, a
    ``hit_count → bound`` array so the per-signature work collapses to the
    mask tests plus one table index.
    """

    __slots__ = ("encoder", "_per_length")

    def __init__(self, query_string: str, n: int) -> None:
        self.encoder = QueryStringEncoder(query_string, n)
        #: stored_length → (masks, bounds); masks are ``(mask, count)``
        #: pairs ordered most-selective first, ``bounds[hits]`` the clamped
        #: Eq. 3 estimate for that many hits.
        self._per_length: Dict[
            int, Tuple[List[Tuple[int, int]], Tuple[float, ...]]
        ] = {}

    def _compile_length(
        self, stored_length: int, scheme
    ) -> Tuple[List[Tuple[int, int]], Tuple[float, ...]]:
        """Tables for one signature geometry; cached per stored length."""
        l_bits, t = scheme.parameters_for(stored_length)
        masks = self.encoder.masks_for(l_bits, t)
        query_length = self.encoder.query_length
        n = self.encoder.n
        bounds = []
        for hits in range(self.encoder.total_grams + 1):
            est = estimate_from_hits(query_length, stored_length, hits, n)
            bounds.append(est if est > 0.0 else 0.0)
        entry = (masks, tuple(bounds))
        self._per_length[stored_length] = entry
        return entry

    def bound_column(
        self,
        column: Sequence[object],
        scheme,
        out: List[float],
        ndf_penalty: float,
        exact: List[bool],
    ) -> None:
        """Fill ``out`` with this term's lower bound per block element.

        *column* holds one block's decoded payloads: ``None`` for ndf,
        else a list of ``(stored_length, bits)`` pairs.  Clears
        ``exact[i]`` for every defined element.  The per-signature min
        short-circuits at 0.0 — bounds are non-negative, so the min is
        already decided (the scalar ``min(...)`` returns the same value).
        """
        per_length = self._per_length
        for i, payload in enumerate(column):
            if payload is None:
                out[i] = ndf_penalty
                continue
            exact[i] = False
            best: Optional[float] = None
            for stored_length, bits in payload:
                entry = per_length.get(stored_length)
                if entry is None:
                    entry = self._compile_length(stored_length, scheme)
                masks, bounds = entry
                hits = 0
                for mask, count in masks:
                    if mask & bits == mask:
                        hits += count
                bound = bounds[hits]
                if best is None or bound < best:
                    best = bound
                    if best <= 0.0:
                        break
            out[i] = best

    def bound_segment(self, segment, scheme, count: int, ndf_penalty: float):
        """``(bounds, defined)`` arrays for one decoded text segment.

        The per-signature mask tests stay a flat Python loop (the tables
        are exactly the scalar ones, so each value is bit-identical), but
        the per-tuple min-reduce and ndf fill collapse to one vectorised
        scatter.  The scalar path's ``best <= 0.0`` short-circuit is safe
        to drop: bounds are clamped non-negative, so a 0.0 *is* the min.
        """
        per_length = self._per_length
        lengths = segment.lengths
        all_bits = segment.bits
        vals = [0.0] * len(lengths)
        for j, stored_length in enumerate(lengths):
            entry = per_length.get(stored_length)
            if entry is None:
                entry = self._compile_length(stored_length, scheme)
            masks, bounds = entry
            bits = all_bits[j]
            hits = 0
            for mask, gram_count in masks:
                if mask & bits == mask:
                    hits += gram_count
            vals[j] = bounds[hits]
        np = fastpath._np
        slots = segment.slots_array()
        defined = np.zeros(count, dtype=bool)
        defined[slots] = True
        out = fastpath.text_min_scatter(count, slots, vals, defined, ndf_penalty)
        return out, defined

    @property
    def table_lengths(self) -> int:
        """Distinct stored lengths compiled so far (observability)."""
        return len(self._per_length)


class CompiledNumericTerm:
    """One numeric term compiled to a ``code → lower_bound`` table.

    For one-byte vectors (≤ :data:`~repro.core.numeric.EAGER_LUT_MAX_CODES`
    codes) the whole array is materialised at compile time; wider code
    spaces are memoised lazily per observed code.  Either way every entry
    comes from :meth:`NumericQuantizer.lower_bound`, so a hit is
    bit-identical to the scalar call.
    """

    __slots__ = ("quantizer", "query_value", "_table", "_memo", "_lut_np")

    def __init__(
        self, quantizer: Optional[NumericQuantizer], query_value: float
    ) -> None:
        self.quantizer = quantizer
        self.query_value = query_value
        self._lut_np = None
        if quantizer is None:
            # Attribute absent from the index: every payload is None (the
            # null scanner), so no table is ever consulted.
            self._table = None
            self._memo = {}
        elif quantizer.num_slices <= EAGER_LUT_MAX_CODES:
            self._table: Optional[Tuple[float, ...]] = quantizer.lower_bound_table(
                query_value
            )
            self._memo: Optional[Dict[int, float]] = None
            self._lut_np = fastpath.lut_array(self._table)
        else:
            self._table = None
            self._memo = {}

    def bound_column(
        self,
        column: Sequence[object],
        out: List[float],
        ndf_penalty: float,
        exact: List[bool],
    ) -> None:
        """Fill ``out`` with this term's lower bound per block element."""
        table = self._table
        if table is not None:
            if self._lut_np is not None and fastpath.gather_bounds(
                self._lut_np, column, out, exact
            ):
                return
            for i, code in enumerate(column):
                if code is None:
                    out[i] = ndf_penalty
                else:
                    exact[i] = False
                    out[i] = table[code]
            return
        memo = self._memo
        quantizer = self.quantizer
        value = self.query_value
        for i, code in enumerate(column):
            if code is None:
                out[i] = ndf_penalty
                continue
            exact[i] = False
            bound = memo.get(code)
            if bound is None:
                bound = quantizer.lower_bound(value, code)
                memo[code] = bound
            out[i] = bound

    def bound_segment(self, segment, count: int, ndf_penalty: float):
        """``(bounds, defined)`` arrays for one decoded numeric segment.

        Eager tables gather array-wide; wide code spaces dedupe the block's
        codes first (``np.unique``) and bound each distinct code once via
        the shared memo — both paths fill every entry with the exact double
        the scalar ``bound_column`` would have produced.
        """
        np = fastpath._np
        defined = segment.defined
        table = self._table
        if table is not None:
            if self._lut_np is None:
                self._lut_np = fastpath.lut_array(table)
            out = fastpath.gather_bounds_array(
                self._lut_np, segment.codes, defined, ndf_penalty
            )
            return out, defined
        out = np.full(count, ndf_penalty, dtype=np.float64)
        if defined.any():
            memo = self._memo
            quantizer = self.quantizer
            value = self.query_value
            uniq, inverse = np.unique(segment.codes[defined], return_inverse=True)
            uniq_bounds = np.empty(len(uniq), dtype=np.float64)
            for j, code in enumerate(uniq.tolist()):
                bound = memo.get(code)
                if bound is None:
                    bound = quantizer.lower_bound(value, code)
                    memo[code] = bound
                uniq_bounds[j] = bound
            out[defined] = uniq_bounds[inverse]
        return out, defined

    @property
    def table_codes(self) -> int:
        """LUT entries materialised so far (observability)."""
        return len(self._table) if self._table is not None else len(self._memo)


class KernelCache:
    """Shared compiled-term artifact: one entry per ``(attribute, value)``.

    One instance spans whatever should share compilation work — a batch of
    queries, all shards of a parallel run, or (in the serving daemon) every
    request against one index snapshot — so two queries naming the same
    term get the *same* compiled object (and the block evaluator's column
    cache can key on object identity).  ``hits``/``misses`` count term
    lookups so long-lived caches can report reuse.
    """

    __slots__ = ("_terms", "hits", "misses")

    def __init__(self) -> None:
        self._terms: Dict[Tuple[int, object], object] = {}
        self.hits = 0
        self.misses = 0

    def text_term(self, attr_id: int, query_string: str, n: int) -> CompiledTextTerm:
        """The shared compiled text term for ``attr = query_string``."""
        key = (attr_id, query_string)
        term = self._terms.get(key)
        if term is None:
            self.misses += 1
            term = CompiledTextTerm(query_string, n)
            self._terms[key] = term
        else:
            self.hits += 1
        return term

    def numeric_term(
        self, attr_id: int, quantizer: Optional[NumericQuantizer], value: float
    ) -> CompiledNumericTerm:
        """The shared compiled numeric term for ``attr = value``."""
        key = (attr_id, value)
        term = self._terms.get(key)
        if term is None:
            self.misses += 1
            term = CompiledNumericTerm(quantizer, value)
            self._terms[key] = term
        else:
            self.hits += 1
        return term

    def __len__(self) -> int:
        return len(self._terms)


class QueryKernel:
    """One query compiled for block-at-a-time filtering.

    Holds the compiled per-term tables, the payload slot of each term
    (mirroring :class:`~repro.core.engine.BoundEvaluator`'s position map),
    the pre-resolved importance weights, and the metric — everything the
    per-block loop needs without touching the query again.

    :meth:`evaluate_segments` returns the same ``(estimated, exact)`` the
    scalar path derives per tuple: bounds from the tables (bit-identical
    entries), weights from :meth:`DistanceFunction.weight` (same cached
    floats), combined through the same ``metric.combine``.
    """

    __slots__ = ("query", "terms", "schemes", "slots", "weights", "metric", "ndf_penalty")

    def __init__(
        self,
        query: Query,
        terms: Sequence[object],
        schemes: Sequence[object],
        slots: Sequence[int],
        weights: Sequence[float],
        metric,
        ndf_penalty: float,
    ) -> None:
        self.query = query
        self.terms = list(terms)
        self.schemes = list(schemes)
        self.slots = list(slots)
        self.weights = list(weights)
        self.metric = metric
        self.ndf_penalty = ndf_penalty

    @classmethod
    def compile(
        cls,
        index,
        query: Query,
        distance: DistanceFunction,
        position: Optional[dict] = None,
        cache: Optional[KernelCache] = None,
    ) -> "QueryKernel":
        """Compile *query* against *index*; see :class:`KernelCache`.

        *position* maps attribute id → payload slot (the batch/parallel
        union scan); ``None`` means payloads align 1:1 with the query's
        terms, exactly as in :class:`~repro.core.engine.BoundEvaluator`.
        """
        cache = cache if cache is not None else KernelCache()
        n = index.config.n
        terms: List[object] = []
        schemes: List[object] = []
        weights: List[float] = []
        for term in query.terms:
            attr_id = term.attr.attr_id
            if term.attr.is_text:
                terms.append(cache.text_term(attr_id, str(term.value), n))
                entry = index.entry(attr_id)
                schemes.append(entry.scheme if entry is not None else None)
            else:
                entry = index.entry(attr_id)
                quantizer = entry.quantizer if entry is not None else None
                terms.append(
                    cache.numeric_term(attr_id, quantizer, float(term.value))
                )
                schemes.append(None)
            weights.append(distance.weight(attr_id, query))
        if position is None:
            slots = list(range(len(query.terms)))
        else:
            slots = [position[term.attr.attr_id] for term in query.terms]
        return cls(
            query,
            terms,
            schemes,
            slots,
            weights,
            distance.metric,
            distance.ndf_penalty,
        )

    def evaluate_block(
        self,
        columns: Sequence[Sequence[object]],
        count: int,
        cache: Optional[dict] = None,
    ) -> Tuple[List[float], List[bool]]:
        """``(estimated, exact)`` for every element of one decoded block.

        The numpy-absent fallback of :meth:`evaluate_segments`.  *columns*
        holds one payload column per scan slot (the
        ``move_block`` output of each scanner); *cache*, when given, is a
        per-block memo keyed on compiled-term identity so batched queries
        sharing a term fill the bound column once (the block counterpart
        of the batch engine's per-tuple text-bound cache).
        """
        exact = [True] * count
        ndf_penalty = self.ndf_penalty
        bound_columns: List[List[float]] = []
        for term, scheme, slot in zip(self.terms, self.schemes, self.slots):
            column = columns[slot]
            if cache is not None:
                key = (id(term), slot)
                cached = cache.get(key)
                if cached is not None:
                    # Reused from a sibling query: the bounds are already
                    # computed, but this query's exact flags still need the
                    # definedness scan.
                    for i in range(count):
                        if column[i] is not None:
                            exact[i] = False
                    bound_columns.append(cached)
                    continue
            out = [0.0] * count
            if isinstance(term, CompiledTextTerm):
                term.bound_column(column, scheme, out, ndf_penalty, exact)
            else:
                term.bound_column(column, out, ndf_penalty, exact)
            if cache is not None:
                cache[(id(term), slot)] = out
            bound_columns.append(out)

        combine = self.metric.combine
        weights = self.weights
        estimates = [0.0] * count
        if len(bound_columns) == 1:
            w0 = weights[0]
            col0 = bound_columns[0]
            for i in range(count):
                estimates[i] = combine([w0 * col0[i]])
        else:
            pairs = list(zip(weights, bound_columns))
            for i in range(count):
                estimates[i] = combine([w * col[i] for w, col in pairs])
        return estimates, exact

    def _bound_segment(self, term, scheme, segment, count: int):
        """``(bounds, defined)`` arrays for one term over one segment.

        Columnar segments route to the term's vectorised ``bound_segment``;
        a :class:`~repro.core.segment.ColumnSegment` (the fallback decode,
        including the engine's null scanner) runs the scalar
        ``bound_column`` and wraps its output — so mixed-shape blocks stay
        bit-identical to the scalar walk term by term.
        """
        np = fastpath._np
        ndf_penalty = self.ndf_penalty
        kind = segment.kind
        if kind == "text" and isinstance(term, CompiledTextTerm):
            return term.bound_segment(segment, scheme, count, ndf_penalty)
        if kind == "numeric" and isinstance(term, CompiledNumericTerm):
            return term.bound_segment(segment, count, ndf_penalty)
        column = segment.column()
        out = [0.0] * count
        exact = [True] * count
        if isinstance(term, CompiledTextTerm):
            term.bound_column(column, scheme, out, ndf_penalty, exact)
        else:
            term.bound_column(column, out, ndf_penalty, exact)
        defined = np.asarray([not flag for flag in exact], dtype=bool)
        return np.asarray(out, dtype=np.float64), defined

    def evaluate_segments(
        self,
        segments: Sequence[object],
        count: int,
        cache: Optional[dict] = None,
    ) -> Tuple[List[float], List[bool]]:
        """``(estimated, exact)`` for one block of decoded segments.

        The v3 counterpart of :meth:`evaluate_block`: *segments* holds one
        :mod:`repro.core.segment` object per scan slot (the
        ``decode_segment`` output of each scanner).  Per-term bounds come
        from the vectorised ``bound_segment`` routines and the combine
        collapses to :func:`repro.core.fastpath.combine_columns` for the
        built-in metrics — both proven bit-identical to the scalar chain —
        while custom metrics fall back to the per-element ``combine``.
        Without numpy the segments are rebuilt into legacy columns and
        handed to :meth:`evaluate_block` unchanged.
        """
        if fastpath._np is None:
            columns = [segment.column() for segment in segments]
            return self.evaluate_block(columns, count, cache)
        np = fastpath._np
        any_defined = np.zeros(count, dtype=bool)
        bound_columns = []
        for term, scheme, slot in zip(self.terms, self.schemes, self.slots):
            pair = None
            if cache is not None:
                pair = cache.get((id(term), slot))
            if pair is None:
                pair = self._bound_segment(term, scheme, segments[slot], count)
                if cache is not None:
                    cache[(id(term), slot)] = pair
            out, defined = pair
            any_defined = any_defined | defined
            bound_columns.append(out)
        estimates = fastpath.combine_columns(
            _metric_kind(self.metric), self.weights, bound_columns, count
        )
        exact = [not flag for flag in any_defined.tolist()]
        if estimates is not None:
            return estimates.tolist(), exact
        combine = self.metric.combine
        pairs = [
            (weight, column.tolist())
            for weight, column in zip(self.weights, bound_columns)
        ]
        scalar_estimates = [
            combine([weight * column[i] for weight, column in pairs])
            for i in range(count)
        ]
        return scalar_estimates, exact

    @property
    def table_entries(self) -> int:
        """Total LUT entries materialised across this kernel's terms."""
        total = 0
        for term in self.terms:
            if isinstance(term, CompiledTextTerm):
                total += term.table_lengths
            else:
                total += term.table_codes
        return total
