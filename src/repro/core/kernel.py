"""The v3 filter kernel: queries compiled once, bounded a block at a time.

The paper's premise (Sec. IV-A) is that the filter phase is a cheap
sequential scan; a per-tuple Python loop re-deriving every bound from
scratch makes interpreter overhead — not I/O — the dominant cost.  The
kernel compiles each query **once** and then evaluates whole decoded
segments (one block of the tuple list) per call:

* **numeric terms** bound a whole code column with one
  :meth:`~repro.core.numeric.NumericQuantizer.lower_bound_array` call —
  the numpy mirror of :meth:`~repro.core.numeric.NumericQuantizer.lower_bound`,
  the same float operations in the same order — and keep no per-code
  state; codes the columnar decoders cannot hold (three bytes, or wider
  than four) are bounded per element by ``lower_bound`` itself, memoised
  per code;
* **text terms** become per-stored-length tables: the query's gram masks
  for that signature geometry plus a ``hit_count → bound`` array —
  :func:`~repro.core.ngram.estimate_from_hits` depends only on
  ``(stored_length, hit_count)``, so a whole run of ``uint64`` signature
  words is bounded by one mask-test expression and a table gather (the
  scalar loop, for signatures wider than one word and for payload
  columns adapted from ``move_to``, tests the masks most-selective first).
  Each table entry is the larger of Eq. 3 and the length filter
  ``||sq| - |sd||``, so v3's text bound is never looser than the paper's;
* **ndf** stays the distance function's constant penalty.

Numeric bounds are bit-identical to the ones the
:class:`~repro.core.engine.BoundEvaluator` path (the scalar oracle)
computes per tuple; text bounds lie between the oracle's Eq. 3 and the
exact edit distance.  Both are lower bounds, so the no-false-negative
contract (Prop. 3.3, open-ended boundary slices) holds, and the engines
assert answer identity in tests, ``make smoke`` and
``repro bench kernel-compare``.
:meth:`QueryKernel.evaluate_segments` returns float64/bool arrays, which
the engines' block-level candidacy (:class:`~repro.core.pool.BlockCandidacy`)
prefilters without a per-tuple Python step.

Compiled terms are shared: :class:`KernelCache` deduplicates per
``(attribute, value)`` so batched queries and concurrent daemon requests
reuse one artifact (gram sets and masks) instead of rebuilding
:class:`~repro.core.signature.QueryStringEncoder` state per context.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import fastpath
from repro.core.ngram import estimate_from_hits
from repro.core.numeric import VECTORISED_MAX_BYTES, NumericQuantizer
from repro.core.segment import WORD_BYTES
from repro.core.signature import QueryStringEncoder, gram_mask
from repro.errors import QueryError
from repro.metrics.distance import (
    DistanceFunction,
    L1Metric,
    L2Metric,
    LInfMetric,
)
from repro.model.values import MAX_ENCODED_STRING_LENGTH
from repro.query import Query

#: Tuple-list elements evaluated per kernel call.  One block of the default
#: 12-byte tuple elements spans ~3 KB of the tuple list — well inside one
#: buffered-reader chunk, so blocking changes call counts, not I/O.
BLOCK_TUPLES = 256

#: Valid filter-kernel modes on engines and the CLI's ``--kernel`` flag:
#: ``scalar`` (per-tuple; the identity oracle) and ``v3`` (whole-segment
#: columnar decode + array-wide evaluation).
KERNEL_MODES = ("scalar", "v3")

#: Serialises the (rare) growth of text terms' row tables across threads.
_ROW_LOCK = threading.Lock()

#: Signatures bounded per array expression in a text run.
_BOUND_SLICE = 512


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

    The array path keeps its own tables as rows: ``_row_of`` maps a
    stored length to its row, ``_masks[row]`` holds the query's gram masks
    in gram order (zeros for signatures wider than one word, which keep
    the scalar loop) and ``_bounds[row]`` the same ``hit_count → bound``
    array.  Rows exist only for the lengths the term has met, and a length
    bounded only array-wide never builds the scalar mask list.
    """

    __slots__ = ("encoder", "_per_length", "_row_of", "_counts", "_masks", "_bounds")

    def __init__(self, query_string: str, n: int) -> None:
        self.encoder = QueryStringEncoder(query_string, n)
        #: stored_length → (masks, bounds); masks are ``(mask, count)``
        #: pairs ordered most-selective first, ``bounds[hits]`` the bound
        #: for that many hits (:meth:`_bound_table`).
        self._per_length: Dict[
            int, Tuple[List[Tuple[int, int]], Tuple[float, ...]]
        ] = {}
        self._row_of = None
        self._counts = None
        self._masks = None
        self._bounds = None

    def _bound_table(self, stored_length: int) -> Tuple[float, ...]:
        """``bounds[hits]``: Eq. 3 or the length filter, whichever is larger.

        Edit distance is never below the length difference,
        ``ed(a, b) >= ||a| - |b||``.  A stored length of
        :data:`~repro.model.values.MAX_ENCODED_STRING_LENGTH` is saturated
        (the string may be longer), so it only bounds from below:
        ``max(0, 255 - |q|)``.  The larger of two lower bounds is still a
        lower bound (Prop. 3.3), and being non-negative it also clamps
        Eq. 3.
        """
        query_length = self.encoder.query_length
        n = self.encoder.n
        if stored_length < MAX_ENCODED_STRING_LENGTH:
            length_bound = float(abs(stored_length - query_length))
        else:
            length_bound = float(max(0, stored_length - query_length))
        bounds = []
        for hits in range(self.encoder.total_grams + 1):
            est = estimate_from_hits(query_length, stored_length, hits, n)
            bounds.append(est if est > length_bound else length_bound)
        return tuple(bounds)

    def _compile_length(
        self, stored_length: int, scheme
    ) -> Tuple[List[Tuple[int, int]], Tuple[float, ...]]:
        """Scalar tables for one signature geometry; cached per stored length."""
        entry = self._per_length.get(stored_length)
        if entry is not None:
            return entry
        l_bits, t = scheme.parameters_for(stored_length)
        entry = (self.encoder.masks_for(l_bits, t), self._bound_table(stored_length))
        self._per_length[stored_length] = entry
        return entry

    def _bound(self, stored_length: int, bits: int, scheme) -> float:
        """One signature's bound through the scalar mask loop."""
        masks, bounds = self._compile_length(stored_length, scheme)
        hits = 0
        for mask, count in masks:
            if mask & bits == mask:
                hits += count
        return bounds[hits]

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
        bound = self._bound
        for i, payload in enumerate(column):
            if payload is None:
                out[i] = ndf_penalty
                continue
            exact[i] = False
            best: Optional[float] = None
            for stored_length, bits in payload:
                value = bound(stored_length, bits, scheme)
                if best is None or value < best:
                    best = value
                    if best <= 0.0:
                        break
            out[i] = best

    def _rows(self, lengths, scheme):
        """Each signature's table row; compiles rows for unseen lengths.

        A new row is published in ``_row_of`` only after the arrays that
        hold it are in place, so a thread sharing this term never reads a
        row past the end of ``_masks``/``_bounds``.
        """
        row_of = self._row_of
        if row_of is None:
            with _ROW_LOCK:
                if self._row_of is None:
                    self._counts = np.array(
                        [count for _, count in self.encoder.grams], dtype=np.int64
                    )
                    self._masks = np.empty((0, len(self._counts)), dtype=np.uint64)
                    self._bounds = np.empty(
                        (0, self.encoder.total_grams + 1), dtype=np.float64
                    )
                    self._row_of = np.full(256, -1, dtype=np.int16)
            row_of = self._row_of
        rows = row_of[lengths]
        if rows.min() >= 0:
            return rows
        with _ROW_LOCK:
            missing = np.unique(lengths[row_of[lengths] < 0]).tolist()
            mask_rows = self._masks.tolist()
            bound_rows = self._bounds.tolist()
            for stored_length in missing:
                l_bits, t = scheme.parameters_for(stored_length)
                if l_bits > 8 * WORD_BYTES:
                    mask_rows.append([0] * len(self._counts))
                else:
                    mask_rows.append(
                        [gram_mask(gram, l_bits, t) for gram, _ in self.encoder.grams]
                    )
                bound_rows.append(self._bound_table(stored_length))
            self._masks = np.array(mask_rows, dtype=np.uint64)
            self._bounds = np.array(bound_rows, dtype=np.float64)
            first = len(self._masks) - len(missing)
            for offset, stored_length in enumerate(missing):
                row_of[stored_length] = first + offset
        return row_of[lengths]

    def _run_bounds(self, run, scheme):
        """This term's bound for every signature of *run*, memoised on it.

        ``((words & M) == M) @ counts`` is each signature's hit count —
        the same integer sum the scalar loop adds up — so indexing the
        same ``hits → bound`` rows keeps every value bit-identical.
        Signatures wider than one word run the scalar loop.
        """
        vals = run.bounds.get(self)
        if vals is not None:
            return vals
        lengths = run.lengths
        words = run.words
        rows = self._rows(lengths, scheme)
        vals = np.empty(len(rows), dtype=np.float64)
        # Slices keep the (signatures × grams) temporaries small whatever
        # the run's length.
        for lo in range(0, len(rows), _BOUND_SLICE):
            hi = lo + _BOUND_SLICE
            row = rows[lo:hi]
            masks = self._masks[row]
            hits = ((words[lo:hi, None] & masks) == masks) @ self._counts
            vals[lo:hi] = self._bounds[row, hits]
        wide = run.wide_index
        if len(wide):
            bound = self._bound
            vals[wide] = [
                bound(length, bits, scheme)
                for length, bits in zip(lengths[wide].tolist(), run.wide_bits)
            ]
        run.bounds[self] = vals
        return vals

    def bound_segment(self, segment, scheme, count: int, ndf_penalty: float):
        """``(bounds, defined)`` arrays for one decoded text segment.

        Bounds the segment's whole signature run once (later blocks cut
        from the same run slice the memo), then min-reduces per tuple.
        The scalar path's ``best <= 0.0`` short-circuit is safe to drop:
        bounds are clamped non-negative, so a 0.0 *is* the min.
        """
        lo = segment.lo
        hi = segment.hi
        if lo == hi:
            vals = ()
        else:
            vals = self._run_bounds(segment.signatures, scheme)[lo:hi]
        return fastpath.text_min_scatter(
            count, segment.slots, vals, ndf_penalty, segment.repeats
        )

    @property
    def table_lengths(self) -> int:
        """Distinct stored lengths compiled so far, on either path (observability)."""
        lengths = set(self._per_length)
        if self._row_of is not None:
            lengths.update(np.flatnonzero(self._row_of >= 0).tolist())
        return len(lengths)


class CompiledNumericTerm:
    """One numeric term compiled for array-wide and scalar bounding.

    :meth:`bound_segment` bounds a whole decoded segment through
    :meth:`NumericQuantizer.lower_bound_array` and keeps no per-code
    state.  The scalar :meth:`bound_column` serves the
    :class:`~repro.core.segment.ColumnSegment` blocks ``decode_segment``
    adapts from ``move_to`` (3-byte codes, codes wider than
    :data:`~repro.core.numeric.VECTORISED_MAX_BYTES`, a truncated list,
    third-party codecs) and memoises each observed code's bound.  Every
    path produces the exact double :meth:`NumericQuantizer.lower_bound`
    returns.
    """

    __slots__ = ("quantizer", "query_value", "_memo")

    def __init__(
        self, quantizer: Optional[NumericQuantizer], query_value: float
    ) -> None:
        self.quantizer = quantizer
        self.query_value = query_value
        # An attribute absent from the index has no quantizer: every
        # payload is None (the null scanner), so the memo stays empty.
        self._memo: Dict[int, float] = {}

    @property
    def vectorised(self) -> bool:
        """True when :meth:`bound_segment` can bound this term's codes."""
        quantizer = self.quantizer
        return quantizer is not None and quantizer.vector_bytes <= VECTORISED_MAX_BYTES

    def bound_column(
        self,
        column: Sequence[object],
        out: List[float],
        ndf_penalty: float,
        exact: List[bool],
    ) -> None:
        """Fill ``out`` with this term's lower bound per block element."""
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

    def bound_segment(self, segment, ndf_penalty: float):
        """``(bounds, defined)`` arrays for one decoded numeric segment.

        One :meth:`NumericQuantizer.lower_bound_array` call over the whole
        code column (undefined slots hold arbitrary codes and are then
        overwritten with ``ndf_penalty``); only for :attr:`vectorised`
        terms.
        """
        defined = segment.defined
        out = self.quantizer.lower_bound_array(self.query_value, segment.codes)
        out[~defined] = ndf_penalty
        return out, defined

    @property
    def table_codes(self) -> int:
        """Codes memoised by :meth:`bound_column` so far (observability)."""
        return len(self._memo)


class KernelCache:
    """Shared compiled-term artifact: one entry per ``(attribute, value)``.

    One instance spans whatever should share compilation work — a batch of
    queries or (in the serving daemon) every request against one index
    snapshot — so two queries naming the same term get the *same*
    compiled object (and the block evaluator's column
    cache can key on object identity).  ``hits``/``misses`` count term
    lookups so long-lived caches can report reuse.

    The cache is an LRU bounded at :attr:`CAPACITY` terms: a read-only
    daemon would otherwise keep every term it ever compiled until the next
    rebuild.  An evicted term is simply compiled again on its next lookup
    (a miss); queries already holding it keep their reference.
    """

    #: Terms kept.  Compiled terms hold about 5 KB each (gram multiset,
    #: row tables, scalar tables for wide signatures; measured over the
    #: 1,198 distinct terms of 450 benchmark queries), so the cap keeps a
    #: long-lived cache near 5 MB.
    CAPACITY = 1024

    __slots__ = ("_terms", "_lock", "hits", "misses")

    def __init__(self) -> None:
        self._terms: "OrderedDict[Tuple[int, object], object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _lookup(self, key: Tuple[int, object], compile_term):
        terms = self._terms
        with self._lock:
            term = terms.get(key)
            if term is not None:
                terms.move_to_end(key)
                self.hits += 1
                return term
            self.misses += 1
            term = compile_term()
            terms[key] = term
            if len(terms) > self.CAPACITY:
                terms.popitem(last=False)
            return term

    def text_term(self, attr_id: int, query_string: str, n: int) -> CompiledTextTerm:
        """The shared compiled text term for ``attr = query_string``."""
        return self._lookup(
            (attr_id, query_string), lambda: CompiledTextTerm(query_string, n)
        )

    def numeric_term(
        self, attr_id: int, quantizer: Optional[NumericQuantizer], value: float
    ) -> CompiledNumericTerm:
        """The shared compiled numeric term for ``attr = value``."""
        return self._lookup(
            (attr_id, value), lambda: CompiledNumericTerm(quantizer, value)
        )

    def __len__(self) -> int:
        return len(self._terms)


class QueryKernel:
    """One query compiled for block-at-a-time filtering.

    Holds the compiled per-term tables, the payload slot of each term, the
    pre-resolved importance weights, and the metric — everything the
    per-block loop needs without touching the query again.

    :meth:`evaluate_segments` weighs each term with
    :meth:`DistanceFunction.weight` (the oracle's cached floats) and
    combines as ``metric.combine`` does.  Numeric bounds equal the scalar
    oracle's; text bounds add the length filter.
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

        *position* maps attribute id → payload slot (the engine's union
        scan); ``None`` means payloads align 1:1 with the query's
        terms, as in :class:`~repro.core.engine.BoundEvaluator`.
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

    def _bound_segment(self, term, scheme, segment, count: int):
        """``(bounds, defined)`` arrays for one term over one segment.

        Columnar segments route to the term's vectorised ``bound_segment``;
        a :class:`~repro.core.segment.ColumnSegment` (the base
        ``decode_segment``'s ``move_to`` adapter: the engine's null scanner,
        third-party codecs, codes wider than four bytes) runs the scalar
        ``bound_column`` and wraps its output — so mixed-shape blocks stay
        bit-identical to the scalar walk term by term.
        """
        ndf_penalty = self.ndf_penalty
        kind = segment.kind
        if kind == "text" and isinstance(term, CompiledTextTerm):
            return term.bound_segment(segment, scheme, count, ndf_penalty)
        if (
            kind == "numeric"
            and isinstance(term, CompiledNumericTerm)
            and term.vectorised
        ):
            return term.bound_segment(segment, ndf_penalty)
        column = segment.column()
        out = [0.0] * count
        exact = [True] * count
        if isinstance(term, CompiledTextTerm):
            term.bound_column(column, scheme, out, ndf_penalty, exact)
        else:
            term.bound_column(column, out, ndf_penalty, exact)
        defined = ~np.asarray(exact, dtype=bool)
        return np.asarray(out, dtype=np.float64), defined

    def evaluate_segments(
        self,
        segments: Sequence[object],
        count: int,
        cache: Optional[dict] = None,
    ):
        """``(estimated, exact)`` for one block of decoded segments.

        *segments* holds one :mod:`repro.core.segment` object per scan
        slot (the ``decode_segment`` output of each scanner); *cache*,
        when given, is a per-block memo keyed on compiled-term identity,
        so batched queries sharing a term bound its column once.  Per-term
        bounds come from the vectorised ``bound_segment`` routines and the
        combine collapses to :func:`repro.core.fastpath.combine_columns`
        for the built-in metrics — both proven bit-identical to the
        per-element scalar chain — while custom metrics fall back to the
        per-element ``combine``.  Returns a float64 and a bool array, so
        block-level candidacy (:class:`~repro.core.pool.BlockCandidacy`)
        stays array-wide.
        """
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
            any_defined |= defined
            bound_columns.append(out)
        exact = ~any_defined
        estimates = fastpath.combine_columns(
            _metric_kind(self.metric), self.weights, bound_columns, count
        )
        if estimates is not None:
            return estimates, exact
        combine = self.metric.combine
        pairs = [
            (weight, column.tolist())
            for weight, column in zip(self.weights, bound_columns)
        ]
        scalar_estimates = [
            combine([weight * column[i] for weight, column in pairs])
            for i in range(count)
        ]
        return np.asarray(scalar_estimates, dtype=np.float64), exact

    #: The serving benchmark's tracer patches this name; the kernel
    #: itself only calls :meth:`evaluate_segments`.
    evaluate_block = evaluate_segments

    @property
    def table_entries(self) -> int:
        """Table entries materialised across this kernel's terms.

        Text terms count compiled stored lengths; numeric terms count the
        codes their scalar ``bound_column`` memoised, which only blocks
        adapted from ``move_to`` fill.
        """
        total = 0
        for term in self.terms:
            if isinstance(term, CompiledTextTerm):
                total += term.table_lengths
            else:
                total += term.table_codes
        return total
