"""The filter kernel: compiled bounds against the scalar oracle's.

Two layers of checks:

* **property tests** (hypothesis) pin ``CompiledNumericTerm`` segment
  bounds to the scalar routine they were compiled from — on randomized
  slice codes, ndf payloads, clamped out-of-domain values, and the
  open-ended boundary slices of Prop. 3.3 — and ``CompiledTextTerm``
  between the oracle's Eq. 3 and the exact edit distance: its tables
  round Eq. 3 up to a whole number and add the length filter, including
  the saturated stored length 255.
  Equality is ``==``, not approx: the kernel's contract is bit identity
  with the formula, not tolerance;
* **engine tests** assert full top-k answer identity between the
  scalar oracle (``IVAEngine(kernel="scalar")``) and every path v3 runs —
  a single search and a batch (``search_batch``) — including 3-, 5- and
  8-byte numeric codes, which every ``decode_segment`` widens to uint64.
"""

from __future__ import annotations

import math
import string
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.codec import CODEC_NAMES
from repro.core.iva_file import _NullScanner
from repro.core.kernel import (
    BLOCK_TUPLES,
    KERNEL_MODES,
    CompiledNumericTerm,
    CompiledTextTerm,
    KernelCache,
    QueryKernel,
    validate_kernel_mode,
)
from repro.core.numeric import NumericQuantizer
from repro.core.segment import NumericSegment, TextSegment
from repro.core.signature import Signature, QueryStringEncoder, SignatureScheme
from repro.core.vector_lists import ListType
from repro.data.workload import WorkloadGenerator
from repro.errors import EncodingError, QueryError
from repro.metrics.distance import DistanceFunction, L2Metric
from repro.metrics.edit_distance import compile_pattern
from repro.model.schema import AttributeType
from repro.model.values import MAX_ENCODED_STRING_LENGTH
from tests.helpers import scalar_text_bounds

TEXT = st.text(alphabet=string.ascii_lowercase + " #$", min_size=1, max_size=24)
NDF_PENALTY = 1.0


def _text_bounds(query_string, n, scheme, payloads):
    """Run one compiled text term's scalar mask loop over a payload column."""
    term = CompiledTextTerm(query_string, n)
    out, defined = scalar_text_bounds(term, payloads, scheme, NDF_PENALTY)
    return term, out, [not flag for flag in defined]


def _numeric_bounds(term, codes, defined=None):
    """``(bounds, exact)`` lists from one numeric term over a code column."""
    if defined is None:
        defined = [True] * len(codes)
    out, got_defined = term.bound_segment(
        NumericSegment(np.asarray(codes, dtype=np.uint64), np.asarray(defined)),
        NDF_PENALTY,
    )
    return out.tolist(), [not flag for flag in got_defined.tolist()]


def _length_bound(query_length: int, stored_length: int) -> float:
    """The length filter as the signature sees it (255 means 255 or more)."""
    if stored_length < MAX_ENCODED_STRING_LENGTH:
        return float(abs(stored_length - query_length))
    return float(max(0, stored_length - query_length))


#: Strings long enough to saturate the signature's stored length at 255.
LONG_TEXT = st.builds(lambda s, r: s * r, TEXT, st.integers(11, 40))


class TestCompiledTextTerm:
    @settings(max_examples=150, deadline=None)
    @given(
        sq=st.one_of(TEXT, st.text(alphabet="ab", min_size=1, max_size=1), LONG_TEXT),
        data=st.lists(st.one_of(TEXT, LONG_TEXT), min_size=1, max_size=4),
        n=st.integers(2, 3),
        alpha=st.sampled_from([0.1, 0.2, 0.5]),
    )
    def test_bound_between_eq3_and_edit_distance(self, sq, data, n, alpha):
        """Eq. 3 (the scalar oracle's bound) <= v3 bound <= exact distance.

        Multi-string cells take the min over their strings on every side;
        long strings store the saturated length 255.
        """
        scheme = SignatureScheme(alpha=alpha, n=n)
        encoder = QueryStringEncoder(sq, n)
        signatures = [scheme.encode(s) for s in data]
        eq3 = min(encoder.lower_bound(sig) for sig in signatures)
        exact = min(compile_pattern(sq).distance(s) for s in data)
        payload = [(sig.length, sig.bits) for sig in signatures]
        _, out, flags = _text_bounds(sq, n, scheme, [payload])
        assert eq3 <= out[0] <= exact
        assert flags == [False]

    @given(
        sq=st.one_of(TEXT, LONG_TEXT),
        stored_length=st.one_of(st.integers(1, 30), st.just(MAX_ENCODED_STRING_LENGTH)),
        raw_bits=st.lists(st.integers(min_value=0), min_size=1, max_size=5),
        n=st.integers(2, 3),
    )
    def test_bound_is_eq3_or_length_filter_on_random_signatures(
        self, sq, stored_length, raw_bits, n
    ):
        """Arbitrary bit patterns, not just encodable ones: each signature's
        bound is the larger of ⌈Eq. 3⌉ and the length filter, on the scalar
        mask loop and on the array path alike.  Edit distance is a whole
        number, so rounding Eq. 3 up keeps it a lower bound."""
        scheme = SignatureScheme(alpha=0.2, n=n)
        l_bits, t = scheme.parameters_for(stored_length)
        bits = [b % (1 << l_bits) for b in raw_bits]
        encoder = QueryStringEncoder(sq, n)
        length = _length_bound(len(sq), stored_length)

        def eq3_ceiling(b: int) -> int:
            hits = encoder.hit_count(
                Signature(length=stored_length, l_bits=l_bits, t=t, bits=b)
            )
            eq3 = Fraction(max(len(sq), stored_length) - hits - 1, n) + 1
            return math.ceil(eq3)

        expected = min(float(max(eq3_ceiling(b), length)) for b in bits)
        payload = [(stored_length, b) for b in bits]
        term, out, _ = _text_bounds(sq, n, scheme, [payload])
        assert out[0] == expected
        segment = TextSegment.from_pairs(
            1, [0] * len(bits), [stored_length] * len(bits), bits, 1, scheme
        )
        bounds, _ = term.bound_segment(segment, scheme, 1, NDF_PENALTY)
        assert bounds.tolist() == [expected]

    def test_empty_query_string_is_refused(self):
        """No signature encodes an empty string, on either side."""
        with pytest.raises(EncodingError):
            CompiledTextTerm("", 2)
        with pytest.raises(EncodingError):
            QueryStringEncoder("", 2)

    def test_ndf_payload_gets_penalty_and_stays_exact(self):
        scheme = SignatureScheme(alpha=0.2, n=2)
        sig = scheme.encode("canon")
        _, out, exact = _text_bounds(
            "cannon", 2, scheme, [None, [(sig.length, sig.bits)], None]
        )
        assert out[0] == NDF_PENALTY
        assert out[2] == NDF_PENALTY
        assert exact == [True, False, True]

    def test_masks_ordered_most_selective_first(self):
        """Gram masks come popcount-descending so the mask loop front-loads
        the tests most likely to miss (a miss costs one AND either way, but
        selective-first keeps the common early-break cheap)."""
        encoder = QueryStringEncoder("reproduction", 2)
        scheme = SignatureScheme(alpha=0.2, n=2)
        l_bits, t = scheme.parameters_for(12)
        masks = encoder.masks_for(l_bits, t)
        popcounts = [bin(mask).count("1") for mask, _ in masks]
        assert popcounts == sorted(popcounts, reverse=True)


FINITE = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestCompiledNumericTerm:
    @given(
        lo=FINITE,
        span=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        query_value=FINITE,
        values=st.lists(FINITE, min_size=1, max_size=8),
        reserve_ndf=st.booleans(),
    )
    def test_one_byte_memo_matches_scalar(
        self, lo, span, query_value, values, reserve_ndf
    ):
        """One-byte code space: the segment bounds equal the scalar call
        on every encoded value, clamped out-of-domain ones included."""
        quantizer = NumericQuantizer(
            lo=lo, hi=lo + span, vector_bytes=1, reserve_ndf=reserve_ndf
        )
        term = CompiledNumericTerm(quantizer, query_value)
        # Boundary slices are the open-ended ones of Prop. 3.3 — always
        # include them alongside the sampled values.
        codes = [quantizer.encode(v) for v in values]
        codes += [0, quantizer.num_slices - 1]
        out, exact = _numeric_bounds(term, codes)
        for got, code in zip(out, codes):
            assert got == quantizer.lower_bound(query_value, code)
        assert exact == [False] * len(codes)

    @given(
        query_value=FINITE,
        codes=st.lists(st.integers(0, 65534), min_size=1, max_size=8),
    )
    def test_lazy_memo_matches_scalar(self, query_value, codes):
        """Two-byte code space: the segment path must return the same
        bounds as the scalar call."""
        quantizer = NumericQuantizer(
            lo=-500.0, hi=500.0, vector_bytes=2, reserve_ndf=True
        )
        term = CompiledNumericTerm(quantizer, query_value)
        out, _ = _numeric_bounds(term, codes)
        for got, code in zip(out, codes):
            assert got == quantizer.lower_bound(query_value, code)

    def test_ndf_codes_get_penalty_and_stay_exact(self):
        quantizer = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=1)
        term = CompiledNumericTerm(quantizer, 42.0)
        out, exact = _numeric_bounds(term, [0, 7, 0], [False, True, False])
        assert out[0] == NDF_PENALTY
        assert out[2] == NDF_PENALTY
        assert out[1] == quantizer.lower_bound(42.0, 7)
        assert exact == [True, False, True]

    def test_full_block_gather_matches_scalar(self):
        """A fully-defined block-sized column: every code's bound is
        bit-identical to the scalar call."""
        quantizer = NumericQuantizer(lo=0.0, hi=255.0, vector_bytes=1)
        term = CompiledNumericTerm(quantizer, 311.5)  # beyond hi: clamped side
        codes = [i % quantizer.num_slices for i in range(BLOCK_TUPLES)]
        out, exact = _numeric_bounds(term, codes)
        assert out == [quantizer.lower_bound(311.5, c) for c in codes]
        assert exact == [False] * len(codes)

    def test_segment_bounds_keep_no_per_code_state(self):
        """A two-byte segment is bounded array-wide: bit-identical to the
        scalar call, and nothing is memoised per code (a long-lived kernel
        cache would otherwise grow with every code it sees)."""
        quantizer = NumericQuantizer(
            lo=-500.0, hi=500.0, vector_bytes=2, reserve_ndf=True
        )
        term = CompiledNumericTerm(quantizer, 12.5)
        codes = np.arange(0, quantizer.num_slices, 97, dtype=np.uint64)
        defined = codes % 5 != 0
        out, got_defined = term.bound_segment(
            NumericSegment(codes, defined), NDF_PENALTY
        )
        assert CompiledNumericTerm.__slots__ == ("quantizer", "query_value")
        assert got_defined is defined
        assert out.tolist() == [
            quantizer.lower_bound(12.5, code) if flag else NDF_PENALTY
            for code, flag in zip(codes.tolist(), defined.tolist())
        ]

    def test_absent_attribute_compiles_without_a_table(self):
        """No quantizer: the null scanner's all-ndf segment bounds to the
        penalty without touching the term."""
        term = CompiledNumericTerm(None, 1.0)
        kernel = QueryKernel(None, [term], [None], [0], [1.0], L2Metric(), NDF_PENALTY)
        out, exact = kernel.evaluate_segments([_NullScanner().decode_segment([0])], 1)
        assert out.tolist() == [NDF_PENALTY]
        assert exact.tolist() == [True]


class TestKernelMode:
    def test_validate_accepts_known_modes(self):
        for mode in KERNEL_MODES:
            assert validate_kernel_mode(mode) == mode

    def test_validate_rejects_unknown_mode(self):
        with pytest.raises(QueryError):
            validate_kernel_mode("vectorized")

    def test_engines_reject_unknown_mode(self, small_dataset):
        index = IVAFile.build(small_dataset, IVAConfig(name="kern_mode"))
        with pytest.raises(QueryError):
            IVAEngine(small_dataset, index, kernel="bogus")
        # Batches run the v3 kernel only: the scalar oracle refuses them.
        with pytest.raises(QueryError):
            IVAEngine(small_dataset, index, kernel="scalar").search_batch([], k=5)

    def test_v3_is_the_default(self, small_dataset):
        index = IVAFile.build(small_dataset, IVAConfig(name="kern_default"))
        assert IVAEngine(small_dataset, index).kernel == "v3"


class TestKernelCacheSharing:
    def test_same_term_compiles_once(self, small_dataset):
        index = IVAFile.build(small_dataset, IVAConfig(name="kern_cache"))
        workload = WorkloadGenerator(small_dataset, seed=5)
        query = workload.sample_query(2)
        dist = DistanceFunction()
        shared = KernelCache()
        first = QueryKernel.compile(index, query, dist, cache=shared)
        second = QueryKernel.compile(index, query, dist, cache=shared)
        assert len(shared) == len(query.terms)
        for a, b in zip(first.terms, second.terms):
            assert a is b


    def test_cache_is_a_bounded_lru(self):
        """A long-lived cache keeps at most CAPACITY terms, evicting the oldest.

        A re-requested evicted term is compiled again and counts as a miss;
        a recently used one survives and counts as a hit.
        """
        cache = KernelCache()
        cap = KernelCache.CAPACITY
        first = cache.text_term(0, "q0", 2)
        for i in range(1, cap + 50):
            cache.text_term(0, f"q{i}", 2)
            cache.numeric_term(1, None, float(i))
        assert len(cache) <= cap
        assert cache.misses == 2 * (cap + 49) + 1
        hot = cache.numeric_term(1, None, float(cap + 49))
        assert cache.hits == 1
        misses = cache.misses
        again = cache.text_term(0, "q0", 2)
        assert again is not first
        assert cache.misses == misses + 1
        assert cache.numeric_term(1, None, float(cap + 49)) is hot
        assert len(cache) <= cap


    def test_shared_terms_under_threads(self, monkeypatch):
        """Threads sharing one cache and its terms lose no update.

        More threads than cores, a tiny switch interval, and more distinct
        terms than the cap: lookups must count exactly once each, and
        every array bound — while several threads grow the same term's row
        tables — must equal the scalar mask loop.
        """
        monkeypatch.setattr(KernelCache, "CAPACITY", 32)
        scheme = SignatureScheme(0.2, 2)
        strings = ["ab" * (1 + i % 30) + "c" * (i % 7) for i in range(40)]
        encoded = [scheme.encode(text) for text in strings]
        cache = KernelCache()
        threads_n, rounds = 6, 60
        errors = []

        def worker(seed: int) -> None:
            for i in range(rounds):
                term = cache.text_term(0, f"abc{(seed * 7 + i) % 48}", 2)
                chosen = encoded[(seed + i) % 7 :: 3]
                segment = TextSegment.from_pairs(
                    len(chosen),
                    list(range(len(chosen))),
                    [sig.length for sig in chosen],
                    [sig.bits for sig in chosen],
                    len(chosen),
                    scheme,
                )
                bounds, _ = term.bound_segment(segment, scheme, len(chosen), 1.0)
                expected, _ = scalar_text_bounds(term, segment.column(), scheme, 1.0)
                if bounds.tolist() != expected:
                    errors.append((seed, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.hits + cache.misses == threads_n * rounds
        assert len(cache) <= KernelCache.CAPACITY


class TestAnswerIdentity:
    @pytest.fixture(scope="class")
    def setups(self, small_dataset):
        """Per codec: the index plus 9 mixed-arity queries."""
        workload = WorkloadGenerator(small_dataset, seed=31)
        queries = [
            workload.sample_query(arity) for arity in (1, 2, 3) for _ in range(3)
        ]
        indexes = {
            codec: IVAFile.build(
                small_dataset, IVAConfig(name=f"kern_{codec}", codec=codec)
            )
            for codec in CODEC_NAMES
        }
        return indexes, queries

    @staticmethod
    def _answers(engine, queries):
        return [
            [(r.tid, r.distance) for r in engine.search(q, k=8).results]
            for q in queries
        ]

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_sequential_v3_matches_scalar(self, setups, small_dataset, codec):
        indexes, queries = setups
        index = indexes[codec]
        scalar = self._answers(
            IVAEngine(small_dataset, index, kernel="scalar"), queries
        )
        v3 = self._answers(IVAEngine(small_dataset, index, kernel="v3"), queries)
        assert v3 == scalar

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_batch_v3_matches_scalar(self, setups, small_dataset, codec):
        indexes, queries = setups
        index = indexes[codec]
        scalar = self._answers(
            IVAEngine(small_dataset, index, kernel="scalar"), queries
        )
        v3 = IVAEngine(small_dataset, index).search_batch(queries, k=8)
        assert [[(r.tid, r.distance) for r in report.results] for report in v3] == (
            scalar
        )


class TestWideNumericCodes:
    """v3 on numeric codes with no numpy scalar type, or past int64.

    α = 0.3 / 0.6 / 1.0 give 3-, 5- and 8-byte vectors, which the numeric
    ``decode_segment``s widen to uint64.  8-byte codes reach 2^63 and
    above (Type IV reserves 2^64 - 1 as ndf).  Answers equal the scalar
    oracle's, and v3 refines no more rows.
    """

    QUERIES = [
        {"SN": 900.0},
        {"SN": 12.0},
        {"DN": 990.0},
        {"DN": 3.5},
        {"SN": 640.0, "DN": 700.0},
        {"SN": 999.0, "DN": 996.0, "T": "item7"},
    ]

    @pytest.fixture(scope="class")
    def wide_table(self):
        """Sparse ``SN`` (Type I), dense ``DN`` (Type IV) and a text column."""
        table = SparseWideTable(SimulatedDisk())
        for i in range(240):
            cells = {"T": f"item{i % 13}"}
            if i % 5 == 0:
                cells["SN"] = float((i * 37) % 1000)
            if i % 17:
                cells["DN"] = float((i * 61) % 997) + 0.25
            table.insert(cells)
        return table

    @staticmethod
    def _rows(reports):
        return [[(r.tid, r.distance) for r in report.results] for report in reports]

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("alpha, width", [(0.3, 3), (0.6, 5), (1.0, 8)])
    def test_v3_matches_scalar(self, wide_table, codec, alpha, width):
        index = IVAFile.build(
            wide_table,
            IVAConfig(name=f"wide_{codec}_{width}", codec=codec, alpha=alpha),
        )
        catalog = wide_table.catalog
        sparse = index.entry(catalog.require("SN").attr_id)
        dense = index.entry(catalog.require("DN").attr_id)
        assert sparse.list_type is ListType.TYPE_I
        assert dense.list_type is ListType.TYPE_IV
        assert sparse.quantizer.vector_bytes == width

        def search(engine):
            return [engine.search(q, k=8) for q in self.QUERIES]

        def accesses(reports):
            return [report.table_accesses for report in reports]

        oracle = search(IVAEngine(wide_table, index, kernel="scalar"))
        scalar = self._rows(oracle)
        assert all(scalar)
        v3 = search(IVAEngine(wide_table, index, kernel="v3"))
        assert self._rows(v3) == scalar
        batch = IVAEngine(wide_table, index).search_batch(self.QUERIES, k=8)
        assert self._rows(batch) == scalar
        for reports in (v3, batch):
            for got, bound in zip(accesses(reports), accesses(oracle)):
                assert got <= bound


class TestUnindexedAttributes:
    """Terms on attributes registered after the build: the null scanner.

    The index holds no list for ``W`` (text) or ``N`` (numeric), so every
    tuple is ndf on them and v3 bounds the null scanner's all-ndf segments
    as the penalty.  Answers equal the scalar oracle's, alone and mixed
    with indexed terms, and v3 refines no more rows.
    """

    QUERIES = [
        {"W": "item3"},
        {"N": 7.0},
        {"W": "item3", "N": 7.0},
        {"T": "item7", "W": "item7"},
        {"SN": 640.0, "N": 7.0},
        {"SN": 999.0, "DN": 996.0, "T": "item7", "W": "x", "N": 1.0},
    ]

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_v3_matches_scalar(self, codec):
        table = SparseWideTable(SimulatedDisk())
        for i in range(240):
            cells = {"T": f"item{i % 13}"}
            if i % 5 == 0:
                cells["SN"] = float((i * 37) % 1000)
            if i % 17:
                cells["DN"] = float((i * 61) % 997) + 0.25
            table.insert(cells)
        index = IVAFile.build(table, IVAConfig(name=f"unindexed_{codec}", codec=codec))
        table.catalog.register("W", AttributeType.TEXT)
        table.catalog.register("N", AttributeType.NUMERIC)
        for name in ("W", "N"):
            assert index.entry(table.catalog.require(name).attr_id) is None

        def rows(reports):
            return [[(r.tid, r.distance) for r in report.results] for report in reports]

        oracle = [
            IVAEngine(table, index, kernel="scalar").search(q, k=8) for q in self.QUERIES
        ]
        assert all(rows(oracle))
        v3 = [IVAEngine(table, index).search(q, k=8) for q in self.QUERIES]
        batch = IVAEngine(table, index).search_batch(self.QUERIES, k=8)
        for reports in (v3, batch):
            assert rows(reports) == rows(oracle)
            for got, bound in zip(reports, oracle):
                assert got.table_accesses <= bound.table_accesses
        assert [r.table_accesses for r in batch] == [r.table_accesses for r in v3]
