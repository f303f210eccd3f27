"""The filter kernel: compiled bounds must be bit-identical to scalar.

Two layers of checks:

* **property tests** (hypothesis) pin ``CompiledTextTerm`` /
  ``CompiledNumericTerm`` bound columns to the scalar routines they were
  compiled from — on randomized signatures and slice codes, ndf payloads,
  clamped out-of-domain values, and the open-ended boundary slices of
  Prop. 3.3.  Equality is ``==``, not approx: the kernel's contract is
  bit identity, not tolerance;
* **engine tests** assert full top-k answer identity between
  ``kernel="scalar"`` and ``kernel="v3"`` across codecs, worker counts,
  and the batch engine — both with numpy and through v3's numpy-absent
  block fallback (``move_block`` columns into ``evaluate_block``).
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IVAConfig, IVAEngine, IVAFile
from repro.codec import CODEC_NAMES
from repro.core import fastpath
from repro.core.batch import BatchIVAEngine
from repro.core.kernel import (
    BLOCK_TUPLES,
    KERNEL_MODES,
    CompiledNumericTerm,
    CompiledTextTerm,
    KernelCache,
    QueryKernel,
    validate_kernel_mode,
)
from repro.core.numeric import EAGER_LUT_MAX_CODES, NumericQuantizer
from repro.core.signature import Signature, QueryStringEncoder, SignatureScheme
from repro.data.workload import WorkloadGenerator
from repro.errors import QueryError
from repro.metrics.distance import DistanceFunction
from repro.parallel import ExecutorConfig

TEXT = st.text(alphabet=string.ascii_lowercase + " #$", min_size=1, max_size=24)
NDF_PENALTY = 1.0


def _text_bounds(query_string, n, scheme, payloads):
    """Run one compiled text term over a column of signature payloads."""
    term = CompiledTextTerm(query_string, n)
    out = [0.0] * len(payloads)
    exact = [True] * len(payloads)
    term.bound_column(payloads, scheme, out, NDF_PENALTY, exact)
    return term, out, exact


class TestCompiledTextTerm:
    @given(
        sq=TEXT,
        data=st.lists(TEXT, min_size=1, max_size=6),
        n=st.integers(2, 3),
        alpha=st.sampled_from([0.1, 0.2, 0.5]),
    )
    def test_bounds_match_scalar_on_encoded_strings(self, sq, data, n, alpha):
        """Kernel bound == min over the scalar per-signature lower bounds."""
        scheme = SignatureScheme(alpha=alpha, n=n)
        encoder = QueryStringEncoder(sq, n)
        signatures = [scheme.encode(s) for s in data]
        expected = min(encoder.lower_bound(sig) for sig in signatures)
        payload = [(sig.length, sig.bits) for sig in signatures]
        _, out, exact = _text_bounds(sq, n, scheme, [payload])
        assert out[0] == expected
        assert exact == [False]

    @given(
        sq=TEXT,
        stored_length=st.integers(1, 30),
        raw_bits=st.lists(st.integers(min_value=0), min_size=1, max_size=5),
        n=st.integers(2, 3),
    )
    def test_bounds_match_scalar_on_random_signatures(
        self, sq, stored_length, raw_bits, n
    ):
        """Arbitrary bit patterns, not just encodable ones, agree too."""
        scheme = SignatureScheme(alpha=0.2, n=n)
        l_bits, t = scheme.parameters_for(stored_length)
        bits = [b % (1 << l_bits) for b in raw_bits]
        encoder = QueryStringEncoder(sq, n)
        expected = min(
            encoder.lower_bound(
                Signature(length=stored_length, l_bits=l_bits, t=t, bits=b)
            )
            for b in bits
        )
        payload = [(stored_length, b) for b in bits]
        _, out, _ = _text_bounds(sq, n, scheme, [payload])
        assert out[0] == expected

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
    def test_eager_table_matches_scalar(
        self, lo, span, query_value, values, reserve_ndf
    ):
        """One-byte code space: the eager LUT equals the scalar call on
        every encoded value, clamped out-of-domain ones included."""
        quantizer = NumericQuantizer(
            lo=lo, hi=lo + span, vector_bytes=1, reserve_ndf=reserve_ndf
        )
        term = CompiledNumericTerm(quantizer, query_value)
        assert term.table_codes == quantizer.num_slices
        # Boundary slices are the open-ended ones of Prop. 3.3 — always
        # include them alongside the sampled values.
        codes = [quantizer.encode(v) for v in values]
        codes += [0, quantizer.num_slices - 1]
        out = [0.0] * len(codes)
        exact = [True] * len(codes)
        term.bound_column(codes, out, NDF_PENALTY, exact)
        for got, code in zip(out, codes):
            assert got == quantizer.lower_bound(query_value, code)
        assert exact == [False] * len(codes)

    @given(
        query_value=FINITE,
        codes=st.lists(st.integers(0, 65534), min_size=1, max_size=8),
    )
    def test_lazy_memo_matches_scalar(self, query_value, codes):
        """Two-byte code space exceeds the eager limit; the memoised path
        must return the same bounds as the scalar call."""
        quantizer = NumericQuantizer(
            lo=-500.0, hi=500.0, vector_bytes=2, reserve_ndf=True
        )
        assert quantizer.num_slices > EAGER_LUT_MAX_CODES
        term = CompiledNumericTerm(quantizer, query_value)
        out = [0.0] * len(codes)
        exact = [True] * len(codes)
        term.bound_column(codes, out, NDF_PENALTY, exact)
        for got, code in zip(out, codes):
            assert got == quantizer.lower_bound(query_value, code)

    def test_ndf_codes_get_penalty_and_stay_exact(self):
        quantizer = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=1)
        term = CompiledNumericTerm(quantizer, 42.0)
        out = [0.0] * 3
        exact = [True] * 3
        term.bound_column([None, 7, None], out, NDF_PENALTY, exact)
        assert out[0] == NDF_PENALTY
        assert out[2] == NDF_PENALTY
        assert out[1] == quantizer.lower_bound(42.0, 7)
        assert exact == [True, False, True]

    def test_full_block_gather_matches_scalar(self):
        """A fully-defined block-sized column takes the numpy gather when
        available; bounds stay bit-identical either way."""
        quantizer = NumericQuantizer(lo=0.0, hi=255.0, vector_bytes=1)
        term = CompiledNumericTerm(quantizer, 311.5)  # beyond hi: clamped side
        codes = [i % quantizer.num_slices for i in range(BLOCK_TUPLES)]
        out = [0.0] * len(codes)
        exact = [True] * len(codes)
        term.bound_column(codes, out, NDF_PENALTY, exact)
        assert out == [quantizer.lower_bound(311.5, c) for c in codes]
        assert exact == [False] * len(codes)

    def test_absent_attribute_compiles_without_a_table(self):
        term = CompiledNumericTerm(None, 1.0)
        out = [0.0]
        exact = [True]
        term.bound_column([None], out, NDF_PENALTY, exact)
        assert out == [NDF_PENALTY]
        assert exact == [True]


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
        with pytest.raises(QueryError):
            BatchIVAEngine(small_dataset, index, kernel="bogus")


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

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        """Route v3 through its numpy-absent block fallback: every
        ``decode_segment`` wraps ``move_block`` and ``evaluate_segments``
        hands the columns to ``evaluate_block``."""
        monkeypatch.setattr(fastpath, "_np", None)

    def _sequential_matches(self, setups, table, codec):
        indexes, queries = setups
        scalar = self._answers(
            IVAEngine(table, indexes[codec], kernel="scalar"), queries
        )
        v3 = self._answers(IVAEngine(table, indexes[codec], kernel="v3"), queries)
        assert v3 == scalar

    def _parallel_matches(self, setups, table, codec, workers):
        indexes, queries = setups
        scalar = self._answers(
            IVAEngine(table, indexes[codec], kernel="scalar"), queries
        )
        v3 = self._answers(
            IVAEngine(
                table,
                indexes[codec],
                kernel="v3",
                executor=ExecutorConfig(workers=workers),
            ),
            queries,
        )
        assert v3 == scalar

    def _batch_matches(self, setups, table, codec):
        indexes, queries = setups
        scalar = BatchIVAEngine(table, indexes[codec], kernel="scalar").search_batch(
            queries, k=8
        )
        v3 = BatchIVAEngine(table, indexes[codec], kernel="v3").search_batch(
            queries, k=8
        )
        assert [[(r.tid, r.distance) for r in report.results] for report in v3] == [
            [(r.tid, r.distance) for r in report.results] for report in scalar
        ]

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_sequential_v3_matches_scalar(self, setups, small_dataset, codec):
        self._sequential_matches(setups, small_dataset, codec)

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_sequential_block_matches_scalar(
        self, setups, small_dataset, codec, no_numpy
    ):
        self._sequential_matches(setups, small_dataset, codec)

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_v3_matches_scalar(self, setups, small_dataset, codec, workers):
        self._parallel_matches(setups, small_dataset, codec, workers)

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_block_matches_scalar(
        self, setups, small_dataset, codec, workers, no_numpy
    ):
        self._parallel_matches(setups, small_dataset, codec, workers)

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_batch_v3_matches_scalar(self, setups, small_dataset, codec):
        self._batch_matches(setups, small_dataset, codec)

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_batch_block_matches_scalar(self, setups, small_dataset, codec, no_numpy):
        self._batch_matches(setups, small_dataset, codec)
