"""Unit tests for relative-domain numeric approximation vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.numeric import (
    NumericQuantizer,
    vector_bytes_for_alpha,
)
from repro.errors import EncodingError


class TestVectorWidth:
    def test_paper_default(self):
        # α = 20 % of an 8-byte value -> 2-byte codes.
        assert vector_bytes_for_alpha(0.2) == 2

    def test_minimum_one_byte(self):
        assert vector_bytes_for_alpha(0.01) == 1

    def test_full_alpha(self):
        assert vector_bytes_for_alpha(1.0) == 8

    def test_bad_alpha(self):
        with pytest.raises(EncodingError):
            vector_bytes_for_alpha(0.0)


class TestEncoding:
    def test_codes_cover_domain(self):
        q = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=1)
        assert q.encode(0.0) == 0
        assert q.encode(100.0) == q.num_slices - 1
        assert 0 <= q.encode(37.5) < q.num_slices

    def test_monotone(self):
        q = NumericQuantizer(lo=0.0, hi=1000.0, vector_bytes=1)
        codes = [q.encode(v) for v in range(0, 1001, 10)]
        assert codes == sorted(codes)

    def test_out_of_domain_clamps(self):
        q = NumericQuantizer(lo=10.0, hi=20.0, vector_bytes=1)
        assert q.encode(-5.0) == 0
        assert q.encode(99.0) == q.num_slices - 1

    def test_reserved_ndf_code(self):
        q = NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=1, reserve_ndf=True)
        assert q.num_slices == 255
        assert q.ndf_code == 255
        assert q.encode(1.0) == 254  # data codes never collide with ndf

    def test_no_ndf_code_without_reservation(self):
        q = NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=1)
        assert q.ndf_code is None
        with pytest.raises(EncodingError):
            q.ndf_bytes()

    def test_bytes_roundtrip(self):
        q = NumericQuantizer(lo=0.0, hi=500.0, vector_bytes=2)
        for v in [0.0, 123.4, 500.0]:
            raw = q.encode_bytes(v)
            assert len(raw) == 2
            assert q.decode_bytes(raw) == q.encode(v)

    def test_decode_wrong_width(self):
        q = NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=2)
        with pytest.raises(EncodingError):
            q.decode_bytes(b"\x00")

    def test_empty_domain_rejected(self):
        with pytest.raises(EncodingError):
            NumericQuantizer(lo=5.0, hi=1.0, vector_bytes=1)

    def test_bad_width_rejected(self):
        with pytest.raises(EncodingError):
            NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=0)
        with pytest.raises(EncodingError):
            NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=9)


class TestLowerBound:
    def test_zero_inside_slice(self):
        q = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=1)
        code = q.encode(50.0)
        assert q.lower_bound(50.0, code) == 0.0

    def test_bound_never_exceeds_true_difference(self):
        q = NumericQuantizer(lo=0.0, hi=1000.0, vector_bytes=1)
        values = [0.0, 1.5, 250.0, 999.0, 1000.0, -50.0, 2000.0]  # incl. clamped
        queries = [0.0, 10.0, 500.0, 987.3, 1500.0, -3.0]
        for v in values:
            code = q.encode(v)
            for query in queries:
                assert q.lower_bound(query, code) <= abs(query - v) + 1e-9

    def test_bound_positive_for_distant_query(self):
        q = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=1)
        code = q.encode(10.0)
        assert q.lower_bound(90.0, code) > 0.0

    def test_boundary_slices_open_ended(self):
        q = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=1)
        low_code = q.encode(-1e9)
        high_code = q.encode(1e9)
        # Queries beyond the domain on the open side get bound 0.
        assert q.lower_bound(-5000.0, low_code) == 0.0
        assert q.lower_bound(5000.0, high_code) == 0.0

    def test_degenerate_domain(self):
        q = NumericQuantizer(lo=42.0, hi=42.0, vector_bytes=1)
        code = q.encode(42.0)
        assert q.lower_bound(42.0, code) == 0.0
        assert q.lower_bound(50.0, code) <= 8.0 + 1e-9

    def test_slice_bounds_validation(self):
        q = NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=1)
        with pytest.raises(EncodingError):
            q.slice_bounds(q.num_slices)

    def test_relative_domain_beats_absolute(self):
        """The paper's Sec. III-C argument: same code width, relative domain
        gives strictly tighter bounds for in-domain data."""
        relative = NumericQuantizer(lo=0.0, hi=1000.0, vector_bytes=1)
        absolute = NumericQuantizer(lo=-2**31, hi=2**31, vector_bytes=1)
        v, query = 800.0, 100.0
        rel_bound = relative.lower_bound(query, relative.encode(v))
        abs_bound = absolute.lower_bound(query, absolute.encode(v))
        assert rel_bound > abs_bound
        assert abs_bound == 0.0  # everything collapses into one slice


class TestFromDomain:
    def test_from_observed_domain(self):
        q = NumericQuantizer.from_domain(10.0, 20.0, alpha=0.2)
        assert (q.lo, q.hi) == (10.0, 20.0)
        assert q.vector_bytes == 2

    def test_from_empty_domain(self):
        q = NumericQuantizer.from_domain(None, None, alpha=0.2)
        assert (q.lo, q.hi) == (0.0, 0.0)
        # Degenerate but safe: bounds are conservative.
        assert q.lower_bound(5.0, q.encode(7.0)) <= 2.0 + 1e-9


FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
SPANS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestLowerBoundArray:
    """``lower_bound_array`` is ``lower_bound``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        lo=FINITE,
        span=SPANS,
        vector_bytes=st.sampled_from([1, 2, 4]),
        reserve_ndf=st.booleans(),
        data=st.data(),
    )
    def test_matches_scalar_bit_for_bit(self, lo, span, vector_bytes, reserve_ndf, data):
        q = NumericQuantizer(
            lo=lo, hi=lo + span, vector_bytes=vector_bytes, reserve_ndf=reserve_ndf
        )
        top = q.num_slices - 1
        codes = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=40))
        # The open-ended boundary slices and their neighbours, always.
        codes += [0, min(1, top), max(top - 1, 0), top]
        edges = [edge for code in codes[:6] for edge in q.slice_bounds(code)]
        outside = [q.lo - 1.0 - span, q.hi + 1.0 + span, math.inf, -math.inf, math.nan]
        query_value = data.draw(
            st.one_of(FINITE, st.sampled_from(edges), st.sampled_from(outside))
        )
        got = q.lower_bound_array(query_value, np.asarray(codes, dtype=np.int64))
        expected = np.asarray(
            [q.lower_bound(query_value, code) for code in codes], dtype=np.float64
        )
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        lo=FINITE,
        span=SPANS,
        vector_bytes=st.sampled_from([3, 5, 6, 7, 8]),
        reserve_ndf=st.booleans(),
        data=st.data(),
    )
    def test_wide_codes_match_scalar_bit_for_bit(
        self, lo, span, vector_bytes, reserve_ndf, data
    ):
        """3- and 5- to 8-byte code spaces, as uint64: still ``lower_bound``.

        Codes cover the open-ended boundary slices, the top code (2^64 - 1
        at 8 bytes without ``reserve_ndf``, where ``code + 1`` wraps in
        uint64), and codes at and just above 2^53 (where float64 stops
        holding every integer) and 2^63 (past int64).  Query values
        include those codes' slice edges, out-of-domain values, ±inf and
        nan.
        """
        q = NumericQuantizer(
            lo=lo, hi=lo + span, vector_bytes=vector_bytes, reserve_ndf=reserve_ndf
        )
        top = q.num_slices - 1
        landmarks = [0, 1, top // 2, top - 1, top] + [
            base + step for base in (2**53, 2**63) for step in (-1, 0, 1, 2, 3)
        ]
        landmarks = [code for code in landmarks if 0 <= code <= top]
        codes = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=40))
        edged = codes[:3] + data.draw(
            st.lists(st.sampled_from(landmarks), min_size=1, max_size=4)
        )
        codes += landmarks
        edges = [edge for code in edged for edge in q.slice_bounds(code)]
        outside = [q.lo - 1.0 - span, q.hi + 1.0 + span, math.inf, -math.inf, math.nan]
        query_value = data.draw(
            st.one_of(FINITE, st.sampled_from(edges), st.sampled_from(outside))
        )
        got = q.lower_bound_array(query_value, np.asarray(codes, dtype=np.uint64))
        expected = np.asarray(
            [q.lower_bound(query_value, code) for code in codes], dtype=np.float64
        )
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_degenerate_domain(self):
        q = NumericQuantizer(lo=5.0, hi=5.0, vector_bytes=2)
        codes = [0, 1, 300, q.num_slices - 1]
        for query_value in (4.0, 5.0, 6.5):
            got = q.lower_bound_array(query_value, np.asarray(codes))
            assert got.tolist() == [q.lower_bound(query_value, c) for c in codes]
