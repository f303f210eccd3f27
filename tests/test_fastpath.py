"""Tests pinning the numpy fast path to the scalar reference, byte for byte."""

import random

import pytest

from repro.core.fastpath import (
    encode_numeric_batch,
    encode_numeric_column,
    pack_codes,
)
from repro.core.numeric import NumericQuantizer
from repro.core.vector_lists import ListType, build_numeric_list


@pytest.fixture(params=[1, 2, 4, 8])
def quantizer(request):
    return NumericQuantizer(lo=-500.0, hi=1500.0, vector_bytes=request.param)


def _random_values(count, rng):
    # Mix in-domain, boundary and out-of-domain values.
    values = [rng.uniform(-1000, 2000) for _ in range(count - 4)]
    values += [-500.0, 1500.0, -1e9, 1e9]
    return values


class TestBatchEncode:
    def test_matches_scalar_small(self, quantizer):
        rng = random.Random(1)
        values = _random_values(20, rng)  # below the numpy threshold
        assert encode_numeric_batch(quantizer, values) == [
            quantizer.encode(v) for v in values
        ]

    def test_matches_scalar_large(self, quantizer):
        rng = random.Random(2)
        values = _random_values(500, rng)  # above the numpy threshold
        assert encode_numeric_batch(quantizer, values) == [
            quantizer.encode(v) for v in values
        ]

    def test_matches_scalar_with_reserved_ndf(self):
        q = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=2, reserve_ndf=True)
        rng = random.Random(3)
        values = _random_values(300, rng)
        assert encode_numeric_batch(q, values) == [q.encode(v) for v in values]

    def test_degenerate_domain(self):
        q = NumericQuantizer(lo=5.0, hi=5.0, vector_bytes=1)
        values = [4.0, 5.0, 6.0] * 50
        assert encode_numeric_batch(q, values) == [q.encode(v) for v in values]

    def test_empty(self, quantizer):
        assert encode_numeric_batch(quantizer, []) == []


class TestPackCodes:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_matches_scalar_packing(self, width):
        rng = random.Random(4)
        top = (1 << (8 * width)) - 1
        codes = [rng.randrange(top + 1) for _ in range(200)]
        expected = b"".join(code.to_bytes(width, "little") for code in codes)
        assert pack_codes(codes, width) == expected

    def test_odd_width_falls_back(self):
        codes = [1, 2, 3] * 50
        assert pack_codes(codes, 3) == b"".join(
            c.to_bytes(3, "little") for c in codes
        )


class TestColumnEncoding:
    def test_column_equals_per_value(self, quantizer):
        rng = random.Random(5)
        values = _random_values(300, rng)
        expected = b"".join(quantizer.encode_bytes(v) for v in values)
        assert encode_numeric_column(quantizer, values) == expected

    def test_built_lists_unchanged_by_fastpath(self):
        """The list builder's bytes are identical with many or few values
        (i.e. with or without the vectorised branch)."""
        rng = random.Random(6)
        q4 = NumericQuantizer(lo=0.0, hi=1000.0, vector_bytes=2, reserve_ndf=True)
        entries = sorted(
            (tid, rng.uniform(-100, 1100)) for tid in rng.sample(range(500), 200)
        )
        all_tids = list(range(500))
        built = build_numeric_list(ListType.TYPE_IV, q4, entries, all_tids)
        by_tid = dict(entries)
        expected = bytearray()
        for tid in all_tids:
            if tid in by_tid:
                expected += q4.encode_bytes(by_tid[tid])
            else:
                expected += q4.ndf_bytes()
        assert built == bytes(expected)
