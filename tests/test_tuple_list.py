"""Unit tests for the shared tuple list."""

import numpy as np
import pytest

from repro.core.tuple_list import DELETED_PTR, TupleList
from repro.errors import IndexError_
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def tuples():
    disk = SimulatedDisk()
    tl = TupleList(disk, "t.tuples")
    tl.rebuild([(0, 100), (1, 200), (3, 300)])
    return tl


class TestTupleList:
    def test_scan_returns_elements_in_order(self, tuples):
        assert list(tuples.scan()) == [(0, 100), (1, 200), (3, 300)]

    def test_append(self, tuples):
        tuples.append(7, 400)
        assert list(tuples.scan())[-1] == (7, 400)
        assert tuples.element_count == 4

    def test_append_duplicate_rejected(self, tuples):
        with pytest.raises(IndexError_):
            tuples.append(1, 999)

    def test_mark_deleted_rewrites_ptr(self, tuples):
        tuples.mark_deleted(1)
        assert list(tuples.scan()) == [(0, 100), (1, DELETED_PTR), (3, 300)]
        assert tuples.deleted_count == 1

    def test_double_delete_rejected(self, tuples):
        tuples.mark_deleted(1)
        with pytest.raises(IndexError_):
            tuples.mark_deleted(1)

    def test_delete_unknown_rejected(self, tuples):
        with pytest.raises(IndexError_):
            tuples.mark_deleted(42)

    def test_rebuild_resets(self, tuples):
        tuples.mark_deleted(1)
        tuples.rebuild([(0, 111), (3, 333)])
        assert list(tuples.scan()) == [(0, 111), (3, 333)]
        assert tuples.deleted_count == 0
        assert tuples.element_count == 2

    def test_rebuild_requires_increasing_tids(self, tuples):
        with pytest.raises(IndexError_):
            tuples.rebuild([(3, 1), (1, 2)])

    def test_byte_size(self, tuples):
        assert tuples.byte_size == 12 * 3

    def test_empty_list(self):
        disk = SimulatedDisk()
        tl = TupleList(disk, "e.tuples")
        assert list(tl.scan()) == []
        assert tl.element_count == 0

    def test_scan_range_is_the_watermarked_prefix(self, tuples):
        assert list(tuples.scan_range(0, 2)) == [(0, 100), (1, 200)]
        assert list(tuples.scan_range(1, 3)) == [(1, 200), (3, 300)]
        assert list(tuples.scan_range(2, 2)) == []

    @pytest.mark.parametrize("start, end", [(-1, 2), (2, 1), (0, 4)])
    def test_scan_range_rejects_bad_ranges(self, tuples, start, end):
        with pytest.raises(IndexError_):
            list(tuples.scan_range(start, end))
        with pytest.raises(IndexError_):
            list(tuples.scan_range_blocks(start, end, 2))

    def test_scan_range_blocks_columns(self, tuples):
        assert [
            (tids.tolist(), ptrs.tolist())
            for tids, ptrs in tuples.scan_range_blocks(0, 3, 2)
        ] == [
            ([0, 1], [100, 200]),
            ([3], [300]),
        ]
        with pytest.raises(IndexError_):
            list(tuples.scan_range_blocks(0, 3, 0))

    @pytest.mark.parametrize("block", [1, 7, 64, 5000])
    @pytest.mark.parametrize("start", [0, 1, 130])
    def test_scan_range_blocks_matches_scan_range(self, start, block):
        """Blocks concatenate to :meth:`scan_range` element by element:
        any start, a block size that does not divide the range, tombstones
        and ptrs that need all 64 bits; tids come as int64 and ptrs as
        uint64 arrays."""
        disk = SimulatedDisk()
        tl = TupleList(disk, "w.tuples")
        tl.rebuild((3 * i + 1, (i << 33) + i) for i in range(300))
        for tid in (1, 97, 3 * 130 + 1, 3 * 299 + 1):
            tl.mark_deleted(tid)
        tl.append(5000, DELETED_PTR - 1)
        end = tl.element_count
        expected = list(tl.scan_range(start, end))
        assert any(ptr == DELETED_PTR for _, ptr in expected)
        blocks = list(tl.scan_range_blocks(start, end, block))
        sizes = [len(tids) for tids, _ in blocks]
        assert sizes == [len(ptrs) for _, ptrs in blocks]
        assert all(size == block for size in sizes[:-1])
        assert 0 < sizes[-1] <= block
        got = [
            pair
            for tids, ptrs in blocks
            for pair in zip(tids.tolist(), ptrs.tolist())
        ]
        assert got == expected
        assert all(
            tids.dtype == np.int64 and ptrs.dtype == np.uint64
            for tids, ptrs in blocks
        )
