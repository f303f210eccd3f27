"""Unit tests for the four vector-list layouts and their selection."""

import pytest

from repro.core.numeric import NumericQuantizer
from repro.core.kernel import BLOCK_TUPLES
from repro.core.scan import (
    NUM_BYTES,
    SKIP_SEGMENT_ELEMENTS,
    TEXT_BLOCK_HEADER,
    TID_BYTES,
    NumericTypeIScanner,
    NumericTypeIVScanner,
    TextTypeIScanner,
    TextTypeIIScanner,
    TextTypeIIIScanner,
)
from repro.core.signature import SignatureScheme
from repro.core.vector_lists import (
    ListType,
    build_numeric_list,
    build_text_list,
    choose_numeric_type,
    choose_text_type,
    numeric_list_sizes,
    text_list_sizes,
    text_vector_total_bytes,
)
from repro.errors import EncodingError, IndexError_
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferedReader

SCHEME = SignatureScheme(alpha=0.25, n=2)

TEXT_ENTRIES = [
    (1, ("White",)),
    (3, ("Red",)),
    (6, ("Brown", "Black")),
]
ALL_TIDS = [0, 1, 3, 5, 6]

NUMERIC_ENTRIES = [(3, 5.0), (6, 2.0)]


def _reader_for(payload: bytes) -> BufferedReader:
    disk = SimulatedDisk()
    disk.create("list")
    disk.append("list", payload)
    return BufferedReader(disk, "list", 0)


class TestSizeFormulas:
    def test_text_sizes_match_paper(self):
        """The paper's closed forms plus one block header per block."""
        header = TEXT_BLOCK_HEADER.size
        sizes = text_list_sizes(vector_total_bytes=100, df=3, str_count=4, table_tuples=5)
        assert sizes.type_i == TID_BYTES * 4 + 100 + header
        assert sizes.type_ii == (TID_BYTES + NUM_BYTES) * 3 + 100 + header
        assert sizes.type_iii == NUM_BYTES * 5 + 100 + header
        blocks = 3
        many = text_list_sizes(
            vector_total_bytes=100,
            df=2 * SKIP_SEGMENT_ELEMENTS + 1,
            str_count=SKIP_SEGMENT_ELEMENTS,
            table_tuples=2 * BLOCK_TUPLES + 1,
        )
        assert many.type_i == TID_BYTES * SKIP_SEGMENT_ELEMENTS + 100 + header
        assert many.type_ii == (TID_BYTES + NUM_BYTES) * (
            2 * SKIP_SEGMENT_ELEMENTS + 1
        ) + 100 + blocks * header
        assert many.type_iii == NUM_BYTES * (2 * BLOCK_TUPLES + 1) + 100 + blocks * header

    def test_numeric_sizes_match_paper(self):
        sizes = numeric_list_sizes(vector_bytes=2, df=3, table_tuples=5)
        assert sizes.type_i == (TID_BYTES + 2) * 3
        assert sizes.type_iv == 2 * 5

    def test_best_text_is_smallest(self):
        dense = text_list_sizes(100, df=5, str_count=5, table_tuples=5)
        assert dense.best() is ListType.TYPE_III
        sparse = text_list_sizes(100, df=1, str_count=1, table_tuples=1000)
        assert sparse.best() in (ListType.TYPE_I, ListType.TYPE_II)

    def test_best_numeric_is_smallest(self):
        assert numeric_list_sizes(2, df=1, table_tuples=1000).best() is ListType.TYPE_I
        assert numeric_list_sizes(2, df=900, table_tuples=1000).best() is ListType.TYPE_IV

    def test_tie_prefers_lower_type_number(self):
        # Equal sizes: min() on (size, type_number) picks Type I.
        sizes = text_list_sizes(0, df=0, str_count=0, table_tuples=0)
        assert sizes.best() is ListType.TYPE_I


class TestBuildSizesAgree:
    def test_built_text_lists_match_predicted_size(self):
        total = text_vector_total_bytes(SCHEME, TEXT_ENTRIES)
        df = len(TEXT_ENTRIES)
        strs = sum(len(v) for _, v in TEXT_ENTRIES)
        sizes = text_list_sizes(total, df, strs, len(ALL_TIDS))
        assert len(build_text_list(ListType.TYPE_I, SCHEME, TEXT_ENTRIES, ALL_TIDS)) == sizes.type_i
        assert len(build_text_list(ListType.TYPE_II, SCHEME, TEXT_ENTRIES, ALL_TIDS)) == sizes.type_ii
        assert len(build_text_list(ListType.TYPE_III, SCHEME, TEXT_ENTRIES, ALL_TIDS)) == sizes.type_iii

    def test_built_numeric_lists_match_predicted_size(self):
        q1 = NumericQuantizer(lo=2.0, hi=5.0, vector_bytes=2)
        q4 = NumericQuantizer(lo=2.0, hi=5.0, vector_bytes=2, reserve_ndf=True)
        sizes = numeric_list_sizes(2, len(NUMERIC_ENTRIES), len(ALL_TIDS))
        assert len(build_numeric_list(ListType.TYPE_I, q1, NUMERIC_ENTRIES, ALL_TIDS)) == sizes.type_i
        assert len(build_numeric_list(ListType.TYPE_IV, q4, NUMERIC_ENTRIES, ALL_TIDS)) == sizes.type_iv

    def test_choose_text_type_consistent(self):
        chosen, sizes = choose_text_type(SCHEME, TEXT_ENTRIES, len(ALL_TIDS))
        built = build_text_list(chosen, SCHEME, TEXT_ENTRIES, ALL_TIDS)
        assert len(built) == min(sizes.type_i, sizes.type_ii, sizes.type_iii)

    def test_choose_numeric_type_consistent(self):
        chosen, sizes = choose_numeric_type(2, len(NUMERIC_ENTRIES), len(ALL_TIDS))
        assert chosen is sizes.best()


class TestTextScanners:
    def _roundtrip(self, list_type, scanner_cls):
        payload = build_text_list(list_type, SCHEME, TEXT_ENTRIES, ALL_TIDS)
        scanner = scanner_cls(_reader_for(payload), SCHEME)
        expected = dict(TEXT_ENTRIES)
        for tid in ALL_TIDS:
            got = scanner.move_to(tid)
            if tid in expected:
                strings = expected[tid]
                assert got is not None
                assert len(got) == len(strings)
                for signature, s in zip(got, strings):
                    assert signature == SCHEME.encode(s)
            else:
                assert got is None

    def test_type_i(self):
        self._roundtrip(ListType.TYPE_I, TextTypeIScanner)

    def test_type_ii(self):
        self._roundtrip(ListType.TYPE_II, TextTypeIIScanner)

    def test_type_iii(self):
        self._roundtrip(ListType.TYPE_III, TextTypeIIIScanner)

    def test_freeze_semantics_skipped_tids(self):
        """Pointers freeze at larger tids and never go backwards."""
        payload = build_text_list(ListType.TYPE_I, SCHEME, TEXT_ENTRIES, ALL_TIDS)
        scanner = TextTypeIScanner(_reader_for(payload), SCHEME)
        assert scanner.move_to(0) is None
        assert scanner.pending_tid == 1
        assert scanner.move_to(1) is not None
        assert scanner.pending_tid == 3  # frozen, waiting for tid 3
        assert scanner.move_to(2) is None
        assert scanner.pending_tid == 3  # still frozen
        assert scanner.move_to(3) is not None

    def test_tail_freeze(self):
        payload = build_text_list(ListType.TYPE_II, SCHEME, TEXT_ENTRIES, ALL_TIDS)
        scanner = TextTypeIIScanner(_reader_for(payload), SCHEME)
        for tid in ALL_TIDS:
            scanner.move_to(tid)
        assert scanner.pending_tid is None
        assert scanner.move_to(999) is None

    def test_type_iii_exhaustion_raises(self):
        payload = build_text_list(ListType.TYPE_III, SCHEME, TEXT_ENTRIES, ALL_TIDS)
        scanner = TextTypeIIIScanner(_reader_for(payload), SCHEME)
        for tid in ALL_TIDS:
            scanner.move_to(tid)
        with pytest.raises(IndexError_):
            scanner.move_to(999)


class TestNumericScanners:
    def test_type_i(self):
        q = NumericQuantizer(lo=2.0, hi=5.0, vector_bytes=2)
        payload = build_numeric_list(ListType.TYPE_I, q, NUMERIC_ENTRIES, ALL_TIDS)
        scanner = NumericTypeIScanner(_reader_for(payload), q)
        expected = dict(NUMERIC_ENTRIES)
        for tid in ALL_TIDS:
            got = scanner.move_to(tid)
            if tid in expected:
                assert got == q.encode(expected[tid])
            else:
                assert got is None

    def test_type_iv(self):
        q = NumericQuantizer(lo=2.0, hi=5.0, vector_bytes=2, reserve_ndf=True)
        payload = build_numeric_list(ListType.TYPE_IV, q, NUMERIC_ENTRIES, ALL_TIDS)
        scanner = NumericTypeIVScanner(_reader_for(payload), q)
        expected = dict(NUMERIC_ENTRIES)
        for tid in ALL_TIDS:
            got = scanner.move_to(tid)
            if tid in expected:
                assert got == q.encode(expected[tid])
            else:
                assert got is None

    def test_type_iv_requires_reserved_code(self):
        q = NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=1)
        with pytest.raises(IndexError_):
            NumericTypeIVScanner(_reader_for(b""), q)

    def test_type_iv_exhaustion_raises(self):
        q = NumericQuantizer(lo=2.0, hi=5.0, vector_bytes=2, reserve_ndf=True)
        payload = build_numeric_list(ListType.TYPE_IV, q, NUMERIC_ENTRIES, ALL_TIDS)
        scanner = NumericTypeIVScanner(_reader_for(payload), q)
        for tid in ALL_TIDS:
            scanner.move_to(tid)
        with pytest.raises(IndexError_):
            scanner.move_to(999)


class TestBuildValidation:
    def test_unsorted_entries_rejected(self):
        entries = [(5, ("a",)), (1, ("b",))]
        with pytest.raises(EncodingError):
            build_text_list(ListType.TYPE_I, SCHEME, entries, ALL_TIDS)

    def test_duplicate_tids_rejected_in_positional(self):
        entries = [(1, ("a",)), (1, ("b",))]
        with pytest.raises(EncodingError):
            build_text_list(ListType.TYPE_III, SCHEME, entries, ALL_TIDS)

    def test_wrong_kind_rejected(self):
        q = NumericQuantizer(lo=0.0, hi=1.0, vector_bytes=1)
        with pytest.raises(EncodingError):
            build_text_list(ListType.TYPE_IV, SCHEME, TEXT_ENTRIES, ALL_TIDS)
        with pytest.raises(EncodingError):
            build_numeric_list(ListType.TYPE_II, q, NUMERIC_ENTRIES, ALL_TIDS)

    def test_multi_string_in_type_i_repeats_tid(self):
        payload = build_text_list(ListType.TYPE_I, SCHEME, [(6, ("a", "b"))], [6])
        # One block of two elements: the tid column holds 6 twice.
        header = TEXT_BLOCK_HEADER.size
        count, body = TEXT_BLOCK_HEADER.unpack_from(payload)
        assert (count, header + body) == (2, len(payload))
        tids = payload[header : header + 2 * TID_BYTES]
        assert tids == (6).to_bytes(TID_BYTES, "little") * 2
