"""Unit tests for the interpreted row codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.model.record import Record
from repro.storage.interpreted import (
    MAX_ENTRIES_PER_ROW,
    TAG_NUMERIC,
    decode_record,
    encode_record,
    iter_rows,
    row_length,
)

from tests.helpers import reference_decode_record

ATTR_IDS = st.integers(min_value=0, max_value=40)
CELL = st.one_of(
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=12), min_size=1, max_size=3).map(tuple),
)
RECORDS = st.builds(
    Record,
    tid=st.integers(min_value=0, max_value=2**32 - 1),
    cells=st.dictionaries(ATTR_IDS, CELL, max_size=12),
)
PROJECTIONS = st.frozensets(ATTR_IDS, max_size=8)


def _tag_offsets(record: Record):
    """Byte offset of every entry's type tag in ``encode_record(record)``."""
    offsets = []
    pos = 10  # u32 total + u32 tid + u16 num_entries
    for _, value in sorted(record.cells.items()):
        offsets.append(pos + 4)
        pos += 5
        if isinstance(value, float):
            pos += 8
        else:
            pos += 1 + sum(2 + len(s.encode("utf-8")) for s in value)
    return offsets


class TestRoundtrip:
    def test_numeric_only(self):
        record = Record(tid=7, cells={3: 230.0, 1: -1.5})
        decoded, end = decode_record(encode_record(record))
        assert decoded.tid == 7
        assert decoded.cells == {3: 230.0, 1: -1.5}
        assert end == len(encode_record(record))

    def test_text_only(self):
        record = Record(tid=1, cells={0: ("Canon",), 2: ("Computer", "Software")})
        decoded, _ = decode_record(encode_record(record))
        assert decoded.cells == record.cells

    def test_mixed(self):
        record = Record(tid=0, cells={0: ("Digital Camera",), 5: 230.0})
        decoded, _ = decode_record(encode_record(record))
        assert decoded.cells == record.cells

    def test_unicode_strings(self):
        record = Record(tid=9, cells={0: ("日本語テキスト", "naïve café")})
        decoded, _ = decode_record(encode_record(record))
        assert decoded.cells == record.cells

    def test_empty_record(self):
        record = Record(tid=4)
        decoded, _ = decode_record(encode_record(record))
        assert decoded.tid == 4
        assert decoded.cells == {}

    def test_offset_parsing(self):
        first = encode_record(Record(tid=1, cells={0: 1.0}))
        second = encode_record(Record(tid=2, cells={0: 2.0}))
        buffer = first + second
        record, end = decode_record(buffer, len(first))
        assert record.tid == 2
        assert end == len(buffer)

    def test_iter_rows(self):
        records = [Record(tid=i, cells={0: float(i)}) for i in range(5)]
        buffer = b"".join(encode_record(r) for r in records)
        assert [r.tid for r in iter_rows(buffer)] == [0, 1, 2, 3, 4]

    def test_row_length(self):
        payload = encode_record(Record(tid=1, cells={0: 1.0}))
        assert row_length(payload) == len(payload)


class TestValidation:
    def test_truncated_header(self):
        with pytest.raises(StorageError):
            decode_record(b"\x01\x02")

    def test_corrupt_length(self):
        payload = bytearray(encode_record(Record(tid=1, cells={0: 1.0})))
        payload[0:4] = (1).to_bytes(4, "little")  # absurdly short
        with pytest.raises(StorageError):
            decode_record(bytes(payload))

    def test_declared_length_beyond_buffer(self):
        payload = bytearray(encode_record(Record(tid=1, cells={0: 1.0})))
        payload[0:4] = (10000).to_bytes(4, "little")
        with pytest.raises(StorageError):
            decode_record(bytes(payload))

    def test_unknown_type_tag(self):
        payload = bytearray(encode_record(Record(tid=1, cells={0: 1.0})))
        # entry head = header(10) + attr_id(4), tag at offset 14
        payload[14] = 77
        with pytest.raises(StorageError):
            decode_record(bytes(payload))

    def test_too_many_strings_rejected(self):
        record = Record(tid=1, cells={0: tuple(f"s{i}" for i in range(256))})
        with pytest.raises(StorageError):
            encode_record(record)

    def test_unencodable_value_rejected(self):
        record = Record(tid=1, cells={0: object()})  # type: ignore[dict-item]
        with pytest.raises(StorageError):
            encode_record(record)

    def test_too_many_entries_rejected(self):
        record = Record(tid=1, cells={i: 1.0 for i in range(MAX_ENTRIES_PER_ROW + 1)})
        with pytest.raises(StorageError, match=str(MAX_ENTRIES_PER_ROW)):
            encode_record(record)

    def test_entry_limit_itself_roundtrips(self):
        record = Record(tid=1, cells={i: 1.0 for i in range(MAX_ENTRIES_PER_ROW)})
        decoded, _ = decode_record(encode_record(record))
        assert len(decoded.cells) == MAX_ENTRIES_PER_ROW

    def test_oversized_string_rejected(self):
        record = Record(tid=1, cells={0: ("x" * 70000,)})
        with pytest.raises(StorageError):
            encode_record(record)


class TestProjectedDecode:
    def test_projection_keeps_only_requested_cells(self):
        record = Record(tid=3, cells={0: ("Canon", "EOS"), 2: 230.0, 5: ("x",)})
        payload = encode_record(record)
        projected, end = decode_record(payload, attr_ids={2, 5, 9})
        assert projected.tid == 3
        assert projected.cells == {2: 230.0, 5: ("x",)}
        assert end == len(payload)

    def test_projected_row_skips_utf8_decode(self):
        payload = bytearray(encode_record(Record(tid=1, cells={0: ("ab",), 1: 2.0})))
        payload[18:20] = b"\xff\xff"  # attribute 0's string bytes: invalid UTF-8
        projected, _ = decode_record(bytes(payload), attr_ids={1})
        assert projected.cells == {1: 2.0}

    @given(record=RECORDS, attr_ids=PROJECTIONS)
    def test_projection_equals_restricted_full_decode(self, record, attr_ids):
        payload = encode_record(record)
        full, full_end = decode_record(payload)
        projected, end = decode_record(payload, attr_ids=attr_ids)
        assert end == full_end
        assert projected.tid == full.tid
        assert projected.cells == {
            a: v for a, v in full.cells.items() if a in attr_ids
        }

    @given(record=RECORDS, attr_ids=PROJECTIONS)
    def test_every_truncation_fails_under_both_decodes(self, record, attr_ids):
        payload = encode_record(record)
        for cut in range(len(payload)):
            short = payload[:cut]
            # Re-declare the row length too, so the entry-level checks (not
            # just the header's) have to catch the missing bytes.
            relabelled = cut.to_bytes(4, "little") + short[4:] if cut >= 4 else short
            for buffer in (short, relabelled):
                for projection in (None, attr_ids):
                    with pytest.raises(StorageError):
                        decode_record(buffer, attr_ids=projection)

    @given(record=RECORDS, attr_ids=PROJECTIONS, tag=st.integers(2, 255))
    def test_every_bad_tag_fails_under_both_decodes(self, record, attr_ids, tag):
        payload = encode_record(record)
        for offset in _tag_offsets(record):
            corrupt = bytearray(payload)
            assert corrupt[offset] in (TAG_NUMERIC, TAG_NUMERIC + 1)
            corrupt[offset] = tag
            for projection in (None, attr_ids):
                with pytest.raises(StorageError, match="unknown entry type tag"):
                    decode_record(bytes(corrupt), attr_ids=projection)


def _field_offsets(record: Record):
    """Byte offsets of the ``(tag, text count, string length)`` fields."""
    tags, counts, lengths = [], [], []
    pos = 10
    for _, value in sorted(record.cells.items()):
        tags.append(pos + 4)
        pos += 5
        if isinstance(value, float):
            pos += 8
            continue
        counts.append(pos)
        pos += 1
        for s in value:
            lengths.append(pos)
            pos += 2 + len(s.encode("utf-8"))
    return tags, counts, lengths


def _outcome(decode, buffer, projection):
    """What one parse of *buffer* gives: the row, or the error it raises."""
    try:
        record, end = decode(buffer, attr_ids=projection)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    # repr keeps a NaN that corrupt bytes decode to comparable.
    return record.tid, repr(sorted(record.cells.items())), end


def _corruptions(record: Record, payload: bytes):
    """*payload* cut at every byte, and with each length-bearing field and
    tag rewritten to values around and far from the true one."""
    size = len(payload)
    for cut in range(size):
        short = payload[:cut]
        yield short
        if cut >= 4:
            yield cut.to_bytes(4, "little") + short[4:]
    for total in {0, 1, 9, 10, 11, size - 1, size + 1, size + 7, 2**32 - 1}:
        yield (total % 2**32).to_bytes(4, "little") + payload[4:]
    for entries in {0, 1, len(record.cells) - 1, len(record.cells) + 1, 65535}:
        yield payload[:8] + (entries % 65536).to_bytes(2, "little") + payload[10:]
    tags, counts, lengths = _field_offsets(record)
    for offset in tags:
        for tag in (0, 1, 2, 255):
            yield payload[:offset] + bytes([tag]) + payload[offset + 1 :]
    for offset in counts:
        for count in {0, payload[offset] - 1, payload[offset] + 1, 255}:
            yield payload[:offset] + bytes([count % 256]) + payload[offset + 1 :]
    for offset in lengths:
        true = int.from_bytes(payload[offset : offset + 2], "little")
        for length in {0, true - 1, true + 1, true + 3, 65535}:
            yield (
                payload[:offset]
                + (length % 65536).to_bytes(2, "little")
                + payload[offset + 2 :]
            )


class TestCorruptRowsFailAsBefore:
    """The projected walker fails every corrupt row exactly as the earlier
    one-loop parser did: same exception, same message (docs/storage.md)."""

    @settings(max_examples=60, deadline=None)
    @given(record=RECORDS, attr_ids=PROJECTIONS)
    def test_same_outcome_as_reference_parser(self, record, attr_ids):
        payload = encode_record(record)
        failures = 0
        for buffer in _corruptions(record, payload):
            for projection in (None, attr_ids):
                got = _outcome(decode_record, buffer, projection)
                assert got == _outcome(reference_decode_record, buffer, projection)
                failures += got[0] == "StorageError"
        assert failures >= len(payload)  # every plain cut fails, both ways

    def test_corrupt_tail_fails_under_a_projection(self):
        """A projection ending before a corrupt last entry still fails."""
        payload = bytearray(encode_record(Record(tid=4, cells={1: 2.0, 9: ("ab",)})))
        payload[-3] = 9  # attribute 9's string length: past the row's end
        with pytest.raises(StorageError, match="truncated string bytes"):
            decode_record(bytes(payload), attr_ids={1})
