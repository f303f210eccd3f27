"""The interpreted row format of the table file.

The paper stores the SWT "horizontally in an interpreted format" (Beckmann
et al. [6], adopted in Sec. V-A): each row carries only its *defined*
(attribute id, value) pairs, self-describing enough to be parsed without a
fixed schema.  Our wire format:

```
row      := u32 total_length   # including this header, enables fwd scan
            u32 tid
            u16 num_entries
            entry*
entry    := u32 attr_id
            u8  type_tag       # 0 = numeric, 1 = text
            payload
numeric  := f64
text     := u8 num_strings, ( u16 byte_length, utf8 bytes )*
```

All integers little-endian.
"""

from __future__ import annotations

import struct
from typing import AbstractSet, Iterator, Optional, Tuple

from repro.errors import StorageError
from repro.model.record import Record
from repro.model.values import is_numeric_value, is_text_value

_HEADER = struct.Struct("<IIH")
_ENTRY_HEAD = struct.Struct("<IB")
_F64 = struct.Struct("<d")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_ENTRY_HEAD_SIZE = _ENTRY_HEAD.size
_F64_SIZE = _F64.size

TAG_NUMERIC = 0
TAG_TEXT = 1

MAX_ENTRIES_PER_ROW = 65535
MAX_STRINGS_PER_VALUE = 255
MAX_STRING_BYTES = 65535


def encode_record(record: Record) -> bytes:
    """Serialise a record into the interpreted row format."""
    body = bytearray()
    entries = sorted(record.cells.items())
    if len(entries) > MAX_ENTRIES_PER_ROW:
        raise StorageError(
            f"record {record.tid} defines {len(entries)} cells; max is "
            f"{MAX_ENTRIES_PER_ROW}"
        )
    for attr_id, value in entries:
        if is_numeric_value(value):
            body += _ENTRY_HEAD.pack(attr_id, TAG_NUMERIC)
            body += _F64.pack(value)
        elif is_text_value(value):
            if len(value) > MAX_STRINGS_PER_VALUE:
                raise StorageError(
                    f"text value on attribute {attr_id} has {len(value)} "
                    f"strings; max is {MAX_STRINGS_PER_VALUE}"
                )
            body += _ENTRY_HEAD.pack(attr_id, TAG_TEXT)
            body += _U8.pack(len(value))
            for s in value:
                raw = s.encode("utf-8")
                if len(raw) > MAX_STRING_BYTES:
                    raise StorageError(
                        f"string of {len(raw)} bytes exceeds the "
                        f"{MAX_STRING_BYTES}-byte row-format limit"
                    )
                body += _U16.pack(len(raw))
                body += raw
        else:
            raise StorageError(
                f"record {record.tid} holds an unencodable value on "
                f"attribute {attr_id}: {value!r}"
            )
    total = _HEADER.size + len(body)
    return _HEADER.pack(total, record.tid, len(entries)) + bytes(body)


def decode_record(
    buffer: bytes,
    offset: int = 0,
    attr_ids: Optional[AbstractSet[int]] = None,
) -> Tuple[Record, int]:
    """Parse one row at *offset*; returns (record, offset_after_row).

    *attr_ids* projects the row: only entries for those attributes become
    cells.  The others are skipped by their tag and length fields, a text
    value string by string with no UTF-8 decode and no value built.  Every
    bounds, tag and length check runs on every entry either way, and the
    walk always reaches the row's end, so a corrupt row (a tail included)
    fails with the same :class:`StorageError` with or without a
    projection.
    """
    if offset + _HEADER.size > len(buffer):
        raise StorageError("truncated row header")
    total, tid, num_entries = _HEADER.unpack_from(buffer, offset)
    end = offset + total
    if total < _HEADER.size or end > len(buffer):
        raise StorageError(f"corrupt row length {total} at offset {offset}")
    unpack_head = _ENTRY_HEAD.unpack_from
    unpack_f64 = _F64.unpack_from
    pos = offset + _HEADER.size
    cells = {}
    for _ in range(num_entries):
        if pos + _ENTRY_HEAD_SIZE > end:
            raise StorageError("truncated row entry")
        attr_id, tag = unpack_head(buffer, pos)
        pos += _ENTRY_HEAD_SIZE
        keep = attr_ids is None or attr_id in attr_ids
        if tag == TAG_TEXT:
            if pos + 1 > end:
                raise StorageError("truncated text payload")
            count = buffer[pos]
            pos += 1
            if keep:
                strings = []
                while count:
                    if pos + 2 > end:
                        raise StorageError("truncated string length")
                    start = pos + 2
                    pos = start + (buffer[pos] | buffer[pos + 1] << 8)
                    if pos > end:
                        raise StorageError("truncated string bytes")
                    strings.append(buffer[start:pos].decode("utf-8"))
                    count -= 1
                cells[attr_id] = tuple(strings)
            else:
                while count:
                    if pos + 2 > end:
                        raise StorageError("truncated string length")
                    pos += 2 + (buffer[pos] | buffer[pos + 1] << 8)
                    if pos > end:
                        raise StorageError("truncated string bytes")
                    count -= 1
        elif tag == TAG_NUMERIC:
            if pos + _F64_SIZE > end:
                raise StorageError("truncated numeric payload")
            if keep:
                (cells[attr_id],) = unpack_f64(buffer, pos)
            pos += _F64_SIZE
        else:
            raise StorageError(f"unknown entry type tag {tag}")
    if pos != end:
        raise StorageError(
            f"row at offset {offset} declares {total} bytes but entries "
            f"consumed {pos - offset}"
        )
    return Record(tid=tid, cells=cells), end


def row_length(buffer: bytes, offset: int = 0) -> int:
    """Total byte length of the row starting at *offset*."""
    if offset + 4 > len(buffer):
        raise StorageError("truncated row header")
    (total,) = struct.unpack_from("<I", buffer, offset)
    return total


def iter_rows(buffer: bytes) -> Iterator[Record]:
    """Parse a concatenation of rows front to back."""
    offset = 0
    while offset < len(buffer):
        record, offset = decode_record(buffer, offset)
        yield record
