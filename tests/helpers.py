"""Shared test helpers: brute-force ground truth for top-k queries, scalar
reference bounds for the v3 kernel, and uncompiled references for the
refine step's row walk and distance."""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

import pytest

from repro.errors import StorageError
from repro.metrics.distance import DistanceFunction
from repro.model.record import Record
from repro.query import Query
from repro.storage.table import SparseWideTable


def brute_force_topk(
    table: SparseWideTable,
    query: Query,
    k: int,
    distance: DistanceFunction = None,
    last_tid: Optional[int] = None,
) -> List[Tuple[int, float]]:
    """Exact (tid, distance) top-k by scanning everything, ties by tid.

    With *last_tid*, only the live tuples up to that tid count: the
    answer a scan cut after it must return.
    """
    dist = distance or DistanceFunction()
    scored = [
        (dist.actual(query, record), record.tid)
        for record in table.scan()
        if last_tid is None or record.tid <= last_tid
    ]
    scored.sort()
    return [(tid, d) for d, tid in scored[:k]]


def assert_topk_matches_bruteforce(
    engine,
    table: SparseWideTable,
    query: Query,
    k: int,
) -> None:
    """The engine's answer must match ground truth up to distance ties.

    The paper leaves the order of equal-distance tuples unspecified, so we
    compare the sorted distance multisets and verify each returned tid's
    distance is its true distance.
    """
    dist = engine.distance
    expected = brute_force_topk(table, query, k, dist)
    report = engine.search(query, k=k)
    got = [(r.tid, r.distance) for r in report.results]
    assert len(got) == len(expected)
    assert [d for _, d in got] == pytest.approx([d for _, d in expected])
    for tid, reported in got:
        assert reported == pytest.approx(dist.actual(query, table.read(tid)))


def scalar_text_bounds(term, column, scheme, ndf_penalty: float):
    """``(bounds, defined)`` lists for a payload column, one signature at a time.

    The reference the array-wide text bounds must reproduce bit for bit:
    each signature through ``CompiledTextTerm._bound`` (the scalar mask
    loop), the minimum over a tuple's strings, and *ndf_penalty* where a
    tuple stores none.  *column* holds ``None`` or a list of
    ``(stored_length, bits)`` pairs per tuple, as ``segment.column()``.
    """
    bounds: List[float] = []
    defined: List[bool] = []
    for payload in column:
        if payload is None:
            bounds.append(ndf_penalty)
            defined.append(False)
        else:
            bounds.append(
                min(term._bound(length, bits, scheme) for length, bits in payload)
            )
            defined.append(True)
    return bounds, defined


def reference_actual(dist: DistanceFunction, query: Query, record: Record) -> float:
    """``D(T, Q)`` term by term, as ``DistanceFunction.actual`` computed it
    before it scored through a compiled plan: the reference the compiled
    scorer must reproduce bit for bit."""
    weighted = []
    for i, term in enumerate(query.terms):
        diff = dist.term_difference(i, query, record.value(term.attr.attr_id))
        weighted.append(dist.weight(term.attr.attr_id, query) * diff)
    return dist.metric.combine(weighted)


_HEADER = struct.Struct("<IIH")
_ENTRY_HEAD = struct.Struct("<IB")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")


def reference_decode_record(buffer: bytes, offset: int = 0, attr_ids=None):
    """The row parser as it was before the projected walker: one loop with
    a keep test per entry and per string.  The reference whose results and
    ``StorageError`` messages ``decode_record`` must reproduce."""
    if offset + _HEADER.size > len(buffer):
        raise StorageError("truncated row header")
    total, tid, num_entries = _HEADER.unpack_from(buffer, offset)
    end = offset + total
    if total < _HEADER.size or end > len(buffer):
        raise StorageError(f"corrupt row length {total} at offset {offset}")
    pos = offset + _HEADER.size
    record = Record(tid=tid)
    cells = record.cells
    for _ in range(num_entries):
        if pos + _ENTRY_HEAD.size > end:
            raise StorageError("truncated row entry")
        attr_id, tag = _ENTRY_HEAD.unpack_from(buffer, pos)
        pos += _ENTRY_HEAD.size
        keep = attr_ids is None or attr_id in attr_ids
        if tag == 0:
            if pos + _F64.size > end:
                raise StorageError("truncated numeric payload")
            if keep:
                (cells[attr_id],) = _F64.unpack_from(buffer, pos)
            pos += _F64.size
        elif tag == 1:
            if pos + 1 > end:
                raise StorageError("truncated text payload")
            count = buffer[pos]
            pos += 1
            strings = []
            for _ in range(count):
                if pos + 2 > end:
                    raise StorageError("truncated string length")
                (byte_len,) = _U16.unpack_from(buffer, pos)
                pos += 2
                if pos + byte_len > end:
                    raise StorageError("truncated string bytes")
                if keep:
                    strings.append(buffer[pos : pos + byte_len].decode("utf-8"))
                pos += byte_len
            if keep:
                cells[attr_id] = tuple(strings)
        else:
            raise StorageError(f"unknown entry type tag {tag}")
    if pos != end:
        raise StorageError(
            f"row at offset {offset} declares {total} bytes but entries "
            f"consumed {pos - offset}"
        )
    return record, end
