"""Shared test helpers: brute-force ground truth for top-k queries, and
scalar reference bounds for the v3 kernel."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.metrics.distance import DistanceFunction
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
