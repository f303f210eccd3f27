"""Property-based tests for durability and distributed equivalence."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    DistanceFunction,
    IVAConfig,
    IVAEngine,
    IVAFile,
    SimulatedDisk,
    SparseWideTable,
)
from repro.distributed import PartitionedSystem
from repro.query import Query
from repro.storage.snapshot import load_disk, save_disk
from tests.helpers import brute_force_topk

WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10)
ROWS = st.lists(
    st.dictionaries(
        keys=st.sampled_from(["A", "B", "C"]),
        values=st.one_of(WORD, st.floats(0, 100, allow_nan=False).map(lambda v: round(v, 3))),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=12,
)


def _typed_rows(rows):
    """Force stable attribute kinds: A/B text, C numeric."""
    out = []
    for row in rows:
        fixed = {}
        for name, value in row.items():
            if name == "C":
                fixed[name] = float(value) if not isinstance(value, str) else float(len(value))
            else:
                fixed[name] = value if isinstance(value, str) else f"v{value}"
        out.append(fixed)
    return out


def _build_table(rows):
    table = SparseWideTable(SimulatedDisk())
    for row in _typed_rows(rows):
        table.insert(row)
    return table


class TestDurabilityProperties:
    @given(rows=ROWS, deletions=st.sets(st.integers(0, 11), max_size=4))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_attach_reproduces_any_table(self, rows, deletions):
        table = _build_table(rows)
        for tid in sorted(deletions):
            if table.is_live(tid):
                table.delete(tid)
        reopened = SparseWideTable.attach(table.disk)
        assert reopened.live_tids() == table.live_tids()
        for tid in table.live_tids():
            assert reopened.read(tid).cells == table.read(tid).cells
        assert len(reopened.catalog) == len(table.catalog)

    @given(rows=ROWS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_snapshot_roundtrip_preserves_answers(self, rows):
        import tempfile
        from pathlib import Path

        table = _build_table(rows)
        index = IVAFile.build(table, IVAConfig(alpha=0.25))
        query = Query.from_dict(table.catalog, {"A": "canon"}) if table.catalog.get("A") else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "db.ivadb"
            save_disk(table.disk, path)
            disk = load_disk(path)
        reopened_table = SparseWideTable.attach(disk)
        reopened_index = IVAFile.attach(reopened_table, IVAConfig(alpha=0.25))
        if query is None:
            assert reopened_table.live_tids() == table.live_tids()
            return
        a = IVAEngine(table, index).search(query, k=5)
        b = IVAEngine(reopened_table, reopened_index).search(query, k=5)
        assert [r.distance for r in a.results] == [r.distance for r in b.results]


class TestDistributedProperties:
    @given(rows=ROWS, partitions=st.integers(1, 3), query_word=WORD)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_horizontal_partitioning_is_transparent(self, rows, partitions, query_word):
        rows = _typed_rows(rows)
        system = PartitionedSystem(num_partitions=partitions)
        for row in rows:
            system.insert(row)
        system.build_indexes()
        if system.catalog.get("A") is None:
            return
        query = Query.from_dict(system.catalog, {"A": query_word})

        mirror = SparseWideTable(SimulatedDisk(), catalog=system.catalog)
        for row in rows:
            mirror.insert(row)
        expected = [d for _, d in brute_force_topk(mirror, query, 5, DistanceFunction())]
        report = system.search(query, k=5)
        got = [round(r.distance, 9) for r in report.results]
        assert got == [round(d, 9) for d in expected]


class TestRangeSearchProperties:
    @given(rows=ROWS, query_word=WORD, threshold=st.integers(0, 4))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_edit_range_matches_bruteforce(self, rows, query_word, threshold):
        from repro.core.range_search import RangeSearcher
        from repro.metrics.edit_distance import edit_distance
        from repro.model.values import is_ndf

        table = _build_table(rows)
        if table.catalog.get("A") is None:
            return
        index = IVAFile.build(table, IVAConfig(alpha=0.25))
        searcher = RangeSearcher(table, index)
        report = searcher.within_edit_distance("A", query_word, threshold)
        attr_id = table.catalog.require("A").attr_id
        expected = set()
        for record in table.scan():
            value = record.value(attr_id)
            if is_ndf(value):
                continue
            if min(edit_distance(query_word, s) for s in value) <= threshold:
                expected.add(record.tid)
        assert {m.tid for m in report.matches} == expected


class TestBatchProperties:
    @given(rows=ROWS, words=st.lists(WORD, min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_equals_individual(self, rows, words):
        table = _build_table(rows)
        if table.catalog.get("A") is None:
            return
        index = IVAFile.build(table, IVAConfig(alpha=0.2))
        queries = [
            Query.from_dict(table.catalog, {"A": word}) for word in words
        ]
        batch = IVAEngine(table, index).search_batch(queries, k=5)
        single = IVAEngine(table, index)
        for query, report in zip(queries, batch):
            expected = single.search(query, k=5)
            assert [round(r.distance, 9) for r in report.results] == [
                round(r.distance, 9) for r in expected.results
            ]
