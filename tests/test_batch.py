"""Tests for shared-scan batches (``IVAEngine.search_batch``)."""

import pytest

from repro import IVAConfig, IVAEngine, IVAFile
from repro.codec import CODEC_NAMES
from repro.data import WorkloadGenerator
from repro.errors import QueryError


@pytest.fixture
def engines(small_dataset):
    index = IVAFile.build(small_dataset, IVAConfig(name="iva_batch"))
    return (
        IVAEngine(small_dataset, index),
        IVAEngine(small_dataset, index),
    )


class TestBatchCorrectness:
    def test_answers_match_single_queries(self, small_dataset, engines):
        batch_engine, single_engine = engines
        workload = WorkloadGenerator(small_dataset, seed=50)
        queries = [workload.sample_query(2) for _ in range(5)]
        batch_reports = batch_engine.search_batch(queries, k=10)
        for query, report in zip(queries, batch_reports):
            single = single_engine.search(query, k=10)
            assert [r.distance for r in report.results] == pytest.approx(
                [r.distance for r in single.results]
            )

    def test_duplicate_queries_agree(self, small_dataset, engines):
        batch_engine, _ = engines
        workload = WorkloadGenerator(small_dataset, seed=51)
        query = workload.sample_query(2)
        a, b = batch_engine.search_batch([query, query], k=5)
        assert [r.tid for r in a.results] == [r.tid for r in b.results]

    def test_mapping_queries_accepted(self, camera_table):
        index = IVAFile.build(camera_table)
        batch = IVAEngine(camera_table, index)
        reports = batch.search_batch(
            [{"Company": "Canon"}, {"Type": "Music Album"}], k=1
        )
        assert reports[0].results[0].tid == 1
        assert reports[1].results[0].tid == 2

    def test_empty_batch(self, engines):
        batch_engine, _ = engines
        assert batch_engine.search_batch([], k=5) == []

    def test_bad_query_rejected(self, engines):
        batch_engine, _ = engines
        with pytest.raises(QueryError):
            batch_engine.search_batch([42], k=5)


class TestBatchEconomics:
    def test_scan_paid_once(self, small_dataset, engines):
        """Batch filter I/O is far below the sum of individual runs."""
        batch_engine, single_engine = engines
        workload = WorkloadGenerator(small_dataset, seed=52)
        queries = [workload.sample_query(2) for _ in range(6)]
        disk = small_dataset.disk

        disk.drop_cache()
        before = disk.stats.io_time_ms
        batch_engine.search_batch(queries, k=10)
        batch_io = disk.stats.io_time_ms - before

        single_io = 0.0
        for query in queries:
            disk.drop_cache()
            before = disk.stats.io_time_ms
            single_engine.search(query, k=10)
            single_io += disk.stats.io_time_ms - before

        assert batch_io < single_io

    def test_shared_fetches(self, camera_table):
        """Two queries refining the same tuples trigger one fetch each."""
        index = IVAFile.build(camera_table)
        batch = IVAEngine(camera_table, index)
        disk = camera_table.disk
        before = disk.stats.per_file_reads.get(camera_table.file_name, 0)
        reports = batch.search_batch(
            [{"Company": "Canon"}, {"Company": "Cannon"}], k=2
        )
        fetches = disk.stats.per_file_reads.get(camera_table.file_name, 0) - before
        requested = sum(r.table_accesses for r in reports)
        assert fetches <= requested

    def test_cost_attribution(self, small_dataset, engines):
        batch_engine, _ = engines
        workload = WorkloadGenerator(small_dataset, seed=53)
        queries = [workload.sample_query(1) for _ in range(3)]
        reports = batch_engine.search_batch(queries, k=5)
        # Shared costs land on the first report only.
        assert reports[0].filter_io_ms >= 0
        for report in reports[1:]:
            assert report.filter_io_ms == 0.0
            assert report.refine_io_ms == 0.0
        # Per-query counters everywhere.
        for report in reports:
            assert report.tuples_scanned == len(small_dataset)


@pytest.mark.parametrize("codec", CODEC_NAMES)
class TestIOReconciles:
    """Every modeled millisecond a search charges lands in some report."""

    @pytest.fixture
    def setup(self, small_dataset, codec):
        index = IVAFile.build(
            small_dataset, IVAConfig(name=f"iva_io_{codec}", codec=codec)
        )
        workload = WorkloadGenerator(small_dataset, seed=54)
        queries = [workload.sample_query(2) for _ in range(4)]
        return IVAEngine(small_dataset, index), queries

    def test_batch_reports_sum_to_disk_delta(self, small_dataset, setup):
        engine, queries = setup
        disk = small_dataset.disk
        disk.drop_cache()
        before = disk.stats.io_time_ms
        reports = engine.search_batch(queries, k=10)
        charged = disk.stats.io_time_ms - before
        reported = sum(r.filter_io_ms + r.refine_io_ms for r in reports)
        assert reported == pytest.approx(charged, rel=1e-9)

    def test_batch_of_one_equals_search(self, small_dataset, setup):
        engine, queries = setup
        disk = small_dataset.disk
        for query in queries:
            # A cold warm-up leaves the disk head where both measured runs
            # start; each run starts from an empty page cache.
            disk.drop_cache()
            engine.search(query, k=10)
            disk.drop_cache()
            single = engine.search(query, k=10)
            disk.drop_cache()
            [batch] = engine.search_batch([query], k=10)
            assert batch.filter_io_ms == pytest.approx(single.filter_io_ms, rel=1e-9)
            assert batch.refine_io_ms == pytest.approx(single.refine_io_ms, rel=1e-9)
            assert batch.tuples_scanned == single.tuples_scanned
            assert batch.table_accesses == single.table_accesses
            assert [(r.tid, r.distance) for r in batch.results] == [
                (r.tid, r.distance) for r in single.results
            ]
