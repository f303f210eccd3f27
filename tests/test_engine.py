"""Integration tests: the iVA engine returns exact top-k answers."""

import pytest

from repro import (
    DistanceFunction,
    IVAConfig,
    IVAEngine,
    IVAFile,
    Query,
    SimulatedDisk,
    SparseWideTable,
    itf_weights,
)
from repro.data import DatasetGenerator, WorkloadGenerator
from tests.helpers import assert_topk_matches_bruteforce


@pytest.fixture
def engine(camera_table):
    index = IVAFile.build(camera_table, IVAConfig(alpha=0.25, n=2))
    return IVAEngine(camera_table, index)


class TestSmallTable:
    def test_paper_style_query(self, engine, camera_table):
        # A large ndf penalty makes missing attributes decisive, so the two
        # camera tuples of Fig. 2 outrank the Job Position tuple.
        engine.distance = DistanceFunction(ndf_penalty=100.0)
        report = engine.search(
            {"Type": "Digital Camera", "Company": "Canon", "Price": 200.0}, k=2
        )
        assert [r.tid for r in report.results] == [1, 4]
        # tid 1: exact Canon camera at 230 -> distance sqrt(30^2) = 30.
        assert report.results[0].distance == pytest.approx(30.0)
        # tid 4: "Cannon" typo at 230 -> sqrt(1 + 900).
        assert report.results[1].distance == pytest.approx((1 + 900) ** 0.5)

    def test_k_larger_than_table(self, engine):
        report = engine.search({"Type": "Music Album"}, k=100)
        assert len(report.results) == 5  # K = min(k, |T|)

    def test_results_sorted(self, engine):
        report = engine.search({"Type": "Digital Camera"}, k=5)
        distances = [r.distance for r in report.results]
        assert distances == sorted(distances)

    def test_numeric_only_query(self, engine):
        report = engine.search({"Price": 230.0}, k=1)
        assert report.results[0].distance == 0.0
        assert report.results[0].tid in (1, 4)

    def test_text_only_query(self, engine):
        report = engine.search({"Artist": "Michael Jackson"}, k=1)
        assert report.results[0].tid == 2
        assert report.results[0].distance == 0.0

    def test_multi_string_value_uses_min_distance(self, engine):
        report = engine.search({"Industry": "Software"}, k=1)
        assert report.results[0].tid == 0
        assert report.results[0].distance == 0.0

    def test_report_counters(self, engine):
        report = engine.search({"Type": "Digital Camera"}, k=2)
        assert report.tuples_scanned == 5
        assert 1 <= report.table_accesses <= 5
        assert report.query_time_ms >= 0.0
        assert report.filter_io_ms >= 0.0

    def test_deleted_tuples_skipped(self, engine, camera_table):
        camera_table.delete(1)
        engine.index.delete(1)
        report = engine.search({"Type": "Digital Camera", "Price": 230.0}, k=1)
        assert report.results[0].tid == 4

    def test_query_object_accepted(self, engine, camera_table):
        query = Query.from_dict(camera_table.catalog, {"Company": "Sony"})
        report = engine.search(query, k=1)
        assert report.results[0].tid == 3

    def test_bad_query_rejected(self, engine):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            engine.search("not a query", k=1)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("metric", ["L1", "L2", "Linf"])
    def test_exact_topk_small(self, camera_table, metric):
        index = IVAFile.build(camera_table, IVAConfig(alpha=0.2, n=2))
        engine = IVAEngine(camera_table, index, DistanceFunction(metric=metric))
        for values in [
            {"Type": "Digital Camera"},
            {"Type": "Digital Camera", "Price": 230.0},
            {"Company": "Canon", "Pixel": 5000000.0},
            {"Artist": "Madonna", "Year": 2000.0},
        ]:
            query = Query.from_dict(camera_table.catalog, values)
            assert_topk_matches_bruteforce(engine, camera_table, query, k=3)

    @pytest.mark.parametrize("values_per_query", [1, 3, 5])
    def test_exact_topk_synthetic(self, small_dataset, values_per_query):
        index = IVAFile.build(small_dataset, IVAConfig(alpha=0.2, n=2))
        engine = IVAEngine(small_dataset, index)
        workload = WorkloadGenerator(small_dataset, seed=3)
        for _ in range(5):
            query = workload.sample_query(values_per_query)
            assert_topk_matches_bruteforce(engine, small_dataset, query, k=10)

    def test_exact_topk_itf_weights(self, small_dataset):
        distance = DistanceFunction(metric="L2", weights=itf_weights(small_dataset))
        index = IVAFile.build(small_dataset, IVAConfig(alpha=0.2, n=2, name="iva_itf"))
        engine = IVAEngine(small_dataset, index, distance)
        workload = WorkloadGenerator(small_dataset, seed=4)
        for _ in range(3):
            query = workload.sample_query(3)
            assert_topk_matches_bruteforce(engine, small_dataset, query, k=10)


class TestUpdatesVisible:
    def test_inserted_tuple_found(self, small_dataset_copy=None):
        disk = SimulatedDisk()
        table = SparseWideTable(disk)
        DatasetGenerator().__class__  # silence linters; direct inserts below
        table.insert({"Name": "alpha", "Score": 1.0})
        table.insert({"Name": "beta", "Score": 2.0})
        index = IVAFile.build(table)
        engine = IVAEngine(table, index)
        cells = table.prepare_cells({"Name": "gamma", "Score": 3.0})
        tid = table.insert_record(cells)
        index.insert(tid, cells)
        report = engine.search({"Name": "gamma"}, k=1)
        assert report.results[0].tid == tid
        assert report.results[0].distance == 0.0

    def test_bound_correct_for_out_of_domain_insert(self):
        """Values beyond the frozen relative domain must never be missed."""
        disk = SimulatedDisk()
        table = SparseWideTable(disk)
        for value in [10.0, 20.0, 30.0]:
            table.insert({"Price": value})
        index = IVAFile.build(table)
        engine = IVAEngine(table, index)
        cells = table.prepare_cells({"Price": 1000.0})
        tid = table.insert_record(cells)
        index.insert(tid, cells)
        report = engine.search({"Price": 950.0}, k=1)
        assert report.results[0].tid == tid
        assert report.results[0].distance == pytest.approx(50.0)
