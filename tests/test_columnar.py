"""Tests for the in-memory columnar engine (vectorized filter)."""

import pytest

from repro import DistanceFunction, IVAConfig, IVAEngine, IVAFile
from repro.core.columnar import InMemoryIVAEngine
from repro.data import WorkloadGenerator
from tests.helpers import assert_topk_matches_bruteforce


@pytest.fixture
def engines(small_dataset):
    index = IVAFile.build(small_dataset, IVAConfig(name="iva_mem"))
    return (
        InMemoryIVAEngine(small_dataset, index),
        IVAEngine(small_dataset, index),
    )


class TestCorrectness:
    def test_camera_table(self, camera_table):
        index = IVAFile.build(camera_table, IVAConfig(alpha=0.25))
        engine = InMemoryIVAEngine(camera_table, index)
        for values in [
            {"Type": "Digital Camera"},
            {"Type": "Digital Camera", "Company": "Canon", "Price": 200.0},
            {"Artist": "Madonna"},
            {"Price": 230.0},
        ]:
            query = engine.prepare_query(values)
            assert_topk_matches_bruteforce(engine, camera_table, query, k=3)

    @pytest.mark.parametrize("metric", ["L1", "L2", "Linf"])
    def test_vectorized_metrics(self, small_dataset, engines, metric):
        mem_engine, _ = engines
        distance = DistanceFunction(metric=metric)
        workload = WorkloadGenerator(small_dataset, seed=80)
        query = workload.sample_query(3)
        assert_topk_matches_bruteforce(
            InMemoryIVAEngine(small_dataset, mem_engine.index, distance),
            small_dataset,
            query,
            k=10,
        )

    def test_custom_metric_fallback(self, small_dataset, engines):
        from repro.metrics.distance import Metric

        class Cubic(Metric):
            name = "L3"

            def combine(self, diffs):
                return sum(d ** 3 for d in diffs) ** (1 / 3)

        mem_engine, _ = engines
        distance = DistanceFunction(metric=Cubic())
        workload = WorkloadGenerator(small_dataset, seed=81)
        query = workload.sample_query(2)
        assert_topk_matches_bruteforce(
            InMemoryIVAEngine(small_dataset, mem_engine.index, distance),
            small_dataset,
            query,
            k=5,
        )

    def test_agrees_with_scan_engine(self, small_dataset, engines):
        mem_engine, scan_engine = engines
        workload = WorkloadGenerator(small_dataset, seed=82)
        for arity in (1, 2, 4):
            query = workload.sample_query(arity)
            a = mem_engine.search(query, k=10)
            b = scan_engine.search(query, k=10)
            assert [r.distance for r in a.results] == pytest.approx(
                [r.distance for r in b.results]
            )

    def test_deleted_tuples_skipped(self, camera_table):
        index = IVAFile.build(camera_table)
        camera_table.delete(1)
        index.delete(1)
        engine = InMemoryIVAEngine(camera_table, index)
        report = engine.search({"Company": "Canon"}, k=1)
        assert report.results[0].tid != 1


class TestNumericBounds:
    def test_bounds_bit_identical_to_scalar(self, table):
        """Every numeric bound equals ``NumericQuantizer.lower_bound``.

        The upper slice edge must be ``lo + (code + 1) * width`` exactly as
        the scalar routine computes it; ``lo + code * width + width`` is
        one ulp off for some codes, and the query values below sit on and
        around those edges.
        """
        for i in range(400):
            table.insert({"Weight": 0.1 + i * 0.7331, "Tag": f"t{i % 7}"})
        index = IVAFile.build(table)
        engine = InMemoryIVAEngine(table, index)
        attr = table.catalog.get("Weight")
        quantizer = index.entry(attr.attr_id).quantizer
        codes = engine._numeric[attr.attr_id].codes
        edges = [quantizer.slice_bounds(code)[1] for code in codes[::9]]
        queries = [-3.0, 0.1, 150.25, 400.0] + edges + [e + 1e-9 for e in edges]
        for query_value in queries:
            bounds, defined = engine._numeric_bounds(attr.attr_id, query_value, 1.0)
            expected = [quantizer.lower_bound(query_value, code) for code in codes]
            assert list(defined) == [True] * len(codes)
            assert [float(b) for b in bounds] == expected


class TestBestFirstRefinement:
    def test_never_more_accesses_than_scan_order(self, small_dataset, engines):
        """Best-first access order is optimal for the same bounds."""
        mem_engine, scan_engine = engines
        workload = WorkloadGenerator(small_dataset, seed=83)
        for _ in range(5):
            query = workload.sample_query(2)
            mem = mem_engine.search(query, k=10)
            scan = scan_engine.search(query, k=10)
            assert mem.table_accesses <= scan.table_accesses

    def test_exact_match_needs_few_accesses(self, camera_table):
        index = IVAFile.build(camera_table)
        engine = InMemoryIVAEngine(camera_table, index)
        report = engine.search({"Company": "Canon", "Price": 230.0}, k=1)
        assert report.results[0].tid == 1
        assert report.table_accesses <= 3


class TestRefresh:
    def test_snapshot_is_static_until_refresh(self, camera_table):
        index = IVAFile.build(camera_table)
        engine = InMemoryIVAEngine(camera_table, index)
        cells = camera_table.prepare_cells({"Company": "Leica"})
        tid = camera_table.insert_record(cells)
        index.insert(tid, cells)
        before = engine.search({"Company": "Leica"}, k=1)
        assert before.results[0].distance > 0.0  # snapshot predates insert
        engine.refresh()
        after = engine.search({"Company": "Leica"}, k=1)
        assert after.results[0].tid == tid
        assert after.results[0].distance == 0.0

    def test_bad_query(self, engines):
        from repro.errors import QueryError

        mem_engine, _ = engines
        with pytest.raises(QueryError):
            mem_engine.search(3.14, k=1)
