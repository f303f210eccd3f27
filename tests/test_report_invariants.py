"""Cross-engine invariants of SearchReport accounting."""

import pytest

from repro import (
    DistanceFunction,
    IVAConfig,
    IVAEngine,
    IVAFile,
)
from repro.baselines.dst import DirectScanEngine
from repro.baselines.sii import SIIEngine, SparseInvertedIndex
from repro.core.sequential import SequentialPlanEngine
from repro.data import WorkloadGenerator


@pytest.fixture(scope="module")
def setup(small_dataset):
    iva = IVAFile.build(small_dataset, IVAConfig(name="iva_rep"))
    sii = SparseInvertedIndex.build(small_dataset, name="sii_rep")
    engines = [
        IVAEngine(small_dataset, iva),
        SIIEngine(small_dataset, sii),
        DirectScanEngine(small_dataset),
        SequentialPlanEngine(small_dataset, iva),
    ]
    workload = WorkloadGenerator(small_dataset, seed=90)
    queries = [workload.sample_query(arity) for arity in (1, 2, 3)]
    return small_dataset, engines, queries


class TestReportInvariants:
    def test_time_decomposition(self, setup):
        _, engines, queries = setup
        for engine in engines:
            for query in queries:
                report = engine.search(query, k=10)
                assert report.query_time_ms == pytest.approx(
                    report.filter_time_ms + report.refine_time_ms
                )
                assert report.total_io_ms == pytest.approx(
                    report.filter_io_ms + report.refine_io_ms
                )
                assert report.filter_io_ms >= 0
                assert report.refine_io_ms >= 0
                assert report.filter_wall_s >= 0
                assert report.refine_wall_s >= 0

    def test_counters_bounded_by_table(self, setup):
        table, engines, queries = setup
        for engine in engines:
            for query in queries:
                report = engine.search(query, k=10)
                assert 0 <= report.table_accesses <= len(table)
                assert report.tuples_scanned <= len(table)

    def test_results_bounded_by_k_and_table(self, setup):
        table, engines, queries = setup
        for engine in engines:
            report = engine.search(queries[0], k=3)
            assert len(report.results) == min(3, len(table))
            report = engine.search(queries[0], k=10 ** 6)
            assert len(report.results) == len(table)

    def test_all_engines_same_distances(self, setup):
        _, engines, queries = setup
        for query in queries:
            distances = [
                [round(r.distance, 9) for r in engine.search(query, k=10).results]
                for engine in engines
            ]
            for other in distances[1:]:
                assert other == distances[0]

    def test_refine_accesses_reflected_in_io(self, setup):
        """A report claiming table accesses must have charged refine time
        (I/O and/or CPU) for them."""
        table, engines, queries = setup
        table.disk.drop_cache()
        report = engines[0].search(queries[2], k=10)
        if report.table_accesses:
            assert report.refine_time_ms > 0

    def test_per_search_distance_override_does_not_leak(self, setup):
        _, engines, queries = setup
        engine = engines[0]
        before = engine.distance
        engine.search(queries[0], k=5, distance=DistanceFunction(metric="L1"))
        assert engine.distance is before
        follow_up = engine.search(queries[0], k=5)
        assert follow_up.results  # still works with the original metric
