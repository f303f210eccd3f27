"""Tests for the sequential (VA-file-style) plan and the paper's argument
for preferring the parallel plan (Sec. IV-A)."""

import pytest

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.core.sequential import SequentialPlanEngine
from repro.data import WorkloadGenerator
from repro.errors import DeadlineExceeded, StorageError
from tests.helpers import assert_topk_matches_bruteforce, brute_force_topk


@pytest.fixture
def numeric_table():
    disk = SimulatedDisk()
    table = SparseWideTable(disk)
    for price in [10.0, 50.0, 100.0, 150.0, 220.0, 230.0, 240.0, 400.0, 900.0]:
        table.insert({"Price": price, "Stock": price / 10.0})
    return table


class TestNumericQueries:
    def test_exact_topk(self, numeric_table):
        index = IVAFile.build(numeric_table)
        engine = SequentialPlanEngine(numeric_table, index)
        query = engine.prepare_query({"Price": 225.0})
        assert_topk_matches_bruteforce(engine, numeric_table, query, k=3)

    def test_interior_slices_prune(self, numeric_table):
        """With finite upper bounds, phase 2 skips hopeless tuples."""
        index = IVAFile.build(numeric_table)
        engine = SequentialPlanEngine(numeric_table, index)
        report = engine.search({"Price": 225.0}, k=2)
        assert report.table_accesses < len(numeric_table)

    def test_two_attribute_query(self, numeric_table):
        index = IVAFile.build(numeric_table)
        engine = SequentialPlanEngine(numeric_table, index)
        query = engine.prepare_query({"Price": 230.0, "Stock": 23.0})
        assert_topk_matches_bruteforce(engine, numeric_table, query, k=4)


class TestTextDegradation:
    def test_text_query_still_exact(self, camera_table):
        index = IVAFile.build(camera_table)
        engine = SequentialPlanEngine(camera_table, index)
        query = engine.prepare_query({"Company": "Canon"})
        assert_topk_matches_bruteforce(engine, camera_table, query, k=3)

    def test_text_query_refines_everything(self, camera_table):
        """The paper's point: no upper bound for strings ⇒ the candidate
        set is the whole table."""
        index = IVAFile.build(camera_table)
        engine = SequentialPlanEngine(camera_table, index)
        report = engine.search({"Company": "Canon"}, k=2)
        assert report.table_accesses == len(camera_table)

    def test_parallel_plan_beats_sequential_on_text(self, small_dataset):
        index = IVAFile.build(small_dataset, IVAConfig(name="iva_seq"))
        workload = WorkloadGenerator(small_dataset, seed=6)
        query = workload.sample_query(2)
        sequential = SequentialPlanEngine(small_dataset, index).search(query, k=10)
        parallel = IVAEngine(small_dataset, index).search(query, k=10)
        assert [r.distance for r in sequential.results] == pytest.approx(
            [r.distance for r in parallel.results]
        )
        assert parallel.table_accesses < sequential.table_accesses


class TestAgreementWithParallel:
    def test_random_queries_agree(self, small_dataset):
        index = IVAFile.build(small_dataset, IVAConfig(name="iva_seq2"))
        sequential = SequentialPlanEngine(small_dataset, index)
        parallel = IVAEngine(small_dataset, index)
        workload = WorkloadGenerator(small_dataset, seed=12)
        for arity in (1, 3):
            query = workload.sample_query(arity)
            a = [r.distance for r in sequential.search(query, k=10).results]
            b = [r.distance for r in parallel.search(query, k=10).results]
            assert a == pytest.approx(b)


class TestSharedDriver:
    """The plan runs through the engines' one filter-and-refine driver."""

    def test_generous_deadline_changes_nothing(self, numeric_table):
        index = IVAFile.build(numeric_table)
        engine = SequentialPlanEngine(numeric_table, index)
        plain = engine.search({"Price": 225.0}, k=3)
        timed = engine.search({"Price": 225.0}, k=3, deadline_s=60.0)
        assert not timed.degraded
        assert timed.results == plain.results
        assert timed.table_accesses == plain.table_accesses

    def test_expired_deadline_degrades_or_raises(self, numeric_table):
        index = IVAFile.build(numeric_table)
        degrade = SequentialPlanEngine(numeric_table, index, fail_mode="degrade")
        report = degrade.search({"Price": 225.0}, k=3, deadline_s=1e-9)
        assert report.degraded and report.deadline_hit
        assert report.lost_tid_ranges == [(0, -1)]
        assert report.results == []
        strict = SequentialPlanEngine(numeric_table, index)
        with pytest.raises(DeadlineExceeded):
            strict.search({"Price": 225.0}, k=3, deadline_s=1e-9)

    def test_cut_scan_refines_the_scanned_prefix(self, small_dataset, monkeypatch):
        """A storage error mid-scan still refines the prefix's candidates:
        the degraded answer is the exact top-k of the tuples scanned."""
        index = IVAFile.build(small_dataset, IVAConfig(name="iva_seq_cut"))
        query = WorkloadGenerator(small_dataset, seed=4).sample_query(2)
        original = SequentialPlanEngine._bounds
        seen = []

        def flaky(self, *args):
            for item in original(self, *args):
                if len(seen) == 60:
                    raise StorageError("media failure mid-scan")
                seen.append(item)
                yield item

        monkeypatch.setattr(SequentialPlanEngine, "_bounds", flaky)
        engine = SequentialPlanEngine(small_dataset, index, fail_mode="degrade")
        report = engine.search(query, k=5)
        assert report.degraded and not report.deadline_hit
        [(lo, hi)] = report.lost_tid_ranges
        assert (lo, hi) == (seen[-1][0] + 1, -1)
        assert report.tuples_scanned == 60
        assert [(r.tid, r.distance) for r in report.results] == brute_force_topk(
            small_dataset, query, 5, engine.distance, last_tid=lo - 1
        )
        seen.clear()
        strict = SequentialPlanEngine(small_dataset, index)
        with pytest.raises(StorageError):
            strict.search(query, k=5)

    def test_profile_funnel_matches_report(self, numeric_table):
        index = IVAFile.build(numeric_table)
        engine = SequentialPlanEngine(numeric_table, index, profile=True)
        report = engine.search({"Price": 225.0}, k=2)
        profile = report.profile
        assert profile.tuples_scanned == report.tuples_scanned == len(numeric_table)
        assert profile.refined == profile.candidates == report.table_accesses
        assert profile.bound_pruned == report.tuples_scanned - report.table_accesses
