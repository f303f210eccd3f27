"""The EXPLAIN ANALYZE profiler: funnel conservation, parity, overhead.

The artifact's load-bearing property is that its candidate funnel is
*exact bookkeeping*, not sampling: scanned/pruned/candidate/refined
counts must reconcile with the access counters the engines already
report (``SearchReport.tuples_scanned`` / ``table_accesses`` /
``exact_shortcuts``) on every execution path — sequential and parallel,
scalar and v3 kernel, single and batched.
"""

from __future__ import annotations

import time

import pytest

from repro.core import fastpath
from repro.core.batch import BatchIVAEngine
from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAConfig, IVAFile
from repro.data.workload import WorkloadGenerator
from repro.obs.profile import ProfileCollector, QueryProfile
from repro.parallel import ExecutorConfig


@pytest.fixture(scope="module")
def indexed(small_dataset):
    index = IVAFile.build(small_dataset, IVAConfig(name="prof"))
    return small_dataset, index


@pytest.fixture(scope="module")
def queries(small_dataset):
    workload = WorkloadGenerator(small_dataset, seed=41)
    return [workload.sample_query(3) for _ in range(6)] + [
        workload.sample_query(1) for _ in range(3)
    ]


def assert_funnel_matches_report(profile: QueryProfile, report) -> None:
    """The acceptance criterion: funnel counts == the report's counters."""
    assert profile is not None
    assert profile.tuples_scanned == report.tuples_scanned
    assert profile.refined == report.table_accesses
    assert profile.exact_shortcuts == report.exact_shortcuts
    assert profile.results == len(report.results)
    # Conservation: every scanned tuple is exactly one of shortcut,
    # pruned, or candidate.
    assert profile.tuples_scanned == (
        profile.exact_shortcuts + profile.bound_pruned + profile.candidates
    )
    # Every candidate's fate is accounted for.
    assert profile.candidates == (
        profile.refined + profile.late_pruned + profile.dedup_skipped
    )


class TestSequential:
    def test_funnel_equals_report_counters(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(table, index, profile=True)
        for query in queries:
            report = engine.search(query, k=10)
            assert_funnel_matches_report(report.profile, report)
            # Sequential path never late-prunes or dedups.
            assert report.profile.late_pruned == 0
            assert report.profile.dedup_skipped == 0

    def test_profile_off_by_default(self, indexed, queries):
        table, index = indexed
        report = IVAEngine(table, index).search(queries[0], k=10)
        assert report.profile is None

    def test_attribute_rows(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(table, index, profile=True)
        query = queries[0]
        report = engine.search(query, k=10)
        rows = report.profile.attributes
        assert [row.attr_id for row in rows] == list(query.attribute_ids())
        for row in rows:
            entry = index.entry(row.attr_id)
            assert row.list_type == entry.list_type.name
            assert row.codec == entry.codec
            assert row.entries_scanned == row.defined + row.ndf
            assert row.entries_scanned > 0

    def test_tightness_is_a_lower_bound(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(table, index, profile=True)
        for query in queries[:4]:
            profile = engine.search(query, k=10).profile
            if profile.refined == 0:
                continue
            # The filter's estimate must lower-bound the actual distance.
            assert profile.bound_sum <= profile.actual_sum + 1e-9
            assert 0.0 <= profile.tightness <= 1.0 + 1e-9
            assert profile.slack_max >= 0.0

    def test_provenance_fields(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(table, index, profile=True, kernel="v3")
        profile = engine.search(queries[0], k=7).profile
        assert profile.engine == engine.name
        assert profile.kernel == "v3"
        assert profile.k == 7
        assert profile.parallel is False
        assert profile.blocks > 0
        assert len(profile.block_pruned) == profile.blocks

    def test_format_and_to_dict(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(table, index, profile=True)
        profile = engine.search(queries[0], k=10).profile
        text = profile.format()
        assert "EXPLAIN ANALYZE" in text
        assert "candidate funnel" in text
        assert "tuples scanned" in text
        data = profile.to_dict()
        assert data["funnel"]["tuples_scanned"] == profile.tuples_scanned
        assert data["funnel"]["refined"] == profile.refined


class TestKernelAndParallel:
    @pytest.mark.parametrize("kernel", ["scalar", "v3"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_funnel_on_every_path(self, indexed, queries, kernel, workers):
        table, index = indexed
        executor = ExecutorConfig(workers=workers) if workers > 1 else None
        engine = IVAEngine(
            table, index, executor=executor, kernel=kernel, profile=True
        )
        for query in queries:
            report = engine.search(query, k=10)
            assert_funnel_matches_report(report.profile, report)

    def test_parallel_shard_rows(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(
            table, index, executor=ExecutorConfig(workers=3), profile=True
        )
        report = engine.search(queries[0], k=10)
        profile = report.profile
        assert profile.parallel is True
        assert profile.workers == 3
        assert profile.shards == len(profile.shard_rows)
        assert sum(row["tuples"] for row in profile.shard_rows) == (
            profile.tuples_scanned
        )

    def test_parallel_answers_unchanged_by_profiling(self, indexed, queries):
        table, index = indexed
        plain = IVAEngine(table, index, executor=ExecutorConfig(workers=3))
        profiled = IVAEngine(
            table, index, executor=ExecutorConfig(workers=3), profile=True
        )
        for query in queries:
            a = plain.search(query, k=10)
            b = profiled.search(query, k=10)
            assert [(r.tid, r.distance) for r in a.results] == [
                (r.tid, r.distance) for r in b.results
            ]

    @staticmethod
    def _assert_v3_counts_match_scalar(indexed, queries):
        table, index = indexed
        scalar = IVAEngine(table, index, kernel="scalar", profile=True)
        v3 = IVAEngine(table, index, kernel="v3", profile=True)
        for query in queries[:5]:
            a = scalar.search(query, k=10).profile
            b = v3.search(query, k=10).profile
            assert a.tuples_scanned == b.tuples_scanned
            # ``refined`` is not compared: v3 refines in page-ordered
            # batches, so its pool tightens at different points.
            # Per-attribute entry counts agree between the kernels (the
            # scalar path probes payloads before the tombstone check for
            # exactly this parity).
            assert [r.entries_scanned for r in a.attributes] == [
                r.entries_scanned for r in b.attributes
            ]

    def test_v3_path_counts_match_scalar(self, indexed, queries):
        self._assert_v3_counts_match_scalar(indexed, queries)

    def test_block_path_counts_match_scalar(self, indexed, queries, monkeypatch):
        """Without numpy, v3 decodes ``move_block`` columns; same counts."""
        monkeypatch.setattr(fastpath, "_np", None)
        self._assert_v3_counts_match_scalar(indexed, queries)


class TestBatch:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kernel", ["scalar", "v3"])
    def test_batch_funnels(self, indexed, queries, workers, kernel):
        table, index = indexed
        executor = ExecutorConfig(workers=workers) if workers > 1 else None
        engine = BatchIVAEngine(
            table, index, executor=executor, kernel=kernel, profile=True
        )
        reports = engine.search_batch(queries[:4], k=10)
        for report in reports:
            assert_funnel_matches_report(report.profile, report)


class TestCollectorUnit:
    def test_absorb_merges_counts(self, indexed, queries):
        query = queries[0]
        a = ProfileCollector.for_query(query)
        b = ProfileCollector.for_query(query)
        a.on_exact()
        a.on_candidate()
        a.on_refined(1.0, 2.0)
        b.on_pruned()
        b.on_candidate()
        b.on_refined(3.0, 3.5)
        a.absorb(b)
        assert a.exact == 1
        assert a.pruned == 1
        assert a.candidates == 2
        assert a.refined == 2
        assert a.bound_sum == pytest.approx(4.0)
        assert a.actual_sum == pytest.approx(5.5)
        assert a.slack_max == pytest.approx(1.0)


class TestOverhead:
    def test_profiling_off_overhead_within_3_percent(self, indexed, queries):
        """Acceptance criterion: the hooks cost <= 3% when profiling is off.

        Wall-clock on shared CI boxes is noisy, so measure the best of
        several interleaved rounds for both configurations — systematic
        overhead survives min(), scheduler noise doesn't — and apply the
        3% band to the modeled query time too, which is deterministic.
        """
        table, index = indexed
        plain = IVAEngine(table, index)
        hooked = IVAEngine(table, index, profile=False)

        def clock(engine) -> float:
            start = time.perf_counter()
            for query in queries:
                engine.search(query, k=10)
            return time.perf_counter() - start

        clock(plain), clock(hooked)  # warm caches
        plain_s = min(clock(plain) for _ in range(3))
        hooked_s = min(clock(hooked) for _ in range(3))
        # `profile=False` engines and pre-profiler engines run the same
        # code (one `is not None` test per decision); allow 3% plus a
        # small absolute floor for timer jitter on tiny workloads.
        assert hooked_s <= plain_s * 1.03 + 0.005

        # The modeled I/O component is deterministic and must be
        # untouched by the hooks (query_time_ms itself folds in
        # wall-clock CPU, so it cannot be compared).
        for query in queries:
            a = plain.search(query, k=10)
            b = hooked.search(query, k=10)
            assert b.filter_io_ms == pytest.approx(a.filter_io_ms)
            assert b.refine_io_ms == pytest.approx(a.refine_io_ms)
            assert b.tuples_scanned == a.tuples_scanned
            assert b.table_accesses == a.table_accesses
