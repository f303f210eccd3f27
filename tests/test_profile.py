"""The EXPLAIN ANALYZE profiler: funnel conservation, parity, overhead.

The artifact's load-bearing property is that its candidate funnel is
*exact bookkeeping*, not sampling: scanned/pruned/candidate/refined
counts must reconcile with the access counters the engines already
report (``SearchReport.tuples_scanned`` / ``table_accesses`` /
``exact_shortcuts``) on every execution path — the scalar oracle, and v3
single-query and batched.
"""

from __future__ import annotations

import pytest

from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAConfig, IVAFile
from repro.data.workload import WorkloadGenerator
from repro.obs.profile import ProfileCollector, QueryProfile


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
    # Every candidate's fate is accounted for: v3 survivors left when
    # phase 2 stops are late-pruned.
    assert profile.candidates == profile.refined + profile.late_pruned


class TestSequential:
    def test_funnel_equals_report_counters(self, indexed, queries):
        table, index = indexed
        for kernel in ("v3", "scalar"):
            engine = IVAEngine(table, index, kernel=kernel, profile=True)
            for query in queries:
                report = engine.search(query, k=10)
                assert_funnel_matches_report(report.profile, report)
                # v3's best-first phase stops at the first survivor that
                # cannot beat the pool and late-prunes the rest; the
                # scalar oracle refines inline and never late-prunes.
                if kernel == "scalar":
                    assert report.profile.late_pruned == 0

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


class TestKernels:
    @pytest.mark.parametrize("kernel", ["scalar", "v3"])
    def test_funnel_on_every_path(self, indexed, queries, kernel):
        table, index = indexed
        engine = IVAEngine(table, index, kernel=kernel, profile=True)
        for query in queries:
            report = engine.search(query, k=10)
            assert_funnel_matches_report(report.profile, report)

    def test_answers_unchanged_by_profiling(self, indexed, queries):
        table, index = indexed
        plain = IVAEngine(table, index)
        profiled = IVAEngine(table, index, profile=True)
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
            # ``refined`` is not compared: v3 refines best-first over
            # tighter text bounds, so it refines fewer rows.
            # Per-attribute entry counts agree between the kernels (the
            # scalar path probes payloads before the tombstone check for
            # exactly this parity).
            assert [r.entries_scanned for r in a.attributes] == [
                r.entries_scanned for r in b.attributes
            ]

    def test_v3_path_counts_match_scalar(self, indexed, queries):
        self._assert_v3_counts_match_scalar(indexed, queries)

    def test_adapter_path_counts_match_scalar(self, small_dataset, queries):
        """At α = 0.6 numeric codes are five bytes wide, so v3 bounds them
        from blocks ``decode_segment`` adapts from ``move_to``; same counts."""
        index = IVAFile.build(small_dataset, IVAConfig(name="prof_wide", alpha=0.6))
        assert any(
            not term.attr.is_text for query in queries[:5] for term in query.terms
        )
        self._assert_v3_counts_match_scalar((small_dataset, index), queries)


class TestBatch:
    @pytest.mark.parametrize("kernel", ["scalar", "v3"])
    def test_batch_funnels(self, indexed, queries, kernel):
        """A batch's funnels reconcile, and each report agrees with
        a per-query engine running *kernel* on every path-independent
        count."""
        table, index = indexed
        engine = IVAEngine(table, index, profile=True)
        reports = engine.search_batch(queries[:4], k=10)
        reference = IVAEngine(table, index, kernel=kernel)
        for query, report in zip(queries[:4], reports):
            assert_funnel_matches_report(report.profile, report)
            expected = reference.search(query, k=10)
            assert [(r.tid, r.distance) for r in report.results] == [
                (r.tid, r.distance) for r in expected.results
            ]
            assert report.tuples_scanned == expected.tuples_scanned
            assert report.exact_shortcuts == expected.exact_shortcuts


class TestOverhead:
    def test_profiling_off_builds_no_collector(self, indexed, queries, monkeypatch):
        """With profiling off, no path builds a collector.

        The hooks then cost one ``is not None`` test per decision, which
        is checked here deterministically rather than by timing two
        identical engines.  The modeled I/O and the access counts must
        match a ``profile=True`` engine's.
        """
        table, index = indexed

        def refuse(*args, **kwargs):
            raise AssertionError("profile=False built a ProfileCollector")

        def unprofiled(run):
            with monkeypatch.context() as patch:
                patch.setattr(ProfileCollector, "for_query", refuse)
                return run()

        def assert_same_costs(plain, profiled):
            assert plain.profile is None
            assert profiled.profile is not None
            assert plain.filter_io_ms == pytest.approx(profiled.filter_io_ms)
            assert plain.refine_io_ms == pytest.approx(profiled.refine_io_ms)
            assert plain.tuples_scanned == profiled.tuples_scanned
            assert plain.table_accesses == profiled.table_accesses

        for kernel in ("scalar", "v3"):
            on = IVAEngine(table, index, kernel=kernel, profile=True)
            off = IVAEngine(table, index, kernel=kernel, profile=False)
            for query in queries:
                profiled = on.search(query, k=10)
                plain = unprofiled(lambda: off.search(query, k=10))
                assert_same_costs(plain, profiled)

        on = IVAEngine(table, index, profile=True)
        off = IVAEngine(table, index, profile=False)
        profiled = on.search_batch(queries, k=10)
        plain = unprofiled(lambda: off.search_batch(queries, k=10))
        for a, b in zip(plain, profiled):
            assert_same_costs(a, b)
