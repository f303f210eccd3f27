"""The parallel filter/refine executor: equivalence, fallback, config.

The load-bearing property is *bit-identical answers*: every worker count
must produce exactly the same ``(tid, distance)`` list as the sequential
engine, tie-breaking included (see the determinism contract in
``repro.core.pool`` and ``docs/parallelism.md``).
"""

from __future__ import annotations

import pytest

from repro.core.batch import BatchIVAEngine
from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAConfig, IVAFile
from repro.data.generator import DatasetConfig, DatasetGenerator
from repro.data.workload import WorkloadGenerator
from repro.errors import ParallelError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    ExecutorConfig,
    ParallelExecutionError,
    ParallelSearchReport,
    ShardPlanner,
)
from repro.query import Query
from repro.storage.disk import SimulatedDisk
from repro.storage.table import SparseWideTable


@pytest.fixture(scope="module")
def indexed(small_dataset):
    index = IVAFile.build(small_dataset, IVAConfig(name="par"))
    return small_dataset, index


@pytest.fixture(scope="module")
def queries(small_dataset):
    workload = WorkloadGenerator(small_dataset, seed=97)
    return [workload.sample_query(3) for _ in range(8)] + [
        workload.sample_query(1) for _ in range(4)
    ]


def _answers(report):
    return [(r.tid, r.distance) for r in report.results]


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_identical_to_sequential(self, indexed, queries, workers):
        table, index = indexed
        sequential = IVAEngine(table, index)
        parallel = IVAEngine(
            table, index, executor=ExecutorConfig(workers=workers)
        )
        for query in queries:
            seq = sequential.search(query, k=10)
            par = parallel.search(query, k=10)
            assert _answers(par) == _answers(seq)

    def test_parallel_report_breakdown(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(table, index, executor=ExecutorConfig(workers=2))
        report = engine.search(queries[0], k=10)
        assert isinstance(report, ParallelSearchReport)
        assert report.workers == 2
        assert report.shards >= 2
        assert len(report.shard_io_ms) == report.shards
        # Critical path: the filter I/O cannot exceed the sum of all
        # shards' I/O plus planning, and must cover the slowest worker.
        assert report.filter_io_ms <= report.planning_io_ms + sum(
            report.shard_io_ms
        ) + 1e-9

    def test_batch_identical_to_sequential(self, indexed, queries):
        table, index = indexed
        sequential = BatchIVAEngine(table, index)
        parallel = BatchIVAEngine(
            table, index, executor=ExecutorConfig(workers=3)
        )
        seq_reports = sequential.search_batch(queries[:5], k=10)
        par_reports = parallel.search_batch(queries[:5], k=10)
        for seq, par in zip(seq_reports, par_reports):
            assert _answers(par) == _answers(seq)

    def test_other_metrics_and_k(self, indexed, queries):
        table, index = indexed
        dist = DistanceFunction(metric="L1")
        sequential = IVAEngine(table, index, dist)
        parallel = IVAEngine(
            table, index, dist, executor=ExecutorConfig(workers=4)
        )
        for k in (1, 3, 25):
            seq = sequential.search(queries[1], k=k)
            par = parallel.search(queries[1], k=k)
            assert _answers(par) == _answers(seq)

    def test_equivalent_after_inserts_and_deletes(self):
        """Mutations bump the index version; plans must not go stale."""
        disk = SimulatedDisk()
        table = SparseWideTable(disk)
        DatasetGenerator(
            DatasetConfig(
                num_tuples=300, num_attributes=40, mean_attrs_per_tuple=6.0, seed=31
            )
        ).populate(table)
        index = IVAFile.build(table)
        workload = WorkloadGenerator(table, seed=5)
        query = workload.sample_query(3)
        parallel = IVAEngine(table, index, executor=ExecutorConfig(workers=2))
        sequential = IVAEngine(table, index)
        before = parallel.search(query, k=10)
        assert _answers(before) == _answers(sequential.search(query, k=10))
        # Delete the current best answer and append fresh tuples — the
        # parallel path must replan (the cached plan is version-keyed).
        victim = before.results[0].tid
        table.delete(victim)
        index.delete(victim)
        for i in range(80):
            tid = table.insert({"Color": f"shade{i}", "Price": float(i)})
            index.insert(tid, table.read(tid).cells)
        after_par = parallel.search(query, k=10)
        after_seq = sequential.search(query, k=10)
        assert _answers(after_par) == _answers(after_seq)
        assert victim not in [r.tid for r in after_par.results]


class TestFallback:
    def test_pool_failure_falls_back_to_sequential(
        self, indexed, queries, monkeypatch
    ):
        table, index = indexed
        import repro.parallel.executor as executor_module

        def broken_pool(*args, **kwargs):
            raise RuntimeError("no threads today")

        monkeypatch.setattr(executor_module, "ThreadPoolExecutor", broken_pool)
        registry = MetricsRegistry()
        engine = IVAEngine(
            table,
            index,
            registry=registry,
            executor=ExecutorConfig(workers=4),
        )
        report = engine.search(queries[0], k=10)
        sequential = IVAEngine(table, index).search(queries[0], k=10)
        assert _answers(report) == _answers(sequential)
        counter = registry.counter(
            "repro_parallel_fallbacks_total", labels={"engine": "iVA"}
        )
        assert counter.value == 1

    def test_pool_failure_raises_without_fallback(
        self, indexed, queries, monkeypatch
    ):
        table, index = indexed
        import repro.parallel.executor as executor_module

        def broken_pool(*args, **kwargs):
            raise RuntimeError("no threads today")

        monkeypatch.setattr(executor_module, "ThreadPoolExecutor", broken_pool)
        engine = IVAEngine(
            table,
            index,
            executor=ExecutorConfig(workers=4, fallback=False),
        )
        with pytest.raises(ParallelExecutionError):
            engine.search(queries[0], k=10)

    def test_worker_crash_falls_back(self, indexed, queries, monkeypatch):
        """A shard dying mid-scan degrades to sequential, same answers."""
        table, index = indexed
        import repro.parallel.executor as executor_module

        original = executor_module.ParallelScanExecutor._scan_shard

        def dying_scan(
            self, shard, worker, attr_ids, contexts, k, skip_exact,
            out_queue, abort,
        ):
            if shard.index == 1:
                stats = executor_module._ShardStats(shard=shard.index, worker=worker)
                stats.error = RuntimeError("shard 1 exploded")
                out_queue.put(
                    executor_module._ShardDone(stats=stats, local_pools=[])
                )
                return
            original(
                self, shard, worker, attr_ids, contexts, k, skip_exact,
                out_queue, abort,
            )

        monkeypatch.setattr(
            executor_module.ParallelScanExecutor, "_scan_shard", dying_scan
        )
        engine = IVAEngine(table, index, executor=ExecutorConfig(workers=2))
        report = engine.search(queries[0], k=10)
        sequential = IVAEngine(table, index).search(queries[0], k=10)
        assert _answers(report) == _answers(sequential)

    def test_shard_failure_error_is_enriched(self, indexed, queries, monkeypatch):
        """Without fallback, the error names the shard, worker, and tids."""
        table, index = indexed
        import repro.parallel.executor as executor_module

        original = executor_module.ParallelScanExecutor._scan_shard

        def dying_scan(
            self, shard, worker, attr_ids, contexts, k, skip_exact,
            out_queue, abort,
        ):
            if shard.index == 1:
                stats = executor_module._ShardStats(shard=shard.index, worker=worker)
                stats.error = RuntimeError("shard 1 exploded")
                out_queue.put(
                    executor_module._ShardDone(stats=stats, local_pools=[])
                )
                return
            original(
                self, shard, worker, attr_ids, contexts, k, skip_exact,
                out_queue, abort,
            )

        monkeypatch.setattr(
            executor_module.ParallelScanExecutor, "_scan_shard", dying_scan
        )
        engine = IVAEngine(
            table, index, executor=ExecutorConfig(workers=2, fallback=False)
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            engine.search(queries[0], k=10)
        err = excinfo.value
        assert err.shard == 1
        assert err.worker is not None
        lo, hi = err.tid_range
        assert 0 <= lo <= hi
        assert isinstance(err.__cause__, RuntimeError)
        assert "shard 1" in str(err)

    def test_tiny_table_runs_sequentially_without_fallback_counter(self):
        disk = SimulatedDisk()
        table = SparseWideTable(disk)
        for i in range(10):
            table.insert({"Color": f"shade{i}", "Price": float(i)})
        index = IVAFile.build(table)
        registry = MetricsRegistry()
        engine = IVAEngine(
            table, index, registry=registry, executor=ExecutorConfig(workers=4)
        )
        query = Query.from_dict(table.catalog, {"Color": "shade3"})
        report = engine.search(query, k=3)
        assert not isinstance(report, ParallelSearchReport)
        counter = registry.counter(
            "repro_parallel_fallbacks_total", labels={"engine": "iVA"}
        )
        assert counter.value == 0


class TestExecutorConfig:
    def test_process_mode_rejected(self):
        with pytest.raises(ParallelError, match="process"):
            ExecutorConfig(mode="process")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParallelError):
            ExecutorConfig(mode="fiber")

    def test_negative_workers_rejected(self):
        with pytest.raises(ParallelError):
            ExecutorConfig(workers=-1)

    def test_serial_mode_is_sequential(self, indexed, queries):
        table, index = indexed
        engine = IVAEngine(
            table, index, executor=ExecutorConfig(workers=4, mode="serial")
        )
        assert engine.executor.effective_workers() == 1
        report = engine.search(queries[0], k=10)
        assert not isinstance(report, ParallelSearchReport)

    def test_auto_workers_capped(self):
        config = ExecutorConfig(workers=0)
        assert 1 <= config.effective_workers() <= 4

    def test_shard_count_respects_min_elements(self):
        config = ExecutorConfig(workers=4, min_shard_elements=64)
        assert config.shard_count(100) == 1
        assert config.shard_count(10_000) == 8
        # Capped so shards never drop below min_shard_elements.
        assert config.shard_count(200) <= 200 // 64


class TestShardPlanner:
    def test_directory_plan_matches_walked_plan(self, indexed):
        """The zero-I/O sync-directory plan must agree with a walked plan."""
        table, index = indexed
        attr_ids = tuple(range(min(6, len(table.catalog))))
        planner = ShardPlanner(index)
        plan = planner.plan(attr_ids, 4)
        assert plan[0].start_element == 0
        assert plan[-1].end_element == index.tuple_elements
        for left, right in zip(plan, plan[1:]):
            assert left.end_element == right.start_element
        # Ground truth by walking scanners to each boundary.
        scanners = {a: index.make_scanner(a) for a in attr_ids}
        boundaries = {s.start_element: s.checkpoints for s in plan}
        for position, tid in enumerate(index.tuples.element_tids()):
            expected = boundaries.get(position)
            if expected is not None:
                for attr_id, scanner in scanners.items():
                    point = expected[attr_id]
                    assert point.offset == scanner.checkpoint_offset()
                    assert point == scanner.checkpoint(position)
            for scanner in scanners.values():
                scanner.move_to(tid)

    def test_plan_cache_invalidated_by_version(self, small_dataset):
        index = IVAFile.build(small_dataset, IVAConfig(name="par_cache"))
        planner = ShardPlanner(index)
        plan1 = planner.plan((0, 1), 4)
        assert planner.plan((0, 1), 4) is plan1  # cache hit
        index.delete(next(iter(index.tuples.element_tids())))
        plan2 = planner.plan((0, 1), 4)
        assert plan2 is not plan1


class _ListSink:
    def __init__(self):
        self.spans = []
        self.spans_written = 0

    def write(self, span):
        self.spans.append(span)
        self.spans_written += 1

    def close(self):
        pass


class TestSpanNesting:
    """Regression: shard workers must not emit orphan root spans.

    Workers borrow the query root via ``Tracer.attach``, so a parallel
    search produces exactly ONE root span with the per-shard
    ``parallel.shard_scan`` spans nested inside it — not one orphan
    root per worker thread.
    """

    def test_parallel_search_writes_single_root(self, indexed, queries):
        from repro.obs.trace import Tracer

        table, index = indexed
        sink = _ListSink()
        engine = IVAEngine(
            table,
            index,
            tracer=Tracer(registry=MetricsRegistry(), sink=sink),
            executor=ExecutorConfig(workers=3),
        )
        report = engine.search(queries[0], k=10)
        assert isinstance(report, ParallelSearchReport)
        assert sink.spans_written == 1
        root = sink.spans[0]
        assert root.name == "query"
        assert root.attrs["parallel"] is True
        shard_spans = [
            c for c in root.children if c.name == "parallel.shard_scan"
        ]
        assert len(shard_spans) == report.shards
        assert {s.attrs["shard"] for s in shard_spans} == set(
            range(report.shards)
        )
        for span in shard_spans:
            assert span.duration_ms is not None
            assert span.attrs["tuples"] >= 0
            assert "worker" in span.attrs
        # The live shard spans' tuple counts reconcile with the report.
        assert (
            sum(s.attrs["tuples"] for s in shard_spans)
            == report.tuples_scanned
        )
        # The synthetic phase children and the merge span are still there.
        names = {c.name for c in root.children}
        assert {"filter", "refine", "parallel.merge"} <= names

    def test_worker_disk_reads_nest_under_query_root(self, queries):
        """A traced disk puts worker-side I/O spans inside shard spans."""
        from repro.obs.trace import Tracer

        disk = SimulatedDisk()
        table = SparseWideTable(disk)
        DatasetGenerator(DatasetConfig(num_tuples=200, num_attributes=30, seed=23)).populate(table)
        index = IVAFile.build(table, IVAConfig(name="par_trace"))
        sink = _ListSink()
        tracer = Tracer(registry=MetricsRegistry(), sink=sink)
        workload = WorkloadGenerator(table, seed=61)
        query = workload.sample_query(2)  # reads the table; sample untraced
        disk.tracer = tracer
        try:
            engine = IVAEngine(
                table, index, tracer=tracer, executor=ExecutorConfig(workers=3)
            )
            engine.search(query, k=5)
        finally:
            disk.tracer = None
        assert sink.spans_written == 1
        root = sink.spans[0]

        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)

        everything = list(walk(root))
        disk_reads = [s for s in everything if s.name == "disk.read"]
        assert disk_reads, "traced disk produced no spans"
        # Every disk.read landed inside the tree, none as a root.
        assert all(s is root or s.name != "query" for s in everything)

    def test_batch_parallel_single_root(self, indexed, queries):
        from repro.obs.trace import Tracer

        table, index = indexed
        sink = _ListSink()
        engine = BatchIVAEngine(
            table,
            index,
            tracer=Tracer(registry=MetricsRegistry(), sink=sink),
            executor=ExecutorConfig(workers=3),
        )
        engine.search_batch(queries[:3], k=10)
        assert sink.spans_written == 1
        root = sink.spans[0]
        assert root.name == "query_batch"
        shard_spans = [
            c for c in root.children if c.name == "parallel.shard_scan"
        ]
        assert shard_spans
