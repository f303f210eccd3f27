"""The one refine step: page order, re-checks, row sharing, and metering.

:class:`~repro.core.refine.Refiner` serves every iVA read path, so its
contract is tested here directly; answer identity across the paths is
``tests/test_kernel.py`` and ``tests/test_refine_identity.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.core.pool import ResultPool
from repro.core.refine import Refiner
from repro.data import DatasetConfig, DatasetGenerator
from repro.data.workload import WorkloadGenerator
from repro.metrics.distance import DistanceFunction
from repro.obs.profile import ProfileCollector


@pytest.fixture(scope="module")
def world():
    table = SparseWideTable(SimulatedDisk())
    DatasetGenerator(
        DatasetConfig(num_tuples=400, num_attributes=30, mean_attrs_per_tuple=6.0, seed=5)
    ).populate(table)
    index = IVAFile.build(table, IVAConfig(name="refine"))
    workload = WorkloadGenerator(table, seed=9)
    queries = [workload.sample_query(arity) for arity in (1, 2, 3, 2)]
    return table, index, queries


def _recording(table, monkeypatch):
    """Record the tids ``table.read`` is called with, in order."""
    reads = []
    original = table.read

    def read(tid, attr_ids=None):
        reads.append(tid)
        return original(tid, attr_ids)

    monkeypatch.setattr(table, "read", read)
    return reads


class TestRefiner:
    def test_flush_reads_in_file_order(self, world, monkeypatch):
        table, _, queries = world
        reads = _recording(table, monkeypatch)
        pool = ResultPool(400)
        refiner = Refiner(table, queries[:1], DistanceFunction(), [pool], batch=8)
        tids = [311, 7, 190, 42, 5, 260, 99, 150]
        for tid in tids:
            refiner.add(0, tid, 0.0)
        # The eighth add filled the buffer and flushed it.
        assert reads == sorted(tids, key=lambda tid: table.locate(tid)[0])
        assert refiner.table_accesses == [len(tids)]
        assert pool.size() == len(tids)

    def test_batch_of_one_refines_inline(self, world, monkeypatch):
        table, _, queries = world
        reads = _recording(table, monkeypatch)
        refiner = Refiner(
            table, queries[:1], DistanceFunction(), [ResultPool(10)], batch=1
        )
        for tid in (30, 3, 20):
            refiner.add(0, tid, 0.0)
            assert reads[-1] == tid

    def test_recheck_late_prunes(self, world):
        table, _, queries = world
        pool = ResultPool(1)
        pool.insert(0, 1.0)
        collector = ProfileCollector.for_query(queries[0])
        refiner = Refiner(
            table, queries[:1], DistanceFunction(), [pool], collectors=[collector]
        )
        refiner.add(0, 10, 2.0)  # the estimate cannot beat the pool any more
        refiner.flush()
        assert refiner.table_accesses == [0]
        assert collector.late_pruned == 1
        assert collector.refined == 0

    def test_rows_shared_across_queries(self, world, monkeypatch):
        table, _, queries = world
        reads = _recording(table, monkeypatch)
        dist = DistanceFunction()
        pools = [ResultPool(5), ResultPool(5)]
        refiner = Refiner(table, queries[:2], dist, pools)
        for qi in (0, 1):
            refiner.add(qi, 12, 0.0)
        refiner.flush()
        assert reads == [12]
        assert refiner.table_accesses == [1, 1]
        full = table.read(12)
        assert [p.results()[0].distance for p in pools] == [
            dist.actual(q, full) for q in queries[:2]
        ]


def _noisy_reads(table, monkeypatch):
    """Make every table read wait for another thread's disk reads.

    The other thread reads a file no query touches, through its own head
    channel, so the query's own modeled costs are unchanged.
    """
    disk = table.disk
    page = disk.params.page_size
    disk.create("noise", overwrite=True)
    disk.append("noise", bytes(page * 64))
    original = table.read
    calls = [0]

    def read(tid, attr_ids=None):
        calls[0] += 1

        def other():
            with disk.io_channel("noise"):
                disk.read("noise", (calls[0] * 17 % 64) * page, 1)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        return original(tid, attr_ids)

    monkeypatch.setattr(table, "read", read)


@pytest.mark.parametrize("path", ["scalar", "v3", "batch"])
def test_reports_exclude_other_threads_io(world, path, monkeypatch):
    """Filter and refine I/O are metered on the query's own thread."""
    table, index, queries = world

    def costs():
        if path == "batch":
            table.disk.drop_cache()
            reports = IVAEngine(table, index).search_batch(queries, k=10)
            return [(reports[0].filter_io_ms, reports[0].refine_io_ms)]
        engine = IVAEngine(table, index, kernel=path)
        out = []
        for query in queries:
            table.disk.drop_cache()
            report = engine.search(query, k=10)
            out.append((report.filter_io_ms, report.refine_io_ms))
        return out

    costs()  # leaves the disk head where the next run starts too
    quiet = costs()
    assert all(refine > 0 for _, refine in quiet)
    _noisy_reads(table, monkeypatch)
    noisy = costs()
    # Meters take differences of a running total, so rounding follows the
    # disk's total modeled time; the other thread's charges must not show.
    for got, want in zip(noisy, quiet):
        assert got == pytest.approx(want, rel=1e-12)
