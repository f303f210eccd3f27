"""The one refine step: bound order, the phase-2 stop, row sharing, metering.

:class:`~repro.core.refine.Refiner` serves every iVA read path, so its
contract is tested here directly; answer identity across the paths is
``tests/test_kernel.py`` and ``tests/test_refine_identity.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.core.pool import BlockCandidacy, ResultPool
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
    def test_best_first_reads_in_bound_order(self, world, monkeypatch):
        """Phase 2 reads survivors by ``(estimate, tid)``, not by tid or page."""
        table, _, queries = world
        reads = _recording(table, monkeypatch)
        pool = ResultPool(400)
        candidacy = BlockCandidacy(pool)
        refiner = Refiner(table, queries[:1], DistanceFunction(), [pool])
        tids = np.arange(5, 13)
        estimates = [3.0, 1.0, 2.0, 1.0, 0.5, 4.0, 2.0, 0.0]
        candidacy.add_block(
            tids, None, np.asarray(estimates), np.zeros(len(tids), dtype=bool)
        )
        for tid, estimated in candidacy.best_first():
            refiner.refine(0, tid, estimated)
        assert reads == [12, 9, 6, 8, 7, 11, 5, 10]
        assert refiner.table_accesses == [len(tids)]

    def test_batch_of_one_refines_inline(self, world, monkeypatch):
        """Every candidate is refined when handed over: a batch of one."""
        table, _, queries = world
        reads = _recording(table, monkeypatch)
        pool = ResultPool(10)
        refiner = Refiner(table, queries[:1], DistanceFunction(), [pool])
        for tid in (30, 3, 20):
            refiner.refine(0, tid, 0.0)
            assert reads[-1] == tid
            assert tid in [entry.tid for entry in pool.results()]

    def test_recheck_late_prunes(self, world):
        """Phase 2 stops at the first survivor that cannot beat the pool;
        it and every later survivor count as late-pruned."""
        table, _, queries = world
        pool = ResultPool(1)
        collector = ProfileCollector.for_query(queries[0])
        candidacy = BlockCandidacy(pool, collector=collector)
        refiner = Refiner(
            table, queries[:1], DistanceFunction(), [pool], collectors=[collector]
        )
        candidacy.add_block(
            np.arange(10, 13), None, np.array([0.0, 5.0, 6.0]), np.zeros(3, dtype=bool)
        )
        pool.insert(0, 1.0)  # tightens below the last two estimates
        for tid, estimated in candidacy.best_first():
            refiner.refine(0, tid, estimated)
        assert refiner.table_accesses == [1]
        assert collector.candidates == 3
        assert collector.refined == 1
        assert collector.late_pruned == 2

    def test_rows_shared_across_queries(self, world, monkeypatch):
        table, _, queries = world
        reads = _recording(table, monkeypatch)
        dist = DistanceFunction()
        pools = [ResultPool(5), ResultPool(5)]
        refiner = Refiner(table, queries[:2], dist, pools)
        for qi in (0, 1):
            refiner.refine(qi, 12, 0.0)
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
    # Meters sum their own charges from zero, so the other thread's
    # charges leave no trace, not even in the rounding.
    assert noisy == quiet


@pytest.mark.parametrize("path", ["scalar", "v3"])
def test_refine_io_is_the_sum_of_the_table_reads_own_charges(
    world, path, monkeypatch
):
    """On the scalar path table reads interleave with scan refills; the
    refine figure must still be exactly its reads' charges, summed in
    order, and the filter figure the rest of the run's."""
    table, index, queries = world
    disk = table.disk
    engine = IVAEngine(table, index, kernel=path)
    charges = []
    original = table.read

    def read(tid, attr_ids=None):
        with disk.metered() as meter:
            record = original(tid, attr_ids)
        charges.append(meter.io_ms)
        return record

    monkeypatch.setattr(table, "read", read)
    for query in queries:
        disk.drop_cache()
        charges.clear()
        with disk.metered() as run:
            report = engine.search(query, k=10)
        assert charges and report.refine_io_ms > 0
        assert report.refine_io_ms == sum(charges)
        assert report.filter_io_ms == run.io_ms - report.refine_io_ms
        assert report.filter_io_ms > 0
