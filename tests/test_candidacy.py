"""Block-level candidacy: the prefilter never changes a decision.

:class:`~repro.core.pool.BlockCandidacy` drops, in bulk, every tuple of a
block that cannot beat the pool's worst member as it stands when the block
starts.  These tests pin that the shortcut is
invisible:

* a **property test** runs random blocks — tied estimates, exact tuples,
  tombstones, pre-filled pools — through
  :func:`~repro.core.pool.block_candidates` and through the plain
  per-tuple walk, and compares every candidate, pool and counter;
* **engine tests** run v3 single-query and batch against scalar on a
  table with tombstones, and compare v3's funnel with and
  without numpy (the numpy-absent path has no prefilter).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.core import fastpath
from repro.core.iva_file import DELETED_PTR
from repro.core.pool import BlockCandidacy, ResultPool, block_candidates
from repro.data import DatasetConfig, DatasetGenerator, WorkloadGenerator
from repro.maintenance import MaintainedSystem
from repro.obs.profile import ProfileCollector

ESTIMATES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


def _actual(tid: int, estimated: float) -> float:
    """A deterministic 'refined' distance no smaller than the estimate."""
    return estimated + (tid % 3) * 0.5


def _reference(k, prefill, rows, blocks, queries):
    """The per-tuple walk: every live tuple, tid outer, query inner."""
    pools = [ResultPool(k) for _ in range(queries)]
    counts = [[0, 0, 0] for _ in range(queries)]  # scanned, exact, pruned
    candidates = []
    for pool in pools:
        for tid, distance in prefill:
            pool.insert(tid, distance)
    for start, end in blocks:
        for tid, deleted, per_query in rows[start:end]:
            if deleted:
                continue
            for qi, (estimated, exact) in enumerate(per_query):
                pool = pools[qi]
                counts[qi][0] += 1
                if exact:
                    pool.insert(tid, estimated)
                    counts[qi][1] += 1
                    continue
                if not pool.is_candidate(estimated, tid):
                    counts[qi][2] += 1
                    continue
                candidates.append((tid, qi, estimated))
                pool.insert(tid, _actual(tid, estimated))
    return pools, counts, candidates


def _blockwise(k, prefill, rows, blocks, queries, arrays):
    pools = [ResultPool(k) for _ in range(queries)]
    collectors = [ProfileCollector([], []) for _ in range(queries)]
    candidacies = [
        BlockCandidacy(pool, collector=collector)
        for pool, collector in zip(pools, collectors)
    ]
    for pool in pools:
        for tid, distance in prefill:
            pool.insert(tid, distance)
    np = fastpath._np
    candidates = []
    for start, end in blocks:
        block = rows[start:end]
        tids = tuple(row[0] for row in block)
        ptrs = tuple(DELETED_PTR if row[1] else 7 for row in block)
        evaluated = []
        for qi in range(queries):
            estimates = [row[2][qi][0] for row in block]
            exact = [row[2][qi][1] for row in block]
            if arrays:
                estimates = np.asarray(estimates, dtype=np.float64)
                exact = np.asarray(exact, dtype=bool)
            evaluated.append((estimates, exact))
        for tid, qi, estimated in block_candidates(candidacies, tids, ptrs, evaluated):
            candidates.append((tid, qi, estimated))
            pools[qi].insert(tid, _actual(tid, estimated))
    counts = []
    for qi, (c, collector) in enumerate(zip(candidacies, collectors)):
        # The collector saw every exact shortcut, bulk-dropped ones included.
        assert collector.exact == c.exact_shortcuts
        chosen = sum(1 for cand in candidates if cand[1] == qi)
        assert c.scanned == collector.exact + collector.pruned + chosen
        counts.append([c.scanned, c.exact_shortcuts, collector.pruned])
    return pools, counts, candidates


@st.composite
def _blocks(draw):
    queries = draw(st.integers(1, 3))
    n = draw(st.integers(1, 120))
    rows = []
    tid = 0
    for _ in range(n):
        tid += draw(st.integers(1, 3))
        deleted = draw(st.booleans()) and draw(st.booleans())
        per_query = [(draw(ESTIMATES), draw(st.booleans())) for _ in range(queries)]
        rows.append((tid, deleted, per_query))
    cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=6))) | {n})
    blocks = list(zip([0] + cuts[:-1], cuts))
    prefill = draw(
        st.lists(st.tuples(st.integers(1000, 1010), ESTIMATES), max_size=4)
    )
    return queries, rows, blocks, prefill


class TestBlockCandidates:
    @settings(max_examples=200, deadline=None)
    @given(
        case=_blocks(),
        k=st.integers(1, 6),
        arrays=st.booleans(),
    )
    def test_matches_per_tuple_walk(self, case, k, arrays):
        if arrays and fastpath._np is None:
            arrays = False
        queries, rows, blocks, prefill = case
        args = (k, prefill, rows, blocks, queries)
        ref_pools, ref_counts, ref_candidates = _reference(*args)
        pools, counts, candidates = _blockwise(*args, arrays)
        assert candidates == ref_candidates
        assert counts == ref_counts
        assert [p.results() for p in pools] == [p.results() for p in ref_pools]

    def test_tombstone_ptr_compares_as_uint64(self):
        """``DELETED_PTR`` is 2**64 - 1; an int64 cast would overflow."""
        np = pytest.importorskip("numpy")
        pool = ResultPool(1)
        pool.insert(99, 0.5)
        candidacy = BlockCandidacy(pool)
        tids = (1, 2, 3)
        ptrs = (5, DELETED_PTR, DELETED_PTR - 1)
        survivors = list(
            candidacy.survivors(
                tids, ptrs, np.array([0.1, 0.1, 0.1]), np.zeros(3, dtype=bool)
            )
        )
        assert [slot for slot, _, _ in survivors] == [0, 2]


@pytest.fixture(scope="module")
def churned():
    """~700 tuples with updated (tombstone + fresh tid) and deleted rows."""
    table = SparseWideTable(SimulatedDisk())
    DatasetGenerator(
        DatasetConfig(
            num_tuples=700, num_attributes=30, mean_attrs_per_tuple=5.0, seed=19
        )
    ).populate(table)
    index = IVAFile.build(table, IVAConfig(name="churn"))
    system = MaintainedSystem(table, [index])
    workload = WorkloadGenerator(table, seed=23)
    queries = [workload.sample_query(arity) for arity in (1, 2, 3) for _ in range(3)]
    rng = random.Random(5)
    updated = rng.sample(range(700), 130)
    rows = [workload.sample_query(2) for _ in range(90)]
    for tid, row in zip(updated, rows):
        system.update(tid, {term.attr.name: term.value for term in row.terms})
    for tid in updated[90:]:
        system.delete(tid)
    return table, index, queries


def _assert_funnel(report) -> None:
    profile = report.profile
    assert profile.tuples_scanned == report.tuples_scanned
    assert profile.tuples_scanned == (
        profile.exact_shortcuts + profile.bound_pruned + profile.candidates
    )
    assert profile.exact_shortcuts == report.exact_shortcuts


def _run(path, table, index, queries, k):
    """Profiled v3 reports for *queries* on one engine path."""
    engine = IVAEngine(table, index, profile=True)
    if path == "batch":
        return engine.search_batch(queries, k=k)
    return [engine.search(query, k=k) for query in queries]


def _oracle(table, index, queries, k):
    """The per-query sequential scalar engine every path must match."""
    engine = IVAEngine(table, index, kernel="scalar", profile=True)
    return [engine.search(query, k=k) for query in queries]


def _funnel(report):
    p = report.profile
    return (
        report.tuples_scanned,
        report.exact_shortcuts,
        report.table_accesses,
        p.bound_pruned,
        p.candidates,
        p.refined,
    )


class TestEnginesOnTombstones:
    @pytest.mark.parametrize("k", [5, 300])
    @pytest.mark.parametrize("path", ["sequential", "batch"])
    def test_v3_matches_scalar(self, churned, path, k):
        """k=300 exceeds one 256-tuple block, so the second block starts
        before the pool is full and fills it mid-block."""
        table, index, queries = churned
        assert table.dead_tuples > 0
        scalar = _oracle(table, index, queries, k)
        v3 = _run(path, table, index, queries, k)
        for a, b in zip(scalar, v3):
            assert [(r.tid, r.distance) for r in b.results] == [
                (r.tid, r.distance) for r in a.results
            ]
            assert b.exact_shortcuts == a.exact_shortcuts
            assert b.tuples_scanned == a.tuples_scanned
            _assert_funnel(b)

    @pytest.mark.parametrize("k", [5, 300])
    @pytest.mark.parametrize("path", ["sequential", "batch"])
    def test_prefilter_keeps_every_decision(self, churned, path, k, monkeypatch):
        """Without numpy v3 decides tuple by tuple; with it, whole blocks
        are prefiltered.  Every funnel count must agree."""
        if fastpath._np is None:
            pytest.skip("the prefilter needs numpy")
        table, index, queries = churned
        blockwise = _run(path, table, index, queries, k)
        monkeypatch.setattr(fastpath, "_np", None)
        per_tuple = _run(path, table, index, queries, k)
        assert [_funnel(r) for r in blockwise] == [_funnel(r) for r in per_tuple]
        assert sum(r.profile.bound_pruned for r in blockwise) > 0
