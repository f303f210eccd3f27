"""v3's two-phase search: block-wide phase 1, best-first phase 2.

:class:`~repro.core.pool.BlockCandidacy` puts each block's exact tuples
in the pool and keeps, as ``(estimate, tid)`` arrays, every other live
tuple that beats the pool's worst member; phase 2 hands the survivors
over best-first until the first one that can no longer beat the pool.
These tests pin that:

* a **property test** runs random blocks — tied estimates, exact tuples,
  tombstones, pre-filled pools — through ``add_block``/``best_first``
  against a tuple-by-tuple walk of the same two phases (every refine,
  pool and counter) and against the interleaved Algorithm 1 (same pools,
  never more refines);
* **engine tests** run v3 single-query and batch against scalar on a
  table with tombstones, check v3's funnel against the same
  tuple-by-tuple walk over v3's own bounds, and check that v3 refines
  exactly the rows its bounds cannot rule out.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.codec import CODEC_NAMES
from repro.core.iva_file import DELETED_PTR
from repro.core import engine as engine_module
from repro.core import pool as pool_module
from repro.core.kernel import BLOCK_TUPLES, QueryKernel
from repro.core.pool import BlockCandidacy, ResultPool
from repro.data import DatasetConfig, DatasetGenerator, WorkloadGenerator
from repro.maintenance import MaintainedSystem
from repro.metrics.distance import DistanceFunction
from repro.obs.profile import ProfileCollector

ESTIMATES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


def _actual(qi: int, tid: int, estimated: float) -> float:
    """A deterministic 'refined' distance no smaller than the estimate."""
    return estimated + (tid % 3) * 0.5


def _prefilled(k, prefill, queries):
    pools = [ResultPool(k) for _ in range(queries)]
    for pool in pools:
        for tid, distance in prefill:
            pool.insert(tid, distance)
    return pools


def _interleaved(k, prefill, rows, queries):
    """Algorithm 1: every live tuple in tid order, refined as it is admitted."""
    pools = _prefilled(k, prefill, queries)
    accesses = [0] * queries
    for tid, deleted, per_query in rows:
        if deleted:
            continue
        for qi, (estimated, exact) in enumerate(per_query):
            pool = pools[qi]
            if exact:
                pool.insert(tid, estimated)
            elif pool.is_candidate(estimated, tid):
                pool.insert(tid, _actual(qi, tid, estimated))
                accesses[qi] += 1
    return pools, accesses


def _reference(k, prefill, rows, blocks, queries, actual=_actual):
    """The two phases, one tuple at a time.

    Phase 1, per block: when the pool is full as the block starts, every
    live tuple is tested against its worst member then; otherwise the
    block's exact tuples enter first and the rest is tested against the
    pool they leave.  Phase 2 refines the survivors in ``(estimate, tid)``
    order until one cannot beat the pool, pooling ``actual(qi, tid,
    estimated)`` as each survivor's refined distance.
    """
    pools = _prefilled(k, prefill, queries)
    # scanned, exact, pruned, candidates, late-pruned
    counts = [[0, 0, 0, 0, 0] for _ in range(queries)]
    refined = []
    for qi in range(queries):
        pool, count = pools[qi], counts[qi]
        survivors = []
        for start, end in blocks:
            live = [row for row in rows[start:end] if not row[1]]
            worst = pool.worst() if pool.is_full() else None
            for tid, _, per_query in live:
                estimated, exact = per_query[qi]
                count[0] += 1
                if exact:
                    count[1] += 1
                    if worst is None or (estimated, tid) < worst:
                        pool.insert(tid, estimated)
            if worst is None and pool.is_full():
                worst = pool.worst()
            for tid, _, per_query in live:
                estimated, exact = per_query[qi]
                if exact:
                    continue
                if worst is None or (estimated, tid) < worst:
                    count[3] += 1
                    survivors.append((estimated, tid))
                else:
                    count[2] += 1
        survivors.sort()
        for i, (estimated, tid) in enumerate(survivors):
            if not pool.is_candidate(estimated, tid):
                count[4] += len(survivors) - i
                break
            refined.append((tid, qi, estimated))
            pool.insert(tid, actual(qi, tid, estimated))
    return pools, counts, refined


def _two_phase(k, prefill, rows, blocks, queries):
    pools = _prefilled(k, prefill, queries)
    collectors = [ProfileCollector([], []) for _ in range(queries)]
    candidacies = [
        BlockCandidacy(pool, collector=collector)
        for pool, collector in zip(pools, collectors)
    ]
    for start, end in blocks:
        block = rows[start:end]
        tids = np.array([row[0] for row in block], dtype=np.int64)
        ptrs = np.array(
            [DELETED_PTR if row[1] else 7 for row in block], dtype=np.uint64
        )
        if not (ptrs == DELETED_PTR).any():
            ptrs = None
        for qi, candidacy in enumerate(candidacies):
            estimates = np.array([row[2][qi][0] for row in block], dtype=np.float64)
            exact = np.array([row[2][qi][1] for row in block], dtype=bool)
            candidacy.add_block(tids, ptrs, estimates, exact)
    refined = []
    for qi, candidacy in enumerate(candidacies):
        for tid, estimated in candidacy.best_first():
            refined.append((tid, qi, estimated))
            pools[qi].insert(tid, _actual(qi, tid, estimated))
    counts = []
    for c, collector in zip(candidacies, collectors):
        assert collector.exact == c.exact_shortcuts
        assert c.scanned == collector.scanned
        counts.append(
            [
                c.scanned,
                c.exact_shortcuts,
                collector.pruned,
                collector.candidates,
                collector.late_pruned,
            ]
        )
    return pools, counts, refined


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
    @given(case=_blocks(), k=st.integers(1, 6))
    def test_matches_per_tuple_walk(self, case, k):
        queries, rows, blocks, prefill = case
        args = (k, prefill, rows, blocks, queries)
        ref_pools, ref_counts, ref_refined = _reference(*args)
        pools, counts, refined = _two_phase(*args)
        assert refined == ref_refined
        assert counts == ref_counts
        assert [p.results() for p in pools] == [p.results() for p in ref_pools]
        for scanned, exact, pruned, candidates, late in counts:
            assert scanned == exact + pruned + candidates
        # Against Algorithm 1: the same answers from no more refines.
        alg1_pools, alg1_accesses = _interleaved(k, prefill, rows, queries)
        assert [p.results() for p in pools] == [p.results() for p in alg1_pools]
        for qi in range(queries):
            assert sum(1 for r in refined if r[1] == qi) <= alg1_accesses[qi]

    @settings(max_examples=100, deadline=None)
    @given(
        estimates=st.lists(ESTIMATES, min_size=1, max_size=300),
        chunk=st.integers(1, 8),
    )
    def test_best_first_keeps_the_total_order(self, estimates, chunk):
        """Phase 2 hands survivors over by ``(estimate, tid)``; it sorts a
        chunk at a time, and no tie straddles two chunks."""
        tids = np.arange(0, 3 * len(estimates), 3)
        candidacy = BlockCandidacy(ResultPool(len(tids)))
        candidacy.add_block(
            tids,
            None,
            np.asarray(estimates, dtype=np.float64),
            np.zeros(len(tids), dtype=bool),
        )
        with mock.patch.object(pool_module, "RANK_CHUNK", chunk):
            ranked = [(e, t) for t, e in candidacy.best_first()]
        assert ranked == sorted(zip(estimates, tids.tolist()))

    def test_tombstone_ptr_compares_as_uint64(self):
        """``DELETED_PTR`` is 2**64 - 1; an int64 cast would overflow."""
        pool = ResultPool(1)
        pool.insert(99, 0.5)
        candidacy = BlockCandidacy(pool)
        tids = np.array([1, 2, 3], dtype=np.int64)
        ptrs = np.array([5, DELETED_PTR, DELETED_PTR - 1], dtype=np.uint64)
        candidacy.add_block(
            tids, ptrs, np.array([0.1, 0.1, 0.1]), np.zeros(3, dtype=bool)
        )
        assert candidacy.scanned == 2
        assert [tid for tid, _ in candidacy.best_first()] == [1, 3]


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
        p.late_pruned,
    )


def _v3_rows(index, queries, dist):
    """``(rows, blocks)`` of v3's bounds in :func:`_reference`'s shape.

    Each row is ``(tid, deleted, [(estimate, exact) per query])`` and each
    block a ``(start, end)`` row range: the engine's tuple-list blocks.
    """
    per_query = []
    for query in queries:
        kernel = QueryKernel.compile(index, query, dist)
        scan = index.open_scan(query.attribute_ids())
        bounds = []
        for tids, ptrs in scan.blocks(engine_module.BLOCK_TUPLES):
            estimates, exact = kernel.evaluate_segments(
                scan.segment_blocks(tids), len(tids)
            )
            bounds.append(
                (tids, ptrs, list(zip(estimates.tolist(), exact.tolist())))
            )
        per_query.append(bounds)
    rows, blocks = [], []
    for block in zip(*per_query):
        tids, ptrs, _ = block[0]
        start = len(rows)
        for i, (tid, ptr) in enumerate(zip(tids, ptrs)):
            rows.append((tid, ptr == DELETED_PTR, [b[2][i] for b in block]))
        blocks.append((start, len(rows)))
    return rows, blocks


def _reference_funnels(table, index, queries, k):
    """:func:`_funnel` and answers per query from :func:`_reference` over
    v3's bounds and blocks, refining with the real distances."""
    dist = DistanceFunction()
    rows, blocks = _v3_rows(index, queries, dist)

    def actual(qi, tid, estimated):
        return dist.actual(queries[qi], table.read(tid))

    pools, counts, refined = _reference(k, [], rows, blocks, len(queries), actual)
    funnels = []
    for qi, (scanned, exact, pruned, candidates, late) in enumerate(counts):
        n_refined = sum(1 for r in refined if r[1] == qi)
        funnels.append((scanned, exact, n_refined, pruned, candidates, n_refined, late))
    answers = [[(e.tid, e.distance) for e in pool.results()] for pool in pools]
    return funnels, answers


def _v3_estimates(table, index, query, dist):
    """``(estimate, tid)`` of every non-exact live tuple under v3's bounds."""
    kernel = QueryKernel.compile(index, query, dist)
    scan = index.open_scan(query.attribute_ids())
    out = []
    for tids, ptrs in scan.blocks(engine_module.BLOCK_TUPLES):
        estimates, exact = kernel.evaluate_segments(
            scan.segment_blocks(tids), len(tids)
        )
        for tid, ptr, estimated, is_exact in zip(tids, ptrs, estimates, exact):
            if ptr != DELETED_PTR and not is_exact:
                out.append((float(estimated), tid))
    return out


class TestEnginesOnTombstones:
    @pytest.mark.parametrize("k", [5, 300])
    @pytest.mark.parametrize("path", ["sequential", "batch"])
    def test_v3_matches_scalar(self, churned, path, k, monkeypatch):
        """Blocks shrink to 64 tuples, so the 790-element tuple list spans
        13 and k=300 exceeds one block: later blocks start before the pool
        is full and one fills it mid-block."""
        monkeypatch.setattr(engine_module, "BLOCK_TUPLES", 64)
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
    def test_prefilter_keeps_every_decision(self, churned, path, k):
        """v3 decides a block at a time over arrays; the tuple-by-tuple
        reference walk over the same bounds, refining with the real
        distances, makes every decision alike: same funnel, same pools."""
        table, index, queries = churned
        blockwise = _run(path, table, index, queries, k)
        expected, answers = _reference_funnels(table, index, queries, k)
        assert [_funnel(r) for r in blockwise] == expected
        assert [
            [(r.tid, r.distance) for r in report.results] for report in blockwise
        ] == answers
        assert sum(r.profile.bound_pruned for r in blockwise) > 0


@pytest.fixture(scope="module")
def indexes(churned):
    """One index per codec over the tombstoned table."""
    table, _, _ = churned
    return {
        codec: IVAFile.build(table, IVAConfig(name=f"opt_{codec}", codec=codec))
        for codec in CODEC_NAMES
    }


class TestOptimalAccesses:
    @pytest.mark.parametrize("k", [5, 300, 1000])
    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_refines_exactly_what_the_bounds_cannot_rule_out(
        self, churned, indexes, codec, k
    ):
        """v3 refines every non-exact live tuple whose ``(estimate, tid)``
        sorts at or before the final k-th ``(distance, tid)``, and no other.

        No exact algorithm over the same bounds can refine fewer: each of
        those tuples could still be in the top-k.  ("At": a final member
        whose bound equals its distance.)  k = 1000 exceeds the live
        tuples, so the pool never fills and every non-exact tuple is
        refined.  The scalar oracle refines at least as many, and the
        answers are bit-identical.
        """
        table, _, queries = churned
        index = indexes[codec]
        dist = DistanceFunction()
        v3 = IVAEngine(table, index, dist)
        scalar = IVAEngine(table, index, dist, kernel="scalar")
        for query in queries:
            got = v3.search(query, k=k)
            oracle = scalar.search(query, k=k)
            assert [(r.tid, r.distance) for r in got.results] == [
                (r.tid, r.distance) for r in oracle.results
            ]
            bounds = _v3_estimates(table, index, query, dist)
            if len(got.results) == k:
                kth = (got.results[-1].distance, got.results[-1].tid)
                expected = sum(1 for pair in bounds if pair <= kth)
            else:
                expected = len(bounds)
            assert got.table_accesses == expected
            assert got.table_accesses <= oracle.table_accesses


#: Block sizes v3 must be indifferent to: one tuple, sizes that do not
#: divide the ~790-element list, the default, and one past the table.
BLOCK_SIZES = (1, 7, 64, 256, BLOCK_TUPLES, 10_000)


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("path", ["sequential", "batch"])
    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_block_size_changes_no_answer_or_count(
        self, churned, indexes, codec, path, monkeypatch
    ):
        """Every block size gives the scalar oracle's answers, scanned and
        exact counts, and one set of refines.

        The block only decides *when* a tuple the pool rules out is ruled
        out: when its block is added (bound-pruned) or as phase 2 stops
        (late-pruned).  So ``refined`` and ``table_accesses`` are equal at
        every size, never more than the oracle's, and ``bound_pruned +
        late_pruned`` is equal at every size.  At each size the funnel is
        the tuple-by-tuple reference walk's over blocks of that size.
        """
        table, _, queries = churned
        self._assert_block_size_invariant(
            table, indexes[codec], queries, path, monkeypatch
        )

    @pytest.mark.parametrize("path", ["sequential", "batch"])
    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    def test_wide_codes_change_no_answer_or_count(
        self, churned, codec, path, alpha, monkeypatch
    ):
        """The same invariance with 3-byte (α = 0.3) and 5-byte (α = 0.6)
        numeric codes, which decode to uint64 segments."""
        table, _, queries = churned
        index = IVAFile.build(
            table, IVAConfig(name=f"wide_{codec}_{alpha}", codec=codec, alpha=alpha)
        )
        self._assert_block_size_invariant(table, index, queries, path, monkeypatch)

    @staticmethod
    def _assert_block_size_invariant(table, index, queries, path, monkeypatch):
        k = 10
        oracle = _oracle(table, index, queries, k)
        funnels = {}
        for size in BLOCK_SIZES:
            monkeypatch.setattr(engine_module, "BLOCK_TUPLES", size)
            reports = _run(path, table, index, queries, k)
            for a, b in zip(oracle, reports):
                assert [(r.tid, r.distance) for r in b.results] == [
                    (r.tid, r.distance) for r in a.results
                ]
                assert b.tuples_scanned == a.tuples_scanned
                assert b.exact_shortcuts == a.exact_shortcuts
                assert b.table_accesses <= a.table_accesses
                _assert_funnel(b)
            expected, _ = _reference_funnels(table, index, queries, k)
            assert [_funnel(r) for r in reports] == expected
            funnels[size] = [
                (
                    r.table_accesses,
                    r.profile.refined,
                    r.profile.bound_pruned + r.profile.late_pruned,
                )
                for r in reports
            ]
        assert len(set(map(tuple, funnels.values()))) == 1, funnels
