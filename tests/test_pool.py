"""Unit tests for the top-k result pool."""

import itertools

import pytest

from repro.core.pool import ResultPool


class TestResultPool:
    def test_fills_to_k(self):
        pool = ResultPool(3)
        for tid, dist in [(1, 5.0), (2, 1.0), (3, 3.0)]:
            assert pool.insert(tid, dist)
        assert pool.size() == 3
        assert pool.is_full()
        assert pool.max_dist() == 5.0

    def test_insert_replaces_worst(self):
        pool = ResultPool(2)
        pool.insert(1, 5.0)
        pool.insert(2, 3.0)
        assert pool.insert(3, 1.0)
        assert pool.size() == 2
        assert pool.max_dist() == 3.0
        assert {e.tid for e in pool.results()} == {2, 3}

    def test_insert_rejects_worse(self):
        pool = ResultPool(2)
        pool.insert(1, 1.0)
        pool.insert(2, 2.0)
        assert not pool.insert(3, 9.0)
        assert {e.tid for e in pool.results()} == {1, 2}

    def test_insert_rejects_equal_distance_when_full(self):
        pool = ResultPool(1)
        pool.insert(1, 2.0)
        assert not pool.insert(2, 2.0)
        assert pool.results()[0].tid == 1

    def test_is_candidate_semantics(self):
        # Line 10 of Algorithm 1: candidate iff pool not full or est < max.
        pool = ResultPool(2)
        assert pool.is_candidate(1e9)
        pool.insert(1, 5.0)
        assert pool.is_candidate(1e9)  # still not full
        pool.insert(2, 3.0)
        assert pool.is_candidate(4.9)
        assert not pool.is_candidate(5.0)
        assert not pool.is_candidate(6.0)

    def test_results_sorted_by_distance_then_tid(self):
        pool = ResultPool(4)
        pool.insert(9, 2.0)
        pool.insert(1, 2.0)
        pool.insert(5, 1.0)
        results = pool.results()
        assert [(e.distance, e.tid) for e in results] == [(1.0, 5), (2.0, 1), (2.0, 9)]

    def test_empty_pool(self):
        pool = ResultPool(2)
        assert pool.size() == 0
        assert pool.max_dist() is None
        assert pool.results() == []

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ResultPool(0)

    def test_many_inserts_keep_best_k(self):
        pool = ResultPool(5)
        for tid in range(100):
            pool.insert(tid, float(100 - tid))
        kept = sorted(e.distance for e in pool.results())
        assert kept == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestOrderIndependence:
    """Regression tests for the merge-order nondeterminism bug.

    The pool's final contents must be a pure function of the inserted
    multiset — the determinism contract the page-ordered refiner and the
    partitioned merge build on.  The old pool kept whichever
    equal-distance tuple arrived first, so merge order leaked into the
    answer.
    """

    def test_tie_eviction_prefers_smaller_tid(self):
        # Regression: a later-arriving equal-distance tuple with a smaller
        # tid must replace the worst member, not be dropped.
        pool = ResultPool(1)
        pool.insert(9, 2.0)
        assert pool.insert(1, 2.0)
        assert pool.results()[0].tid == 1

    def test_all_insertion_orders_converge(self):
        entries = [(7, 3.0), (2, 3.0), (5, 1.0), (9, 3.0), (4, 2.0)]
        expected = None
        for order in itertools.permutations(entries):
            pool = ResultPool(3)
            for tid, dist in order:
                pool.insert(tid, dist)
            got = [(e.distance, e.tid) for e in pool.results()]
            if expected is None:
                expected = got
            assert got == expected, f"order {order} diverged"
        assert expected == [(1.0, 5), (2.0, 4), (3.0, 2)]

    def test_tie_aware_is_candidate(self):
        pool = ResultPool(2)
        pool.insert(5, 3.0)
        pool.insert(8, 3.0)
        # Strict check (no tid): equal estimate is not a candidate.
        assert not pool.is_candidate(3.0)
        # Tie-aware: a smaller tid at the boundary distance still qualifies,
        # a larger one does not.
        assert pool.is_candidate(3.0, tid=7)
        assert not pool.is_candidate(3.0, tid=9)
        assert pool.is_candidate(2.9, tid=9)
