"""The temporary result pool of Algorithm 1 (paper Sec. IV-A).

Holds at most k ``<tid, dist>`` pairs.  ``max_dist`` is the largest actual
distance in the pool; a tuple is a candidate iff the pool is not yet full or
its *estimated* distance beats ``max_dist``.

Determinism contract: the pool's final contents are the k smallest
entries under the total order ``(distance, tid)`` — a pure function of the
*multiset* of inserted pairs, independent of insertion order.  The scalar
oracle refines in tid order, the v3 refiner in table-file page order, and
a partitioned search merges per-partition pools; all converge on identical
results because ties at the boundary are broken by tid, never by arrival
time.

:class:`BlockCandidacy` and :func:`block_candidates` are the one
per-tuple decision of Algorithm 1 (exact shortcut → pool candidacy →
profiler) that every engine loop calls, fed one evaluated block at a
time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core import fastpath
from repro.core.tuple_list import DELETED_PTR


@dataclass(frozen=True)
class PoolEntry:
    """One pool member: tid plus its actual distance."""
    tid: int
    distance: float


class ResultPool:
    """Bounded top-k pool ordered by ``(distance, tid)``."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        # Max-heap via negated keys: the root is the worst member under the
        # (distance, tid) order — largest distance, largest tid among ties.
        self._heap: List[Tuple[float, int]] = []

    def size(self) -> int:
        """Current number of members."""
        return len(self._heap)

    def is_full(self) -> bool:
        """True once k members are held."""
        return len(self._heap) >= self.k

    def max_dist(self) -> Optional[float]:
        """Largest actual distance in the pool, or None when empty."""
        if not self._heap:
            return None
        return -self._heap[0][0]

    def worst(self) -> Optional[Tuple[float, int]]:
        """The worst member as ``(distance, tid)``, or None when empty."""
        if not self._heap:
            return None
        neg_dist, neg_tid = self._heap[0]
        return (-neg_dist, -neg_tid)

    def is_candidate(self, estimated_distance: float, tid: Optional[int] = None) -> bool:
        """Line 10 of Algorithm 1: worth fetching from the table file?

        With *tid* given, the check is tie-aware: an estimate equal to the
        current ``max_dist`` still qualifies when the tid beats the worst
        member's tid — required for order-independent results when
        candidates are refined out of tid order (the page-ordered refiner
        may fill the pool with a larger tid first).  Without *tid* the
        classic strict comparison applies.
        """
        if not self.is_full():
            return True
        worst_dist = -self._heap[0][0]
        if estimated_distance < worst_dist:
            return True
        if tid is not None and estimated_distance == worst_dist:
            return tid < -self._heap[0][1]
        return False

    def insert(self, tid: int, distance: float) -> bool:
        """Insert a tuple with its *actual* distance.

        Returns True if the tuple entered the pool (and possibly evicted the
        current worst member under the ``(distance, tid)`` order).
        """
        if not self.is_full():
            heapq.heappush(self._heap, (-distance, -tid))
            return True
        worst_dist, worst_tid = -self._heap[0][0], -self._heap[0][1]
        if (distance, tid) < (worst_dist, worst_tid):
            heapq.heapreplace(self._heap, (-distance, -tid))
            return True
        return False

    def results(self) -> List[PoolEntry]:
        """Pool contents sorted by (distance, tid) ascending."""
        ordered = sorted((-neg_d, -neg_t) for neg_d, neg_t in self._heap)
        return [PoolEntry(tid=tid, distance=dist) for dist, tid in ordered]


def _beats(estimates, tids: Sequence[int], bound: Tuple[float, int]):
    """Mask of block slots whose ``(estimate, tid)`` sorts before *bound*."""
    distance, tid = bound
    mask = estimates < distance
    for slot in fastpath._np.flatnonzero(estimates == distance).tolist():
        mask[slot] = tids[slot] < tid
    return mask


class BlockCandidacy:
    """Algorithm 1's per-tuple decision for one pool, one block at a time.

    An exact tuple (every queried attribute ndf) enters the pool with its
    estimate; any other tuple is a candidate for refinement iff its
    ``(estimate, tid)`` beats the pool's worst member.

    :meth:`survivors` prefilters a whole block against the pool's worst
    member as it stands when the block starts.  The worst member only
    tightens, so a tuple that fails there would fail at its own
    turn too: a non-exact one is pruned and an exact one is a no-op
    ``insert``.  Those are tallied in bulk; the survivors then take
    :meth:`admit` one by one in tid order, so every decision and counter
    matches the per-tuple walk.  ``scanned`` and ``exact_shortcuts``
    count live tuples and exact inserts across both steps.
    """

    __slots__ = ("pool", "collector", "scanned", "exact_shortcuts")

    def __init__(self, pool: ResultPool, *, collector=None) -> None:
        self.pool = pool
        self.collector = collector
        self.scanned = 0
        self.exact_shortcuts = 0

    def survivors(
        self, tids: Sequence[int], ptrs: Optional[Sequence[int]], estimates, exact
    ) -> Iterator[Tuple[int, float, bool]]:
        """``(slot, estimated, exact)`` of the live slots that may change the pool.

        *ptrs* holds the block's tuple-list pointers (None: all live);
        tombstones carry ``DELETED_PTR = 2**64 - 1``, compared as uint64.
        Only numpy arrays (the v3 kernel's output) are prefiltered; list
        blocks pass every live slot through.
        """
        np = fastpath._np
        count = len(tids)
        tombstones = ptrs is not None and DELETED_PTR in ptrs
        if np is None or not isinstance(estimates, np.ndarray):
            slots = range(count)
            if tombstones:
                slots = [i for i in slots if ptrs[i] != DELETED_PTR]
            return ((i, estimates[i], exact[i]) for i in slots)
        if tombstones:
            keep = np.asarray(ptrs, dtype=np.uint64) != DELETED_PTR
        else:
            keep = np.ones(count, dtype=bool)
        pool = self.pool
        if pool.is_full():
            beats = _beats(estimates, tids, pool.worst())
            dropped = keep & ~beats
            n_dropped = int(np.count_nonzero(dropped))
            if n_dropped:
                n_exact = int(np.count_nonzero(dropped & exact))
                self.scanned += n_dropped
                self.exact_shortcuts += n_exact
                collector = self.collector
                if collector is not None:
                    collector.on_exact(n_exact)
                    collector.on_pruned(n_dropped - n_exact)
                keep &= beats
        slots = np.flatnonzero(keep)
        return zip(slots.tolist(), estimates[slots].tolist(), exact[slots].tolist())

    def admit(self, tid: int, estimated: float, exact: bool) -> bool:
        """One live tuple's decision; True when it is a refine candidate.

        Every call lands the tuple in exactly one funnel bucket of the
        collector: exact shortcut, pruned, or candidate.
        """
        self.scanned += 1
        collector = self.collector
        if exact:
            self.pool.insert(tid, estimated)
            self.exact_shortcuts += 1
            if collector is not None:
                collector.on_exact()
            return False
        if not self.pool.is_candidate(estimated, tid):
            if collector is not None:
                collector.on_pruned()
            return False
        if collector is not None:
            collector.on_candidate()
        return True


def block_candidates(
    candidacies: Sequence[BlockCandidacy],
    tids: Sequence[int],
    ptrs: Optional[Sequence[int]],
    evaluated: Sequence[Tuple[object, object]],
) -> Iterator[Tuple[int, int, float]]:
    """Run one evaluated block through every query's decision.

    *evaluated* holds one ``(estimates, exact)`` pair per candidacy.
    Yields ``(tid, query index, estimated)`` for each refine candidate in
    ``(tid, query)`` order — the per-tuple walk's order — and lazily, so
    whatever the caller does with a candidate (refine, enqueue) happens
    before the next decision.
    """
    if len(candidacies) == 1:
        candidacy = candidacies[0]
        estimates, exact = evaluated[0]
        survivors = candidacy.survivors(tids, ptrs, estimates, exact)
        for slot, estimated, is_exact in survivors:
            tid = tids[slot]
            if candidacy.admit(tid, estimated, is_exact):
                yield tid, 0, estimated
        return
    merged: dict = {}
    for qi, (candidacy, (estimates, exact)) in enumerate(zip(candidacies, evaluated)):
        survivors = candidacy.survivors(tids, ptrs, estimates, exact)
        for slot, estimated, is_exact in survivors:
            merged.setdefault(slot, []).append((qi, estimated, is_exact))
    for slot in sorted(merged):
        tid = tids[slot]
        for qi, estimated, is_exact in merged[slot]:
            if candidacies[qi].admit(tid, estimated, is_exact):
                yield tid, qi, estimated
