"""The temporary result pool of Algorithm 1 (paper Sec. IV-A).

Holds at most k ``<tid, dist>`` pairs.  ``max_dist`` is the largest actual
distance in the pool; a tuple is a candidate iff the pool is not yet full or
its *estimated* distance beats ``max_dist``.

Determinism contract: the pool's final contents are the k smallest
entries under the total order ``(distance, tid)`` — a pure function of the
*multiset* of inserted pairs, independent of insertion order.  The scalar
oracle refines in tid order, v3 in ``(estimate, tid)`` order, and a
partitioned search merges per-partition pools; all converge on identical
results because ties at the boundary are broken by tid, never by arrival
time.

:class:`BlockCandidacy` holds one query's filter decisions: tuple by
tuple for the scalar walk (Algorithm 1), or a whole evaluated block at a
time for v3's two-phase search, whose survivors it then hands over
best-first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

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
        candidates are refined out of tid order (v3's best-first phase
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


class BlockCandidacy:
    """One query's filter decisions against its pool.

    An exact tuple (every queried attribute ndf) enters the pool with its
    estimate; any other tuple is a candidate for refinement while its
    ``(estimate, tid)`` beats the pool's worst member.  The worst member
    only tightens, so a tuple that fails once can never enter the final
    top-k (its actual distance is at least its estimate).

    * :meth:`admit` decides one tuple; the scalar walk refines each
      candidate at once (Algorithm 1).
    * :meth:`add_block` is phase 1 of v3's two-phase search, array-wide
      per block: the block's exact tuples enter the pool (only its best
      ``k`` can matter), then every other live tuple is prefiltered
      against the pool's worst member, and the survivors are kept as
      ``(estimate, tid)`` arrays.  No row is refined during the scan.
    * :meth:`best_first` is phase 2: the survivors in ``(estimate, tid)``
      order, each handed over only while it still beats the pool.  The
      caller refines each before asking for the next, so the pool
      tightens between rows, and the first survivor that fails ends the
      phase: every later one sorts after it.

    Funnel: every live tuple counts once in ``scanned`` and in one of the
    collector's exact / pruned / candidate buckets; survivors left when
    phase 2 stops count as late-pruned.
    """

    __slots__ = ("pool", "collector", "scanned", "exact_shortcuts", "_survivors")

    def __init__(self, pool: ResultPool, *, collector=None) -> None:
        self.pool = pool
        self.collector = collector
        self.scanned = 0
        self.exact_shortcuts = 0
        #: Phase-1 survivors, one ``(estimates, tids)`` pair per block.
        self._survivors: list = []

    def admit(self, tid: int, estimated: float, exact: bool) -> bool:
        """One live tuple's decision; True when it is a refine candidate."""
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

    def add_block(
        self, tids: Sequence[int], ptrs: Optional[Sequence[int]], estimates, exact
    ) -> None:
        """Phase 1 over one evaluated block.

        *ptrs* holds the block's tuple-list pointers, or None when it has
        no tombstones (``DELETED_PTR = 2**64 - 1``, compared as uint64).
        *estimates* and *exact* are the kernel's float64 and bool arrays.

        When the pool is already full, every live tuple is prefiltered
        against its worst member as the block starts.  Otherwise the
        block's exact tuples enter first and the rest is prefiltered
        against the pool as they leave it.
        """
        first = tids[0]
        if tids[-1] - first == len(tids) - 1:
            # The tuple list ascends by tid, so this block is a tid run.
            tid_array = np.arange(first, first + len(tids), dtype=np.int64)
        else:
            tid_array = np.asarray(tids, dtype=np.int64)
        if ptrs is not None:
            live = np.asarray(ptrs, dtype=np.uint64) != DELETED_PTR
            exact = exact & live
            rest = live ^ exact
            n_live = int(np.count_nonzero(live))
        else:
            rest = ~exact
            n_live = len(tids)
        n_exact = int(np.count_nonzero(exact))
        self.scanned += n_live
        self.exact_shortcuts += n_exact
        pool = self.pool
        full = pool.is_full()
        if full:
            beats = _beats(estimates, tid_array, pool.worst())
            rest &= beats
            if n_exact:
                exact = exact & beats
        if n_exact:
            slots = np.flatnonzero(exact)
            if len(slots) > pool.k:
                order = np.lexsort((tid_array[slots], estimates[slots]))
                slots = slots[order[: pool.k]]
            for tid, estimated in zip(
                tid_array[slots].tolist(), estimates[slots].tolist()
            ):
                pool.insert(tid, estimated)
            if not full and pool.is_full():
                rest &= _beats(estimates, tid_array, pool.worst())
        kept = int(np.count_nonzero(rest))
        if kept:
            self._survivors.append((estimates[rest], tid_array[rest]))
        self._count(n_exact, n_live - n_exact - kept, kept)

    def _count(self, exact: int, pruned: int, candidates: int) -> None:
        collector = self.collector
        if collector is not None:
            collector.on_exact(exact)
            collector.on_pruned(pruned)
            collector.on_candidate(candidates)

    def best_first(self) -> Iterator[Tuple[int, float]]:
        """Phase 2: ``(tid, estimated)`` per survivor still worth refining.

        Survivors come in ``(estimate, tid)`` order until the first one
        that fails the pool's re-check; it and every later one count as
        late-pruned.  Only the best :data:`RANK_CHUNK` survivors are
        sorted at a time (a refine usually stops within them), each chunk
        cut at an estimate so no tie straddles two.
        """
        chunks, self._survivors = self._survivors, []
        if not chunks:
            return
        ranked = _ranked_arrays(
            np.concatenate([e for e, _ in chunks]),
            np.concatenate([t for _, t in chunks]),
        )
        total = sum(len(e) for e, _ in chunks)
        handed = 0
        pool = self.pool
        for estimated, tid in ranked:
            if not pool.is_candidate(estimated, tid):
                break
            handed += 1
            yield tid, estimated
        if self.collector is not None:
            self.collector.on_late_pruned(total - handed)


#: Survivors :meth:`BlockCandidacy.best_first` sorts per step; doubles
#: each time a refine runs past a chunk.
RANK_CHUNK = 256


def _ranked_arrays(estimates, tids) -> Iterator[Tuple[float, int]]:
    """``(estimate, tid)`` pairs in ascending order, a chunk at a time.

    *tids* ascend (phase 1 keeps scan order), so a stable sort on the
    estimates alone is the ``(estimate, tid)`` order.
    """
    chunk = RANK_CHUNK
    while len(estimates):
        if len(estimates) > chunk:
            cut = np.partition(estimates, chunk)[chunk]
            head = estimates < cut
            if not head.any():
                head = estimates == cut
        else:
            head = None
        part_e = estimates if head is None else estimates[head]
        part_t = tids if head is None else tids[head]
        order = np.argsort(part_e, kind="stable")
        yield from zip(part_e[order].tolist(), part_t[order].tolist())
        if head is None:
            return
        estimates, tids = estimates[~head], tids[~head]
        chunk *= 2


def _beats(estimates, tids, bound: Tuple[float, int]):
    """Mask of the slots whose ``(estimate, tid)`` sorts before *bound*."""
    distance, tid = bound
    mask = estimates < distance
    ties = estimates == distance
    if ties.any():
        mask |= ties & (tids < tid)
    return mask
