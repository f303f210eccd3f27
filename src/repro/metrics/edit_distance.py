"""Levenshtein edit distance.

"The minimum number of edit operations (insertions, deletions, and
substitutions) of single characters needed to transform the first string
into the second" (paper Sec. III-A, after Gravano et al.).

Three entry points:

* :func:`edit_distance`, the classic two-row dynamic program — the
  reference every faster routine is tested against;
* :class:`EditPattern` (built through :func:`compile_pattern`), which
  compiles one string once and then computes its exact distance to any
  other string with Myers' bit-parallel algorithm (Myers 1999, in
  Hyyrö's 2001 formulation) — the refine step's kernel;
* :func:`edit_distance_within`, a banded variant which gives up early once
  the distance provably exceeds a threshold (range search).
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

#: Compiled patterns kept by :func:`compile_pattern`.  Bounded, because a
#: long-lived process (the daemon, a library user) sees an open-ended
#: stream of query strings.
PATTERN_CACHE_SIZE = 4096


def edit_distance(s1: str, s2: str) -> int:
    """Classic two-row dynamic-programming Levenshtein distance."""
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    previous = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, start=1):
        current = [i]
        append = current.append
        for j, c2 in enumerate(s2, start=1):
            if c1 == c2:
                append(previous[j - 1])
            else:
                left = current[j - 1]
                up = previous[j]
                diag = previous[j - 1]
                best = diag if diag < up else up
                if left < best:
                    best = left
                append(best + 1)
        previous = current
    return previous[-1]


class EditPattern:
    """One string compiled for bit-parallel Levenshtein distance.

    Compilation maps each character of the pattern to the bitmask of the
    positions it occupies.  :meth:`distance` then keeps one DP column as
    two bit-vectors of vertical deltas (+1 / −1) and advances it by one
    text character in a constant number of integer operations, tracking
    the bottom cell — the edit distance — as it goes.  Python integers
    are unbounded, so a pattern of any length is one "word".
    """

    __slots__ = ("pattern", "_peq", "_mask", "_high")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        peq: Dict[str, int] = {}
        for i, ch in enumerate(pattern):
            peq[ch] = peq.get(ch, 0) | (1 << i)
        self._peq = peq
        self._mask = (1 << len(pattern)) - 1
        self._high = 1 << (len(pattern) - 1) if pattern else 0

    def distance(self, text: str) -> int:
        """Exact Levenshtein distance between the pattern and *text*."""
        if not self._high:
            return len(text)
        peq = self._peq
        mask = self._mask
        high = self._high
        pv = mask  # vertical +1 deltas: column 0 is 0, 1, ..., m
        mv = 0  # vertical -1 deltas
        score = len(self.pattern)
        get = peq.get
        for ch in text:
            eq = get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & high:
                score += 1
            elif mh & high:
                score -= 1
            # Row 0 is the empty pattern prefix: its horizontal delta is +1.
            ph = (ph << 1) | 1
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        return score


@functools.lru_cache(maxsize=PATTERN_CACHE_SIZE)
def compile_pattern(pattern: str) -> EditPattern:
    """The (cached) :class:`EditPattern` of *pattern*."""
    return EditPattern(pattern)


def edit_distance_within(s1: str, s2: str, threshold: int) -> Optional[int]:
    """Edit distance if it is ``<= threshold``, else ``None``.

    Runs the DP inside a diagonal band of half-width *threshold*, which is
    both sufficient for correctness and O(threshold · max(len)) time.
    """
    if threshold < 0:
        return None
    if s1 == s2:
        return 0
    len1, len2 = len(s1), len(s2)
    if abs(len1 - len2) > threshold:
        return None
    if len1 < len2:
        s1, s2, len1, len2 = s2, s1, len2, len1
    if not s2:
        return len1 if len1 <= threshold else None
    big = threshold + 1
    previous = [j if j <= threshold else big for j in range(len2 + 1)]
    for i in range(1, len1 + 1):
        lo = max(1, i - threshold)
        hi = min(len2, i + threshold)
        current = [big] * (len2 + 1)
        row_best = big
        if lo == 1 and i <= threshold:
            current[0] = i
            row_best = i
        c1 = s1[i - 1]
        for j in range(lo, hi + 1):
            if c1 == s2[j - 1]:
                cost = previous[j - 1]
            else:
                cost = min(previous[j - 1], previous[j], current[j - 1]) + 1
            if cost > big:
                cost = big
            current[j] = cost
            if cost < row_best:
                row_best = cost
        if row_best > threshold:
            return None
        previous = current
    result = previous[len2]
    return result if result <= threshold else None
