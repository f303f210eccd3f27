"""The nG-signature: approximate string representation (paper Sec. III-B).

A signature ``c(s)`` has two parts:

* ``cL(s)`` — the lower bits recording the string length (one byte here;
  lengths saturate at 255, which only ever *lowers* the estimate and so
  preserves the no-false-negative guarantee);
* ``cH[l, t](s)`` — ``l`` higher bits, the logical OR of ``h[l, t](ω)`` over
  all n-grams ω of ``s``, where the hash ``h[l, t]`` always sets exactly
  ``t`` of ``l`` bits (Example 3.2).

Given a query string the edit distance is estimated from the *hit gram set*
(Defs. 3.1–3.3, Eq. 3); Prop. 3.3 shows ``est(sq, c(sd)) ≤ ed(sq, sd)``.

Sizing follows Sec. III-D: for relative vector length α, the higher bits of
a data string of stored length ``L`` occupy ``ceil(α · (L + n − 1))`` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ngram import estimate_from_hits, gram_multiset
from repro.core.params import optimal_t
from repro.errors import EncodingError
from repro.model.values import MAX_ENCODED_STRING_LENGTH
from repro.storage.pager import BufferedReader

_MASK64 = (1 << 64) - 1


def _fnv1a64(data: bytes) -> int:
    """FNV-1a: a small, stable, dependency-free 64-bit hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 sequence — a 64-bit bijection, so the
    position stream derived from it cannot get stuck in a short cycle."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_MASK_CACHE: Dict[Tuple[str, int, int], int] = {}
_MASK_CACHE_LIMIT = 1 << 20


if hasattr(int, "bit_count"):  # Python >= 3.10

    def _mask_popcount(mask_count: Tuple[int, int]) -> int:
        """Sort key for query gram masks: the mask's population count."""
        return mask_count[0].bit_count()

else:  # pragma: no cover - exercised only on older interpreters

    def _mask_popcount(mask_count: Tuple[int, int]) -> int:
        """Sort key for query gram masks: the mask's population count."""
        return bin(mask_count[0]).count("1")


def gram_mask(gram: str, l_bits: int, t: int) -> int:
    """``h[l, t](ω)``: an ``l``-bit vector with exactly ``t`` one bits.

    Deterministic across runs and processes (no reliance on Python's
    randomised ``hash``).  Cached: real deployments pre-compute gram hashes,
    and the query loop evaluates the same grams millions of times.
    """
    key = (gram, l_bits, t)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        return cached
    if not 0 < t < l_bits:
        raise EncodingError(f"need 0 < t < l, got t={t} l={l_bits}")
    x = _fnv1a64(gram.encode("utf-8")) ^ (l_bits * 0x9E3779B9 + t)
    positions = set()
    guard = 64 * (t + 1)
    while len(positions) < t and guard:
        x = _splitmix64(x)
        positions.add(x % l_bits)
        guard -= 1
    # Astronomically unlikely fallback; keeps the function total and
    # deterministic even for adversarial parameters.
    fill = 0
    while len(positions) < t:
        positions.add(fill % l_bits)
        fill += 1
    mask = 0
    for pos in positions:
        mask |= 1 << pos
    if len(_MASK_CACHE) >= _MASK_CACHE_LIMIT:
        _MASK_CACHE.clear()
    _MASK_CACHE[key] = mask
    return mask


@dataclass(frozen=True)
class Signature:
    """An encoded nG-signature: stored length plus the higher-bit vector."""

    length: int
    l_bits: int
    t: int
    bits: int

    @property
    def byte_size(self) -> int:
        """Serialized size: one length byte plus the higher bits."""
        return 1 + self.l_bits // 8

    def to_bytes(self) -> bytes:
        """Serialize: length byte then the higher bits."""
        return bytes([self.length]) + self.bits.to_bytes(self.l_bits // 8, "little")


class SignatureScheme:
    """Factory bound to ``(α, n)``: encodes, sizes, and deserialises.

    The scheme is the *reader's* contract: given only a stored length byte
    and the attribute's α and n, it derives the higher-bit width ``l`` and
    the hash's ``t`` — so signatures are self-describing inside a vector
    list without per-vector headers.
    """

    def __init__(self, alpha: float, n: int) -> None:
        if not 0 < alpha <= 1:
            raise EncodingError(f"relative vector length α must be in (0, 1], got {alpha}")
        if n < 1:
            raise EncodingError(f"gram length n must be >= 1, got {n}")
        self.alpha = alpha
        self.n = n
        self._higher_table: Optional[List[int]] = None
        self._higher_array = None
        self._parameters: Dict[int, Tuple[int, int]] = {}

    @property
    def higher_table(self) -> List[int]:
        """``higher_bytes`` for every possible stored-length byte, cached.

        The segment decoders parse thousands of signatures per block; a
        256-entry table turns the per-signature ``ceil`` into one index.
        """
        table = self._higher_table
        if table is None:
            table = self._higher_table = [
                self.higher_bytes(length) for length in range(256)
            ]
        return table

    @property
    def higher_array(self):
        """:attr:`higher_table` as a numpy index array."""
        array = self._higher_array
        if array is None:
            array = self._higher_array = np.array(self.higher_table, dtype=np.intp)
        return array

    def stored_length(self, s: str) -> int:
        """The (saturating) length recorded in cL."""
        return min(len(s), MAX_ENCODED_STRING_LENGTH)

    def higher_bytes(self, stored_length: int) -> int:
        """``ceil(α · (|sd| + n − 1))`` bytes (Sec. III-D), at least 1."""
        grams = stored_length + self.n - 1
        return max(1, math.ceil(self.alpha * grams))

    def parameters_for(self, stored_length: int) -> Tuple[int, int]:
        """``(l_bits, t)`` for a data string of this stored length."""
        l_bits = 8 * self.higher_bytes(stored_length)
        t = optimal_t(l_bits, stored_length + self.n - 1)
        return l_bits, t

    def encode(self, s: str) -> Signature:
        """Encode a data string into its nG-signature."""
        if not s:
            raise EncodingError("cannot encode an empty string")
        stored = self.stored_length(s)
        l_bits, t = self.parameters_for(stored)
        bits = 0
        for gram in gram_multiset(s, self.n):
            bits |= gram_mask(gram, l_bits, t)
        return Signature(length=stored, l_bits=l_bits, t=t, bits=bits)

    def vector_byte_size(self, s: str) -> int:
        """Serialized size of the signature of *s* without encoding it."""
        return 1 + self.higher_bytes(self.stored_length(s))

    def signature(self, stored: int, bits: int) -> Signature:
        """The :class:`Signature` with stored length *stored* and higher *bits*.

        What the columnar readers build ``move_to`` payloads with; the
        ``(l_bits, t)`` of each stored length is derived once per scheme.
        """
        parameters = self._parameters.get(stored)
        if parameters is None:
            parameters = self._parameters[stored] = self.parameters_for(stored)
        return Signature(stored, parameters[0], parameters[1], bits)

    def read(self, reader: BufferedReader) -> Signature:
        """Deserialise one signature from a buffered scan."""
        stored = reader.read(1)[0]
        l_bits, t = self.parameters_for(stored)
        raw = reader.read(l_bits // 8)
        return Signature(
            length=stored, l_bits=l_bits, t=t, bits=int.from_bytes(raw, "little")
        )

    def read_from_bytes(self, buffer: bytes, offset: int) -> Tuple[Signature, int]:
        """Deserialise one signature from a byte buffer; returns (sig, end)."""
        stored = buffer[offset]
        l_bits, t = self.parameters_for(stored)
        nbytes = l_bits // 8
        end = offset + 1 + nbytes
        bits = int.from_bytes(buffer[offset + 1 : end], "little")
        return Signature(length=stored, l_bits=l_bits, t=t, bits=bits), end

    def read_raw(self, reader: BufferedReader) -> Tuple[int, int]:
        """Deserialise one signature as a bare ``(stored_length, bits)`` pair.

        The compressed codec's ``decode_segment`` path: skips both the
        :class:`Signature` object construction and the ``optimal_t`` lookup
        per vector — the kernel re-derives ``(l_bits, t)`` once per distinct
        stored length instead of once per signature.
        """
        stored = reader.read(1)[0]
        raw = reader.read(self.higher_bytes(stored))
        return stored, int.from_bytes(raw, "little")


class QueryStringEncoder:
    """Query-side evaluator of ``est(sq, c(sd))`` (Eq. 3).

    Pre-computes the query's gram multiset once, and caches per-``(l, t)``
    gram masks — different data-string lengths induce different signature
    geometries, but the handful of short-string lengths in an SWT means the
    cache converges immediately.
    """

    def __init__(self, query_string: str, n: int) -> None:
        if not query_string:
            raise EncodingError("cannot build an encoder for an empty string")
        self.query_string = query_string
        self.n = n
        self.query_length = len(query_string)
        self._grams = list(gram_multiset(query_string, n).items())
        self._mask_cache: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    @property
    def grams(self) -> List[Tuple[str, int]]:
        """The query's ``(gram, count)`` multiset in one fixed order."""
        return self._grams

    def _masks(self, l_bits: int, t: int) -> List[Tuple[int, int]]:
        key = (l_bits, t)
        masks = self._mask_cache.get(key)
        if masks is None:
            masks = [
                (gram_mask(gram, l_bits, t), count) for gram, count in self._grams
            ]
            # Most-selective mask first: a signature that misses any gram
            # rejects fastest on the mask with the most one bits (hit counts
            # are order-independent sums, so the ordering is free).  The
            # sort is stable, so equal-popcount masks keep gram order and
            # the result stays deterministic.
            masks.sort(key=_mask_popcount, reverse=True)
            self._mask_cache[key] = masks
        return masks

    @property
    def total_grams(self) -> int:
        """``|g(sq)|`` — the query's gram count (the hit count's ceiling)."""
        return self.query_length + self.n - 1

    def masks_for(self, l_bits: int, t: int) -> List[Tuple[int, int]]:
        """The query's ``(mask, count)`` pairs for one signature geometry.

        Most-selective (highest popcount) mask first; cached per
        ``(l_bits, t)``.  Shared with the filter kernel so both paths
        test exactly the same masks in the same order.
        """
        return self._masks(l_bits, t)

    def hit_count(self, signature: Signature) -> int:
        """``|hg(sq, c(sd))|`` — Def. 3.3, with appearance counts."""
        bits = signature.bits
        total = 0
        for mask, count in self._masks(signature.l_bits, signature.t):
            if mask & bits == mask:
                total += count
        return total

    def estimate(self, signature: Signature) -> float:
        """``est(sq, c(sd))`` — Eq. 3; may be negative."""
        hits = self.hit_count(signature)
        return estimate_from_hits(self.query_length, signature.length, hits, self.n)

    def lower_bound(self, signature: Signature) -> float:
        """The usable edit-distance lower bound: ``max(0, est)``."""
        est = self.estimate(signature)
        return est if est > 0.0 else 0.0
