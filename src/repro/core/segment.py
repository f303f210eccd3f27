"""Columnar vector-list segments for the v3 filter kernel.

The paper's scanning pointer hands over one payload per ``MoveTo`` call.
Kernel v3 decodes a whole tuple-list block at a time instead: a scanner's
:meth:`~repro.core.scan.VectorListScanner.decode_segment` materialises
the block of one vector list into a **segment** — a columnar batch the
kernel can evaluate with array-wide gathers instead of per-entry Python
calls.

Two segment shapes cover every layout, at every code width:

* :class:`NumericSegment` — parallel ``codes``/``defined`` numpy arrays,
  one slot per tuple in the block (``codes`` is only meaningful where
  ``defined`` is True).  Codes are uint64, which holds every width from
  one to eight bytes.  Bounded array-wide by
  :meth:`repro.core.numeric.NumericQuantizer.lower_bound_array`.  The
  engine's null scanner (an attribute the index holds no list for)
  returns one with nothing defined.
* :class:`TextSegment` — a flat run of signatures: a ``slots`` column
  (non-decreasing, repeating when one tuple stores several strings) over
  a slice of a :class:`SignatureRun` (``lengths``/``words`` columns).
  Each signature's higher bits sit in one ``uint64`` word; the rare
  signature wider than eight bytes keeps its full bits beside the
  columns.  The kernel bounds a run with one array expression per term
  and min-reduces per slot.

Every segment can rebuild, via :meth:`column`, the per-element payloads
the ``move_to`` walk returns (``None`` for ndf, a slice code, or a list
of ``(stored_length, bits)`` pairs), so tests can compare a columnar
decode against the scalar one.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

#: Signatures at most this many bytes wide fit one ``uint64`` word.
WORD_BYTES = 8


class NumericSegment:
    """One block of a numeric vector list as ``codes``/``defined`` arrays."""

    __slots__ = ("codes", "defined")

    def __init__(self, codes, defined) -> None:
        #: uint64 array of quantizer codes (garbage where not defined).
        self.codes = codes
        #: bool array: True where the tuple stores a value for the attribute.
        self.defined = defined

    def column(self) -> List[Optional[int]]:
        codes = self.codes.tolist()
        defined = self.defined.tolist()
        return [codes[i] if defined[i] else None for i in range(len(codes))]

    def defined_count(self, count: int) -> int:
        return int(self.defined.sum())


class SignatureRun:
    """Signature columns, shared by every block cut from one parsed run.

    ``lengths[j]`` is the stored-length byte and ``words[j]`` the higher
    bits as a ``uint64`` — the whole signature when it is at most
    :data:`WORD_BYTES` wide.  A wider signature (α = 1.0, long strings)
    has its full bits in ``wide_bits[i]`` for ``wide_index[i] == j``, and
    its word is not used.  Every column is a numpy array (``wide_index``
    intp).  ``bounds`` is the kernel's memo: per compiled term, that
    term's bound for every signature, so a run is bounded once however
    many blocks slice it.
    """

    __slots__ = ("lengths", "words", "wide_index", "wide_bits", "bounds")

    def __init__(self, lengths, words, wide_index, wide_bits: List[int]) -> None:
        self.lengths = lengths
        self.words = words
        self.wide_index = wide_index
        self.wide_bits = wide_bits
        self.bounds: dict = {}

    def bits(self, lo: int, hi: int) -> List[int]:
        """Full higher bits of signatures ``lo:hi`` as Python ints."""
        bits = self.words[lo:hi].tolist()
        for i, j in enumerate(self.wide_index.tolist()):
            if lo <= j < hi:
                bits[j - lo] = self.wide_bits[i]
        return bits


class TextSegment:
    """One block of a text vector list as a flat run of signatures.

    The block's signatures are ``signatures[lo:hi]`` — a slice of a run
    the scanner parsed for several blocks at once, or a run of the
    block's own.  ``slots[j]`` is the block-local tuple index of the j-th
    of them; slots are non-decreasing, and repeat (``repeats``) only where
    one tuple stores several strings.
    """

    __slots__ = ("count", "slots", "signatures", "lo", "hi", "repeats", "unique_slots")

    def __init__(
        self,
        count: int,
        slots,
        signatures: SignatureRun,
        lo: int,
        hi: int,
        repeats: bool,
        unique_slots: Optional[int] = None,
    ) -> None:
        self.count = count
        self.slots = slots
        self.signatures = signatures
        self.lo = lo
        self.hi = hi
        self.repeats = repeats
        #: Distinct tuples that store at least one string (lazy).
        self.unique_slots = unique_slots

    @classmethod
    def from_pairs(
        cls,
        count: int,
        slots: List[int],
        lengths: List[int],
        bits: List[int],
        unique_slots: int,
        scheme,
    ) -> "TextSegment":
        """Build from per-signature lists of full ``bits`` (the varint walks).

        *scheme*'s higher-bit widths decide which signatures fit a word.
        """
        lengths = np.array(lengths, dtype=np.intp)
        wide = np.flatnonzero(scheme.higher_array[lengths] > WORD_BYTES)
        wide_bits = [bits[j] for j in wide.tolist()]
        if wide_bits:
            bits = list(bits)
            for j in wide.tolist():
                bits[j] = 0
        run = SignatureRun(lengths, np.array(bits, dtype=np.uint64), wide, wide_bits)
        repeats = unique_slots != len(slots)
        slots = np.array(slots, dtype=np.intp)
        return cls(count, slots, run, 0, len(slots), repeats, unique_slots)

    def column(self) -> list:
        column: list = [None] * self.count
        lengths = self.signatures.lengths[self.lo : self.hi].tolist()
        bits = self.signatures.bits(self.lo, self.hi)
        for j, slot in enumerate(self.slots.tolist()):
            pairs = column[slot]
            if pairs is None:
                pairs = []
                column[slot] = pairs
            pairs.append((lengths[j], bits[j]))
        return column

    def defined_count(self, count: int) -> int:
        unique = self.unique_slots
        if unique is None:
            slots = self.slots
            unique = len(slots)
            if self.repeats and unique:
                unique = 1 + int((slots[1:] != slots[:-1]).sum())
            self.unique_slots = unique
        return unique

