"""Columnar vector-list segments for the v3 filter kernel.

The paper's scanning pointer hands over one payload per ``MoveTo`` call.
Kernel v3 decodes a whole tuple-list block at a time instead: a scanner's
:meth:`~repro.core.scan.VectorListScanner.decode_segment` materialises
the block of one vector list into a **segment** — a columnar batch the
kernel can evaluate with array-wide gathers instead of per-entry Python
calls.

Three segment shapes cover every layout:

* :class:`NumericSegment` — parallel ``codes``/``defined`` numpy arrays,
  one slot per tuple in the block (``codes`` is only meaningful where
  ``defined`` is True).  Bounded array-wide by
  :meth:`repro.core.numeric.NumericQuantizer.lower_bound_array`.
* :class:`TextSegment` — a flat run of signatures as three parallel
  Python lists (``slots``/``lengths``/``bits``; ``slots`` is
  non-decreasing, repeating when one tuple stores several strings).  The
  kernel computes hit counts in one flat loop and min-reduces per slot
  with a single vectorized scatter.
* :class:`ColumnSegment` — a per-element payload column (``None`` for
  ndf, a slice code, or a list of ``(stored_length, bits)`` pairs).  The
  default ``decode_segment`` builds it from ``move_to``, so every scanner
  (third-party codecs, the engine's null scanner, numeric lists without
  numpy or with codes wider than four bytes) participates in the v3
  path; the kernel evaluates it with the exact scalar ``bound_column``
  routines, which keeps bit-identity trivially.

Every segment can rebuild that per-element column via :meth:`column`,
which is how the numpy-absent kernel evaluates it through
``evaluate_block``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import fastpath


class ColumnSegment:
    """A per-element payload column adapted from ``move_to`` (fallback)."""

    kind = "column"

    __slots__ = ("_column",)

    def __init__(self, column: list) -> None:
        self._column = column

    def column(self) -> list:
        return self._column

    def defined_count(self, count: int) -> int:
        return sum(1 for payload in self._column if payload is not None)


class NumericSegment:
    """One block of a numeric vector list as ``codes``/``defined`` arrays."""

    kind = "numeric"

    __slots__ = ("codes", "defined")

    def __init__(self, codes, defined) -> None:
        #: int64 array of quantizer codes (garbage where not defined).
        self.codes = codes
        #: bool array: True where the tuple stores a value for the attribute.
        self.defined = defined

    def column(self) -> List[Optional[int]]:
        codes = self.codes.tolist()
        defined = self.defined.tolist()
        return [codes[i] if defined[i] else None for i in range(len(codes))]

    def defined_count(self, count: int) -> int:
        return int(self.defined.sum())


class TextSegment:
    """One block of a text vector list as a flat run of signatures.

    ``slots[j]`` is the block-local tuple index of the j-th signature;
    slots are non-decreasing (a Type II tuple storing several strings
    repeats its slot).  ``lengths``/``bits`` carry the bare
    ``(stored_length, higher_bits)`` pairs :meth:`SignatureScheme.read_raw`
    produces, so the kernel's per-length mask tables apply unchanged.
    """

    kind = "text"

    __slots__ = ("count", "slots", "lengths", "bits", "unique_slots", "_slots_np")

    def __init__(
        self,
        count: int,
        slots: List[int],
        lengths: List[int],
        bits: List[int],
        unique_slots: int,
    ) -> None:
        self.count = count
        self.slots = slots
        self.lengths = lengths
        self.bits = bits
        #: Number of distinct tuples that store at least one string.
        self.unique_slots = unique_slots
        self._slots_np = None

    def slots_array(self):
        """The slots as an index array (cached; numpy must be present)."""
        if self._slots_np is None:
            np = fastpath._np
            self._slots_np = np.asarray(self.slots, dtype=np.intp)
        return self._slots_np

    def column(self) -> list:
        column: list = [None] * self.count
        for j, slot in enumerate(self.slots):
            pairs = column[slot]
            if pairs is None:
                pairs = []
                column[slot] = pairs
            pairs.append((self.lengths[j], self.bits[j]))
        return column

    def defined_count(self, count: int) -> int:
        return self.unique_slots
