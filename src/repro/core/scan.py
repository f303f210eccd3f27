"""Scanning pointers over vector lists (paper Sec. IV-A).

Query processing scans the tuple list and the vector lists of the queried
attributes "in a synchronized manner": each list has a scanning pointer; the
tuple list's pointer advances one element at a time, and each vector list's
pointer is asked to ``MoveTo(currentTuple)``.

Tid-based layouts (Types I and II) implement the paper's *freeze* semantics:
when the list holds no element for the current tuple, the pointer stops at
the next larger tid (or the list tail) and reports ndf until the current
tuple catches up.  Positional layouts (Types III and IV) consume exactly one
element per tuple-list element; identification is by position, so the engine
must call ``move_to`` once for every tuple-list element — including
tombstoned ones — in order.

``move_to`` returns the tuple's payload on the attribute:

* text lists — a list of :class:`~repro.core.signature.Signature`
  (empty ⇒ ndf, returned as ``None``),
* numeric lists — an ``int`` slice code, or ``None`` for ndf.

``move_to`` serves the scalar oracle.  The v3 kernel drives every scanner
through ``decode_segment`` instead, one tuple-list block per call, which
each layout implements natively: text runs become a
:class:`~repro.core.segment.TextSegment`, and numeric codes of any width
from one to eight bytes a uint64 :class:`~repro.core.segment.NumericSegment`
(:func:`_unpack_uints` cracks every width).

Raw text lists are runs of **columnar blocks** (:data:`TEXT_BLOCK_HEADER`
then the tid, count and stored-length columns and the packed signature
bits; see :func:`parse_text_blocks`).  Both entry points of a raw text
scanner read through one block reader, so they issue the same reads; the
columns of every complete block a read buffered are cracked with one set
of numpy calls.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.numeric import NumericQuantizer
from repro.core.segment import (
    WORD_BYTES,
    NumericSegment,
    SignatureRun,
    TextSegment,
)
from repro.core.signature import Signature, SignatureScheme
from repro.errors import IndexError_
from repro.storage.pager import BufferedReader

TID_BYTES = 4
NUM_BYTES = 1

#: Elements per skip-table segment for tid-based raw lists (Sec. IV-A prep
#: for skip-based MoveTo: coarse enough to keep the table tiny, fine enough
#: that a jump skips real decode work).  A raw Type I/II text block holds
#: exactly one segment, so skip offsets land on block heads.
SKIP_SEGMENT_ELEMENTS = 256

#: Head of every raw text block: ``<element count u16, body bytes u32>``.
#: The body length lets a reader step from block to block on headers alone.
TEXT_BLOCK_HEADER = struct.Struct("<HI")

_TYPE_III_SHORT = (
    "Type III vector list ran out of elements before the tuple list did — "
    "the index is inconsistent with its table"
)
_TYPE_IV_SHORT = (
    "Type IV vector list ran out of elements before the tuple list did — "
    "the index is inconsistent with its table"
)

#: Entries per bulk read when the raw Type I numeric segment decoder slurps
#: fixed-width ``<tid, code>`` records ahead of the scan cursor.
_SEG_READ_ENTRIES = 1024

#: The empty carry of a Type I numeric decoder.
_NO_TIDS = np.zeros(0, dtype=np.int64)
_NO_CODES = np.zeros(0, dtype=np.uint64)


class _ByteRun:
    """Scanner-local parse cursor over bulk reader chunks.

    What the raw text scanners read blocks through: instead of one
    :class:`BufferedReader` call per field, slurp large chunks into a
    local ``bytes`` object and parse every complete block in it at once.
    A chunk may end inside a block; the partial block parks here until
    the next refill completes it.
    """

    __slots__ = ("_reader", "buf", "pos")

    _CHUNK = 32 * 1024

    def __init__(self, reader: BufferedReader) -> None:
        self._reader = reader
        self.buf = b""
        self.pos = 0

    def logical_position(self) -> int:
        """Absolute offset of the next unparsed byte (reader minus carry)."""
        return self._reader.position - (len(self.buf) - self.pos)

    def exhausted(self) -> bool:
        return self.pos >= len(self.buf) and self._reader.exhausted()

    def ensure(self, length: int) -> None:
        """Buffer at least *length* unparsed bytes ahead of :attr:`pos`.

        A range too short to supply them raises the reader's own
        ``StorageError``.
        """
        have = len(self.buf) - self.pos
        if have >= length:
            return
        reader = self._reader
        need = length - have
        fetch = min(max(need, self._CHUNK), reader.remaining())
        if fetch < need:
            reader.read(need)  # raises: read past range end
        self.buf = self.buf[self.pos :] + reader.read(fetch)
        self.pos = 0

    def jump_to(self, offset: int) -> None:
        """Move the parse cursor to absolute *offset* (forward only)."""
        delta = offset - self.logical_position()
        if delta <= 0:
            return
        if delta <= len(self.buf) - self.pos:
            self.pos += delta
        else:
            self._reader.skip(offset - self._reader.position)
            self.buf = b""
            self.pos = 0


@dataclass(frozen=True)
class SkipTable:
    """Per-segment tid fences over a tid-based vector list.

    Built at index (re)build time from the raw codec's fixed-width
    arithmetic: the list is cut into runs of :data:`SKIP_SEGMENT_ELEMENTS`
    elements; ``first_tids[i]``/``last_tids[i]`` bound segment *i*'s tid
    range and ``offsets[i]`` is its absolute byte offset.  A frozen
    pointer whose pending tid trails the scan cursor can then jump over
    every segment whose tid range cannot intersect the cursor — the prep
    step the ROADMAP's Elias–Fano (skip-based MoveTo) item builds on.

    Skip tables are advisory: a missing or stale table (dropped on
    append) only costs the skip, never correctness.
    """

    first_tids: Sequence[int]
    last_tids: Sequence[int]
    offsets: Sequence[int]
    #: Exclusive end offset of the list (jump target when every segment
    #: falls short of the cursor).
    end_offset: int

    def seek_offset(self, target_tid: int, current_offset: int) -> Optional[int]:
        """Forward jump target skipping segments wholly below *target_tid*.

        Returns an absolute byte offset strictly greater than
        *current_offset*, or ``None`` when no whole segment ahead of the
        cursor can be skipped.
        """
        index = bisect_left(self.last_tids, target_tid)
        offset = (
            self.offsets[index] if index < len(self.offsets) else self.end_offset
        )
        if offset <= current_offset:
            return None
        return offset


class VectorListScanner:
    """Base scanning pointer; concrete layouts implement both entry points."""

    def __init__(self, reader: BufferedReader) -> None:
        self._reader = reader

    def move_to(self, tid: int):  # pragma: no cover - abstract
        """Advance the pointer to *tid*; see the class docstring."""
        raise NotImplementedError

    def decode_segment(self, tids):  # pragma: no cover - abstract
        """Advance through one block of tids, returning a decoded segment.

        The v3 kernel's decode API: one call per tuple-list block instead
        of one :meth:`move_to` per tuple.  *tids* is the block's int64 tid
        column, as the tuple-list feed yields it.  Returns a
        :class:`~repro.core.segment.NumericSegment` or
        :class:`~repro.core.segment.TextSegment` whose :meth:`column` is
        the payloads the :meth:`move_to` walk returns.  A list that ends
        short must fail as that walk does: the same exception type, on
        the same element.

        A scanner instance must be driven through *either* ``move_to``
        *or* ``decode_segment``, never a mix: columnar decoders may read
        ahead of the logical pointer and park the overshoot in
        segment-local state ``move_to`` does not consult.
        """
        raise NotImplementedError


# ------------------------------------------------------------ raw text


#: Zero bytes appended to a parsed buffer so word gathers never run off it.
_PAD = bytes(WORD_BYTES)

#: ``_WORD_MASKS[w]`` keeps the low *w* bytes of a gathered word.
_WORD_MASKS = np.array(
    [(1 << (8 * width)) - 1 for width in range(WORD_BYTES + 1)], dtype=np.uint64
)


def _unpack_uints(buf, count: int, width: int, offset: int = 0, stride: int = 0):
    """*count* little-endian unsigned ints of *width* (1 to 8) bytes, as uint64.

    One routine for every width, so a numeric code needs no numpy scalar
    type of its own: int *i* starts at byte ``offset + i * stride`` of
    *buf* (*stride* defaults to *width*, a packed column; a record field
    passes the record size).  Each is read as one unaligned eight-byte
    word and masked to its low *width* bytes, so *buf* is copied with
    :data:`_PAD` to keep the last word inside it.
    """
    data = b"".join((buf, _PAD))
    words = np.ndarray(
        (count,), dtype="<u8", buffer=data, offset=offset, strides=(stride or width,)
    )
    return words & _WORD_MASKS[width]


def _view(data, dtype: str):
    """Every byte offset of *data* read as one little-endian *dtype* value."""
    itemsize = np.dtype(dtype).itemsize
    return np.ndarray(
        (len(data) - itemsize + 1,), dtype=dtype, buffer=data, strides=(1,)
    )


def _signatures(buf, data, lengths, widths, bit_at) -> SignatureRun:
    """Signature columns from stored lengths and the offsets of their bits.

    *data* is ``buf`` plus :data:`_PAD` as a uint8 array.  One gather
    reads eight bytes at each bit offset as a word, and a per-width mask
    clears the bytes that belong to the next signature.
    """
    words = _view(data, "<u8")[bit_at]
    words &= _WORD_MASKS[np.minimum(widths, WORD_BYTES)]
    wide = np.flatnonzero(widths > WORD_BYTES)
    wide_bits = [
        int.from_bytes(buf[start : start + width], "little")
        for start, width in zip(bit_at[wide].tolist(), widths[wide].tolist())
    ]
    return SignatureRun(lengths, words, wide, wide_bits)


def _spans(firsts, count: int):
    """``(owner, local)`` of *count* items cut into runs starting at *firsts*.

    *firsts* holds each run's first item index plus the total (length
    runs + 1); item *i* lies in run ``owner[i]`` at index ``local[i]``.
    """
    owner = np.repeat(np.arange(len(firsts) - 1), np.diff(firsts))
    return owner, np.arange(count) - firsts[owner]


class TextBlocks:
    """Every complete raw text block parsed from one buffer, as columns.

    ``units`` elements came from the blocks whose headers sit at absolute
    list offsets ``heads``; block *b* starts at element ``firsts[b]``, and
    parsing stopped at buffer offset ``end``.  ``signatures`` holds every
    signature in list order.  Tid-based layouts carry ``unit_tids`` (each
    element's tid, int64); layouts with a count column carry ``first_sig``
    (element *j* owns signatures ``first_sig[j]:first_sig[j + 1]``) and
    ``sig_unit`` (the element of each signature) — in Type I element *j*
    is signature *j*, and both are ``None``.  ``repeats`` is True when a
    Type I tid repeats or an element stores several strings: only then
    can a segment's slots repeat.
    """

    __slots__ = (
        "units",
        "heads",
        "firsts",
        "end",
        "unit_tids",
        "first_sig",
        "sig_unit",
        "signatures",
        "repeats",
        "_scalar",
    )

    def sig_range(self, a: int, b: int):
        """The signatures ``lo:hi`` of elements ``a:b``."""
        first_sig = self.first_sig
        if first_sig is None:
            return a, b
        return int(first_sig[a]), int(first_sig[b])

    def sig_units(self, lo: int, hi: int):
        """The element of each signature ``lo:hi``."""
        if self.sig_unit is None:
            return np.arange(lo, hi)
        return self.sig_unit[lo:hi]

    def scalar(self, scheme: SignatureScheme):
        """``(tids, first_sig, signatures)`` as Python lists, built once.

        What ``move_to`` walks: element *j* has tid ``tids[j]`` (``None``
        for Type III) and the :class:`Signature` objects
        ``signatures[first_sig[j]:first_sig[j + 1]]``.
        """
        scalar = self._scalar
        if scalar is None:
            run = self.signatures
            count = len(run.lengths)
            make = scheme.signature
            signatures = list(map(make, run.lengths.tolist(), run.bits(0, count)))
            first_sig = (
                list(range(self.units + 1))
                if self.first_sig is None
                else self.first_sig.tolist()
            )
            tids = None if self.unit_tids is None else self.unit_tids.tolist()
            scalar = self._scalar = (tids, first_sig, signatures)
        return scalar


def _corrupt(base: int, heads, bad, what: str) -> IndexError_:
    head = base + heads[int(np.flatnonzero(bad)[0])]
    return IndexError_(f"raw text block at offset {head} is corrupt: {what}")


def parse_text_blocks(
    buf: bytes,
    pos: int,
    scheme: SignatureScheme,
    tidded: bool,
    counted: bool,
    base: int = 0,
) -> TextBlocks:
    """Parse every complete block of *buf* from offset *pos*.

    A block is :data:`TEXT_BLOCK_HEADER` ``(n, body bytes)`` and a body of
    the paper's element fields grouped by column: *n* u32 tids (Types I
    and II, *tidded*), *n* u8 string counts (Types II and III, *counted*;
    a Type I element holds one string), one stored-length byte per
    signature, then every signature's higher bits, packed at the widths
    the lengths imply.  Headers are walked in Python; the columns of all
    the complete blocks are then gathered with one set of numpy calls.
    *base* is the absolute list offset of ``buf[0]``.

    A body whose columns do not fill it exactly raises ``IndexError_``.
    """
    header = TEXT_BLOCK_HEADER.size
    unpack = TEXT_BLOCK_HEADER.unpack_from
    stop = len(buf)
    heads: List[int] = []
    elements: List[int] = []
    sizes: List[int] = []
    while pos + header <= stop:
        n, size = unpack(buf, pos)
        end = pos + header + size
        if end > stop:
            break
        heads.append(pos)
        elements.append(n)
        sizes.append(size)
        pos = end
    blocks = TextBlocks()
    blocks.heads = [base + head for head in heads]
    blocks.end = pos
    blocks._scalar = None
    data = np.frombuffer(b"".join((buf, _PAD)), dtype=np.uint8)
    n = np.array(elements, dtype=np.intp)
    col = np.array(heads, dtype=np.intp) + header
    body_end = col + np.array(sizes, dtype=np.intp)
    firsts = np.zeros(len(heads) + 1, dtype=np.intp)
    np.cumsum(n, out=firsts[1:])
    units = int(firsts[-1])
    blocks.units = units
    blocks.firsts = firsts[:-1].tolist()
    # Bytes per element before the bits: its tid and its count, or (Type I,
    # one string per element) its tid and its signature's length byte.
    fixed = (TID_BYTES if tidded else 0) + (NUM_BYTES if counted else 1)
    bad = col + fixed * n > body_end
    if bad.any():
        raise _corrupt(base, heads, bad, "its element columns overrun its body")
    owner, local = _spans(firsts, units)
    blocks.unit_tids = None
    if tidded:
        tids = _view(data, "<u4")[col[owner] + TID_BYTES * local]
        blocks.unit_tids = tids.astype(np.int64)
        col = col + TID_BYTES * n
    if counted:
        counts = data[col[owner] + local]
        col = col + n
        first_sig = np.zeros(units + 1, dtype=np.intp)
        np.cumsum(counts, out=first_sig[1:])
        sig_firsts = first_sig[firsts]
        bad = col + np.diff(sig_firsts) > body_end
        if bad.any():
            raise _corrupt(base, heads, bad, "its length column overruns its body")
        blocks.first_sig = first_sig
        blocks.sig_unit = np.repeat(np.arange(units), counts)
        blocks.repeats = bool((counts > 1).any())
    else:
        sig_firsts = firsts
        blocks.first_sig = blocks.sig_unit = None
        tids = blocks.unit_tids
        blocks.repeats = bool((tids[1:] == tids[:-1]).any())
    sig_owner, sig_local = _spans(sig_firsts, int(sig_firsts[-1]))
    lengths = data[col[sig_owner] + sig_local]
    widths = scheme.higher_array[lengths]
    bit_ends = np.zeros(len(widths) + 1, dtype=np.intp)
    np.cumsum(widths, out=bit_ends[1:])
    bits_col = col + np.diff(sig_firsts) - bit_ends[sig_firsts[:-1]]
    bad = bits_col + bit_ends[sig_firsts[1:]] != body_end
    if bad.any():
        raise _corrupt(base, heads, bad, "its signature bits do not fill its body")
    bit_at = bits_col[sig_owner] + bit_ends[:-1]
    blocks.signatures = _signatures(buf, data, lengths, widths, bit_at)
    return blocks


def _read_blocks(
    run: _ByteRun, scheme: SignatureScheme, tidded: bool, counted: bool
) -> Optional[TextBlocks]:
    """The next complete blocks of *run*, parsed; ``None`` at the list end.

    Reads the next block's header, then its body, then parses every
    complete block the buffer holds from there.
    """
    header = TEXT_BLOCK_HEADER.size
    while not run.exhausted():
        run.ensure(header)
        _, size = TEXT_BLOCK_HEADER.unpack_from(run.buf, run.pos)
        run.ensure(header + size)
        base = run.logical_position() - run.pos
        blocks = parse_text_blocks(run.buf, run.pos, scheme, tidded, counted, base)
        run.pos = blocks.end
        if blocks.units:
            return blocks
    return None


def _text_segment(count: int, pieces: list) -> TextSegment:
    """One block's :class:`TextSegment` from ``(blocks, lo, hi, slots, keep)``.

    A single piece whose signatures all land in the block slices its run;
    otherwise (the block crossed a refill, or skipped elements whose tid
    is not in the block) the kept signatures are copied into a run of the
    block's own.
    """
    if len(pieces) == 1 and pieces[0][4] is None:
        blocks, lo, hi, slots, _ = pieces[0]
        return TextSegment(count, slots, blocks.signatures, lo, hi, blocks.repeats)
    lengths = [np.empty(0, dtype=np.uint8)]
    words = [np.empty(0, dtype=np.uint64)]
    slot_parts = [np.empty(0, dtype=np.intp)]
    wide_index = [np.empty(0, dtype=np.intp)]
    wide_bits: List[int] = []
    offset = 0
    for blocks, lo, hi, slots, keep in pieces:
        run = blocks.signatures
        index = np.arange(lo, hi)
        if keep is not None:
            index = index[keep]
            slots = slots[keep]
        lengths.append(run.lengths[index])
        words.append(run.words[index])
        slot_parts.append(slots)
        if len(run.wide_index):
            local = np.flatnonzero(np.isin(index, run.wide_index))
            wide_index.append(local + offset)
            for i in run.wide_index.searchsorted(index[local]).tolist():
                wide_bits.append(run.wide_bits[i])
        offset += len(index)
    run = SignatureRun(
        np.concatenate(lengths),
        np.concatenate(words),
        np.concatenate(wide_index),
        wide_bits,
    )
    return TextSegment(count, np.concatenate(slot_parts), run, 0, offset, True)


class _TidTextScanner(VectorListScanner):
    """Freeze semantics over raw tid-based text blocks (Types I and II).

    The pointer is a cursor into the parsed blocks: the element at the
    cursor is the one the pointer is frozen at.  Once the first block is
    read, the cursor stays inside the parsed blocks, or the list is done
    (``_blocks`` is ``None``).  ``decode_segment`` first jumps the skip
    table's whole segments below the block; ``move_to`` walks.
    """

    _COUNTED = False

    def __init__(
        self,
        reader: BufferedReader,
        scheme: SignatureScheme,
        skip: Optional[SkipTable] = None,
    ) -> None:
        super().__init__(reader)
        self._scheme = scheme
        self._skip = skip
        self._run = _ByteRun(reader)
        self._blocks: Optional[TextBlocks] = None
        self._cursor = 0
        self._started = False

    def _next_blocks(self) -> Optional[TextBlocks]:
        blocks = self._blocks = _read_blocks(
            self._run, self._scheme, True, self._COUNTED
        )
        self._cursor = 0
        return blocks

    def _current(self) -> Optional[TextBlocks]:
        """The parsed blocks holding the pointer's element (None at the end)."""
        if not self._started:
            self._started = True
            return self._next_blocks()
        return self._blocks

    @property
    def pending_tid(self) -> Optional[int]:
        """The tid the pointer is frozen at (None at the list tail)."""
        blocks = self._current()
        return None if blocks is None else int(blocks.unit_tids[self._cursor])

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see the module docstring."""
        out: List[Signature] = []
        blocks = self._current()
        while blocks is not None:
            tids, first_sig, signatures = blocks.scalar(self._scheme)
            k = self._cursor
            units = blocks.units
            while k < units and tids[k] <= tid:
                if tids[k] == tid:
                    out.extend(signatures[first_sig[k] : first_sig[k + 1]])
                k += 1
            self._cursor = k
            if k < units:
                break
            blocks = self._next_blocks()
        return out or None

    def _seek(self, target_tid: int) -> Optional[TextBlocks]:
        """Jump over whole skip-table segments below *target_tid*.

        Every skipped element's tid is below the block's first tid, so the
        walk would have consumed it without producing a payload.  A jump
        target inside the parsed blocks moves the cursor; one past them
        moves the reader.  Returns the parsed blocks at the pointer.
        """
        skip = self._skip
        blocks = self._current()
        if skip is None or blocks is None:
            return blocks
        k = self._cursor
        if blocks.unit_tids[k] >= target_tid:
            return blocks
        heads = blocks.heads
        offset = skip.seek_offset(
            target_tid, heads[bisect_right(blocks.firsts, k) - 1]
        )
        if offset is None:
            return blocks
        if offset < self._run.logical_position():
            at = bisect_left(heads, offset)
            if at < len(heads) and heads[at] == offset:
                self._cursor = blocks.firsts[at]
            return blocks
        self._run.jump_to(offset)
        return self._next_blocks()

    def decode_segment(self, tids):
        """Columnar decode: the block's slice of the parsed blocks."""
        first = int(tids[0])
        last = int(tids[-1])
        blocks = self._seek(first)
        parts = []
        while blocks is not None:
            k = self._cursor
            stop = int(blocks.unit_tids.searchsorted(last, "right"))
            if stop > k:
                parts.append((blocks, k, stop))
                self._cursor = stop
            if stop < blocks.units:
                break
            blocks = self._next_blocks()
        count = len(tids)
        contiguous = last - first == count - 1
        pieces = []
        for blocks, a, b in parts:
            lo, hi = blocks.sig_range(a, b)
            sig_tids = blocks.unit_tids[blocks.sig_units(lo, hi)]
            keep = None
            if contiguous:
                slots = sig_tids - first
                if lo < hi and sig_tids[0] < first:
                    keep = slots >= 0
            else:
                slots = tids.searchsorted(sig_tids)
                found = tids[np.minimum(slots, count - 1)] == sig_tids
                if not found.all():
                    keep = found
            pieces.append((blocks, lo, hi, slots, keep))
        return _text_segment(count, pieces)


class TextTypeIScanner(_TidTextScanner):
    """Type I text layout: one ``<tid, vector>`` element per string, sorted
    by tid; consecutive elements repeat a tid for multi-string values."""


class TextTypeIIScanner(_TidTextScanner):
    """Type II text layout: one ``<tid, num, vector1, vector2, …>`` element
    per defined tuple."""

    _COUNTED = True


class TextTypeIIIScanner(VectorListScanner):
    """Type III text layout: positional ``<num, vectors…>`` for every tuple.

    Each call takes the next element(s) of the parsed blocks, reading the
    next blocks when the cursor reaches their end.
    """

    def __init__(self, reader: BufferedReader, scheme: SignatureScheme) -> None:
        super().__init__(reader)
        self._scheme = scheme
        self._run = _ByteRun(reader)
        self._blocks: Optional[TextBlocks] = None
        self._cursor = 0

    def _current(self) -> TextBlocks:
        """The parsed blocks with an element at the cursor."""
        blocks = self._blocks
        if blocks is None or self._cursor == blocks.units:
            blocks = self._blocks = _read_blocks(self._run, self._scheme, False, True)
            self._cursor = 0
            if blocks is None:
                raise IndexError_(_TYPE_III_SHORT)
        return blocks

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see the module docstring."""
        blocks = self._current()
        k = self._cursor
        self._cursor = k + 1
        _, first_sig, signatures = blocks.scalar(self._scheme)
        return signatures[first_sig[k] : first_sig[k + 1]] or None

    def decode_segment(self, tids):
        """Columnar decode: the next ``len(tids)`` elements of the parsed blocks."""
        count = len(tids)
        pieces = []
        done = 0
        while done < count:
            blocks = self._current()
            k = self._cursor
            take = min(count - done, blocks.units - k)
            lo, hi = blocks.sig_range(k, k + take)
            slots = blocks.sig_units(lo, hi) - (k - done)
            pieces.append((blocks, lo, hi, slots, None))
            self._cursor = k + take
            done += take
        return _text_segment(count, pieces)


# -------------------------------------------------------------- numeric


class NumericTypeIScanner(VectorListScanner):
    """Type I numeric layout: ``<tid, vector>`` per defined tuple.

    The pointer holds the *pending* element: its tid is read, its code not
    yet; the paper's freeze is the pointer waiting at that tid.
    """

    def __init__(
        self,
        reader: BufferedReader,
        quantizer: NumericQuantizer,
        skip: Optional[SkipTable] = None,
    ) -> None:
        super().__init__(reader)
        self._quantizer = quantizer
        self._skip = skip
        self._seg_tids = _NO_TIDS
        self._seg_codes = _NO_CODES
        self._pending: Optional[int] = None
        self._load_next()

    def _load_next(self) -> None:
        if self._reader.exhausted():
            self._pending = None
        else:
            self._pending = int.from_bytes(self._reader.read(TID_BYTES), "little")

    def _maybe_skip(self, target_tid: int) -> None:
        """Jump over whole segments that cannot intersect the scan cursor.

        Called with the block's first tid at the head of
        ``decode_segment``.  Every skipped element's tid is strictly below
        *target_tid*, so the scalar walk would have consumed it without
        producing a payload — the jump is free of semantics, it only
        spares the decode.
        """
        skip = self._skip
        if skip is None or self._pending is None or self._pending >= target_tid:
            return
        offset = skip.seek_offset(target_tid, self._reader.position - TID_BYTES)
        if offset is None:
            return
        self._reader.skip(offset - self._reader.position)
        self._pending = None
        self._load_next()

    @property
    def pending_tid(self) -> Optional[int]:
        """The tid the pointer is frozen at (None at the list tail)."""
        return self._pending

    def move_to(self, tid: int) -> Optional[int]:
        """Advance the pointer to *tid*; see the class docstring."""
        out: Optional[int] = None
        width = self._quantizer.vector_bytes
        while self._pending is not None and self._pending <= tid:
            code = self._quantizer.decode_bytes(self._reader.read(width))
            if self._pending == tid:
                out = code
            self._load_next()
        return out

    def decode_segment(self, tids):
        """Columnar decode: bulk ``<tid, code>`` record reads + searchsorted.

        Fixed-width entries let the decoder slurp :data:`_SEG_READ_ENTRIES`
        records per read and crack them with one ``frombuffer`` instead of
        two ``reader.read`` calls per entry.  Records read past the block's
        last tid are parked in a carry (``_seg_tids``/``_seg_codes``, int64
        and uint64 arrays) for the next block — which is why
        ``decode_segment`` must not be mixed with the scalar entry points
        on one scanner instance.
        """
        if not len(self._seg_tids):
            self._maybe_skip(int(tids[0]))
        width = self._quantizer.vector_bytes
        reader = self._reader
        carry_tids = self._seg_tids
        carry_codes = self._seg_codes
        last = int(tids[-1])
        # Fold the scalar pending element (tid consumed, code not) into the
        # carry so the bulk path owns the full lookahead state.
        if self._pending is not None:
            code = self._quantizer.decode_bytes(reader.read(width))
            carry_tids = np.append(carry_tids, np.int64(self._pending))
            carry_codes = np.append(carry_codes, np.uint64(code))
            self._pending = None
        entry_bytes = TID_BYTES + width
        while not reader.exhausted():
            if len(carry_tids) and carry_tids[-1] > last:
                break
            chunk = min(_SEG_READ_ENTRIES, reader.remaining() // entry_bytes)
            if chunk == 0:
                # Truncated final record: fail as the scalar walk does (tid
                # read, then a short code read raises).
                reader.read(TID_BYTES)
                reader.read(width)  # raises: fewer than `width` bytes left
            records = reader.read(chunk * entry_bytes)
            chunk_tids = _unpack_uints(records, chunk, TID_BYTES, 0, entry_bytes)
            chunk_codes = _unpack_uints(records, chunk, width, TID_BYTES, entry_bytes)
            carry_tids = np.concatenate((carry_tids, chunk_tids.astype(np.int64)))
            carry_codes = np.concatenate((carry_codes, chunk_codes))
        consumed = int(np.searchsorted(carry_tids, last, side="right"))
        self._seg_tids = carry_tids[consumed:]
        self._seg_codes = carry_codes[consumed:]
        count = len(tids)
        codes = np.zeros(count, dtype=np.uint64)
        defined = np.zeros(count, dtype=bool)
        if consumed:
            entry_tids = carry_tids[:consumed]
            positions = np.searchsorted(tids, entry_tids)
            matched = tids[positions] == entry_tids
            codes[positions[matched]] = carry_codes[:consumed][matched]
            defined[positions[matched]] = True
        return NumericSegment(codes, defined)


class NumericTypeIVScanner(VectorListScanner):
    """Type IV numeric layout: positional ``<vector>`` with a reserved ndf
    code, one element per tuple."""

    def __init__(self, reader: BufferedReader, quantizer: NumericQuantizer) -> None:
        super().__init__(reader)
        if quantizer.ndf_code is None:
            raise IndexError_("Type IV layout requires a reserved ndf code")
        self._quantizer = quantizer

    def move_to(self, tid: int) -> Optional[int]:
        """Advance the pointer to *tid*; see the class docstring."""
        if self._reader.exhausted():
            raise IndexError_(_TYPE_IV_SHORT)
        code = self._quantizer.decode_bytes(
            self._reader.read(self._quantizer.vector_bytes)
        )
        if code == self._quantizer.ndf_code:
            return None
        return code

    def decode_segment(self, tids):
        """Columnar decode: the whole block in one read + one unpack."""
        quantizer = self._quantizer
        width = quantizer.vector_bytes
        count = len(tids)
        reader = self._reader
        if reader.remaining() < count * width:
            # A short list fails on the element the scalar walk fails on:
            # the first one past the end, or a truncated final code.
            reader.skip(reader.remaining() // width * width)
            if reader.exhausted():
                raise IndexError_(_TYPE_IV_SHORT)
            reader.read(width)  # raises: a truncated final code
        codes = _unpack_uints(reader.read_view(count * width), count, width)
        return NumericSegment(codes, codes != quantizer.ndf_code)
