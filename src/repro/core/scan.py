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
"""

from __future__ import annotations

from bisect import bisect_left
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
#: that a jump skips real decode work).
SKIP_SEGMENT_ELEMENTS = 256

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

    What the raw text ``decode_segment``s parse through: instead of two
    :class:`BufferedReader` calls per signature (length byte, then bits),
    slurp large chunks into a local ``bytes`` object, parse every complete
    element in it at once and crack the fields with numpy gathers.  Chunks
    may overshoot the current block — the overshoot parks here between
    ``decode_segment`` calls, which is one of the reasons ``move_to`` and
    ``decode_segment`` must not be mixed on a single scanner instance.
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

    def drained(self) -> bool:
        """True when the reader holds nothing beyond :attr:`buf`."""
        return self._reader.exhausted()

    def ensure(self, length: int) -> None:
        """Buffer at least *length* unparsed bytes ahead of :attr:`pos`.

        A range too short to supply them raises the reader's own
        ``StorageError`` (the exact failure the scalar walk would hit).
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

    def decode_segment(self, tids: List[int]):  # pragma: no cover - abstract
        """Advance through one block of tids, returning a decoded segment.

        The v3 kernel's decode API: one call per tuple-list block instead
        of one :meth:`move_to` per tuple, returning a
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


class _TidBasedScanner(VectorListScanner):
    """Shared freeze-semantics machinery for Types I and II."""

    def __init__(
        self, reader: BufferedReader, skip: Optional[SkipTable] = None
    ) -> None:
        super().__init__(reader)
        self._skip = skip
        self._pending: Optional[int] = None
        self._load_next()

    def _load_next(self) -> None:
        if self._reader.exhausted():
            self._pending = None
        else:
            self._pending = int.from_bytes(self._reader.read(TID_BYTES), "little")

    def _maybe_skip(self, target_tid: int) -> None:
        """Jump over whole segments that cannot intersect the scan cursor.

        Called with the block's first tid at the head of the numeric
        ``decode_segment``.  Every skipped element's tid is strictly below
        *target_tid*, so the scalar walk would have consumed it without
        producing a payload — the jump is free of semantics, it only
        spares the decode.
        """
        skip = self._skip
        if skip is None or self._pending is None or self._pending >= target_tid:
            return
        offset = skip.seek_offset(target_tid, self._reader.position - TID_BYTES)
        if offset is None or offset <= self._reader.position - TID_BYTES:
            return
        self._reader.skip(offset - self._reader.position)
        self._pending = None
        self._load_next()

    @property
    def pending_tid(self) -> Optional[int]:
        """The tid the pointer is frozen at (None at the list tail)."""
        return self._pending



class _Parsed:
    """The complete elements one :class:`_ByteRun` buffer held, as columns.

    A raw text scanner parses everything its run has buffered in one pass
    and hands each tuple-list block a slice.  ``units`` elements were
    parsed, starting at buffer offsets ``starts`` and ending at ``end``
    (columns are numpy arrays: a run holds thousands of elements);
    ``signatures`` holds their signatures in list order.  Tid-based layouts
    carry ``unit_tids`` (each element's tid) and ``tail`` (the look-ahead
    tid read after the last element, ``None`` at the list end); layouts
    that store a count per element carry ``first_sig`` (element *j* owns
    signatures ``first_sig[j]:first_sig[j + 1]``) and ``sig_unit`` (the
    element of each signature).  ``repeats`` is True when an element of a
    Type I run repeats its predecessor's tid or an element stores several
    strings — only then can a block's slots repeat.
    """

    __slots__ = (
        "units",
        "starts",
        "end",
        "signatures",
        "repeats",
        "unit_tids",
        "tail",
        "first_sig",
        "sig_unit",
    )

    def __init__(self, starts, end: int, signatures) -> None:
        self.units = len(starts)
        self.starts = starts
        self.end = end
        self.signatures = signatures
        self.repeats = False
        self.unit_tids = None
        self.tail: Optional[int] = None
        self.first_sig = None
        self.sig_unit = None


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


def _signatures(buf: bytes, data, at, scheme) -> SignatureRun:
    """Signature columns for the length bytes at offsets *at* of *buf*.

    *data* is ``buf`` plus :data:`_PAD` as a uint8 array.  One gather
    reads the lengths, one reads eight bytes after each as a word, and a
    per-width mask clears the bytes that belong to the next field.
    """
    lengths = data[at]
    widths = scheme.higher_array[lengths]
    words = _view(data, "<u8")[at + 1]
    words &= _WORD_MASKS[np.minimum(widths, WORD_BYTES)]
    wide = np.flatnonzero(widths > WORD_BYTES)
    wide_bits = [
        int.from_bytes(buf[start + 1 : start + 1 + width], "little")
        for start, width in zip(at[wide].tolist(), widths[wide].tolist())
    ]
    return SignatureRun(lengths, words, wide, wide_bits)


def _counted(parsed: _Parsed, data, unit_at, sig_at) -> None:
    """Fill ``first_sig``/``sig_unit`` from each element's count byte."""
    counts = data[unit_at]
    first = np.zeros(parsed.units + 1, dtype=np.intp)
    np.cumsum(counts, out=first[1:])
    parsed.first_sig = first
    parsed.sig_unit = np.repeat(np.arange(parsed.units, dtype=np.intp), counts)
    parsed.repeats = bool((counts > 1).any())


def _tidded(parsed: _Parsed, buf: bytes, data, unit_at, pending, final) -> None:
    """Fill ``unit_tids``/``tail``: each element's tid precedes its payload."""
    unit_tids = np.empty(parsed.units, dtype=np.int64)
    if parsed.units:
        unit_tids[0] = pending
        unit_tids[1:] = _view(data, "<u4")[unit_at[1:] - TID_BYTES]
        end = parsed.end
        if not final:
            pending = int.from_bytes(buf[end - TID_BYTES : end], "little")
        else:
            pending = None
    parsed.unit_tids = unit_tids
    parsed.tail = pending


def _text_segment(count: int, pieces: list) -> TextSegment:
    """One block's :class:`TextSegment` from ``(parsed, lo, hi, slots, keep)``.

    A single piece whose signatures all land in the block slices its run;
    otherwise (the block crossed a refill, or skipped elements whose tid
    is not in the block) the kept signatures are copied into a run of the
    block's own.
    """
    if len(pieces) == 1 and pieces[0][4] is None:
        parsed, lo, hi, slots, _ = pieces[0]
        return TextSegment(count, slots, parsed.signatures, lo, hi, parsed.repeats)
    lengths = [np.empty(0, dtype=np.uint8)]
    words = [np.empty(0, dtype=np.uint64)]
    slot_parts = [np.empty(0, dtype=np.intp)]
    wide_index = [np.empty(0, dtype=np.intp)]
    wide_bits: List[int] = []
    offset = 0
    for parsed, lo, hi, slots, keep in pieces:
        run = parsed.signatures
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


def _top_up_signatures(run: _ByteRun, table, size: int, count: int) -> int:
    """Issue the scalar walk's reads for *count* signatures at ``pos + size``.

    Returns the element size so far.  Each ``ensure`` asks for exactly the
    bytes the field-by-field walk asks for at that field, so a refill
    happens at the same field and fetches the same size.
    """
    for _ in range(count):
        run.ensure(size + 1)
        size += 1 + table[run.buf[run.pos + size]]
        run.ensure(size)
    return size


def _walk_counted(run: _ByteRun, table, tail: int):
    """Offsets of every complete ``<num, vectors…>`` element the run holds.

    Each element is followed by *tail* look-ahead bytes (the next tid of
    Type II; none for Type III) that must be buffered too, except after
    the list's last element.  Returns ``(starts, sig_starts, end, final)``:
    element and signature offsets, where parsing stopped, and whether the
    last element ends the list.
    """
    buf = run.buf
    end = len(buf)
    s = run.pos
    starts: List[int] = []
    sig_starts: List[int] = []
    append = starts.append
    append_sig = sig_starts.append
    final = False
    while s < end:
        left = buf[s]
        q = s + NUM_BYTES
        while left and q < end:
            append_sig(q)
            q += 1 + table[buf[q]]
            left -= 1
        if left or q + tail > end:
            if tail and not left and q == end and run.drained():
                append(s)
                s = q
                final = True
            else:
                taken = buf[s] - left
                if taken:
                    del sig_starts[-taken:]
            break
        append(s)
        s = q + tail
    return starts, sig_starts, s, final


class _TidTextScanner(_TidBasedScanner):
    """Run parsing shared by the tid-based raw text layouts (Types I, II).

    ``decode_segment`` parses every complete element its
    :class:`_ByteRun` holds in one pass (:meth:`_parse`) and each block
    takes the elements whose tid it covers.  When a block needs the
    element that straddles the buffered bytes, :meth:`_top_up` issues the
    same reads the scalar walk would at that element — the refill happens
    in the same block, for the same size — and the new buffer is parsed.
    """

    def __init__(
        self,
        reader: BufferedReader,
        scheme: SignatureScheme,
        skip: Optional[SkipTable] = None,
    ) -> None:
        self._scheme = scheme
        self._run: Optional[_ByteRun] = None
        self._parsed: Optional[_Parsed] = None
        self._cursor = 0
        super().__init__(reader, skip)

    def _parse(self, pending: Optional[int]) -> _Parsed:  # pragma: no cover
        """Parse the run from its position; *pending* is the tid just read.

        ``None`` means the list is done; the run then holds no byte past
        its position, so the parse finds no element.
        """
        raise NotImplementedError

    def _top_up(self) -> None:  # pragma: no cover
        """Buffer the element at the run's position, as the scalar walk reads it."""
        raise NotImplementedError

    def _signature_tids(self, parsed: _Parsed, a: int, b: int):
        """``(lo, hi, tids)``: the signatures of elements ``a:b`` and their tids."""
        raise NotImplementedError  # pragma: no cover

    def _reparse(self, pending: Optional[int]) -> _Parsed:
        parsed = self._parsed = self._parse(pending)
        self._cursor = 0
        return parsed

    def _parsed_for(self, target_tid: int) -> _Parsed:
        """The parsed run at the block head, after any skip-table jump.

        The first call folds the scalar ``_pending`` (tid read, payload
        not) into the run.  A skip table jumps the cursor over whole
        segments below *target_tid* exactly where the scalar walk would,
        before any payload byte is fetched.
        """
        parsed = self._parsed
        if parsed is None:
            self._run = _ByteRun(self._reader)
            pending = self._pending
            self._pending = None
            parsed = self._reparse(pending)
        skip = self._skip
        if skip is None:
            return parsed
        k = self._cursor
        pending = int(parsed.unit_tids[k]) if k < parsed.units else parsed.tail
        if pending is None or pending >= target_tid:
            return parsed
        run = self._run
        # Stand where the scalar walk stands: just past the pending tid.
        run.pos = int(parsed.starts[k]) if k < parsed.units else parsed.end
        offset = skip.seek_offset(target_tid, run.logical_position() - TID_BYTES)
        if offset is None:
            run.pos = parsed.end
            return parsed
        run.jump_to(offset)
        if run.exhausted():
            pending = None
        else:
            run.ensure(TID_BYTES)
            at = run.pos
            pending = int.from_bytes(run.buf[at : at + TID_BYTES], "little")
            run.pos = at + TID_BYTES
        return self._reparse(pending)

    def decode_segment(self, tids: List[int]):
        """Columnar decode: the block's slice of the parsed run."""
        parsed = self._parsed_for(tids[0])
        last = tids[-1]
        parts = []
        while True:
            k = self._cursor
            if k < parsed.units:
                stop = int(parsed.unit_tids.searchsorted(last, "right"))
                if stop > k:
                    parts.append((parsed, k, stop))
                    self._cursor = stop
                if stop < parsed.units:
                    break
            if parsed.tail is None or parsed.tail > last:
                break
            self._top_up()
            parsed = self._reparse(parsed.tail)
        count = len(tids)
        first = tids[0]
        block = None
        if tids[-1] - first != count - 1:
            block = np.array(tids, dtype=np.int64)
        pieces = []
        for parsed, a, b in parts:
            lo, hi, sig_tids = self._signature_tids(parsed, a, b)
            keep = None
            if block is None:
                slots = sig_tids - first
                if lo < hi and sig_tids[0] < first:
                    keep = slots >= 0
            else:
                slots = block.searchsorted(sig_tids)
                found = block[np.minimum(slots, count - 1)] == sig_tids
                if not found.all():
                    keep = found
            pieces.append((parsed, lo, hi, slots, keep))
        return _text_segment(count, pieces)


class TextTypeIScanner(_TidTextScanner):
    """Type I text layout: ``<tid, vector>`` per string, sorted by tid;
    consecutive elements may repeat a tid for multi-string values."""

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see the class docstring."""
        out: List[Signature] = []
        while self._pending is not None and self._pending <= tid:
            signature = self._scheme.read(self._reader)
            if self._pending == tid:
                out.append(signature)
            self._load_next()
        return out or None

    def _parse(self, pending: Optional[int]) -> _Parsed:
        """Parse every complete ``<vector, next tid>`` the run holds."""
        run = self._run
        buf = run.buf
        end = len(buf)
        s = run.pos
        table = self._scheme.higher_table
        starts: List[int] = []
        append = starts.append
        final = False
        while s < end:
            p = s + 1 + table[buf[s]]
            if p + TID_BYTES > end:
                if p == end and run.drained():
                    append(s)
                    s = p
                    final = True
                break
            append(s)
            s = p + TID_BYTES
        run.pos = s
        data = np.frombuffer(buf + _PAD, dtype=np.uint8)
        at = np.array(starts, dtype=np.intp)
        parsed = _Parsed(at, s, _signatures(buf, data, at, self._scheme))
        _tidded(parsed, buf, data, at, pending, final)
        tids = parsed.unit_tids
        parsed.repeats = bool((tids[1:] == tids[:-1]).any())
        return parsed

    def _top_up(self) -> None:
        run = self._run
        size = _top_up_signatures(run, self._scheme.higher_table, 0, 1)
        if run.pos + size < len(run.buf) or not run.drained():
            run.ensure(size + TID_BYTES)

    def _signature_tids(self, parsed: _Parsed, a: int, b: int):
        return a, b, parsed.unit_tids[a:b]


class TextTypeIIScanner(_TidTextScanner):
    """Type II text layout: ``<tid, num, vector1, vector2, …>``."""

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see the class docstring."""
        out: List[Signature] = []
        while self._pending is not None and self._pending <= tid:
            count = self._reader.read(NUM_BYTES)[0]
            signatures = [self._scheme.read(self._reader) for _ in range(count)]
            if self._pending == tid:
                out.extend(signatures)
            self._load_next()
        return out or None

    def _parse(self, pending: Optional[int]) -> _Parsed:
        """Parse every complete ``<num, vectors…, next tid>`` the run holds.

        ``<tid, 0>`` elements are never written, but one would parse as an
        element without signatures, so it never counts as defined.
        """
        run = self._run
        buf = run.buf
        starts, sig_starts, s, final = _walk_counted(
            run, self._scheme.higher_table, TID_BYTES
        )
        run.pos = s
        data = np.frombuffer(buf + _PAD, dtype=np.uint8)
        at = np.array(starts, dtype=np.intp)
        sig_at = np.array(sig_starts, dtype=np.intp)
        parsed = _Parsed(at, s, _signatures(buf, data, sig_at, self._scheme))
        _counted(parsed, data, at, sig_at)
        _tidded(parsed, buf, data, at, pending, final)
        return parsed

    def _top_up(self) -> None:
        run = self._run
        run.ensure(NUM_BYTES)
        size = _top_up_signatures(
            run, self._scheme.higher_table, NUM_BYTES, run.buf[run.pos]
        )
        if run.pos + size < len(run.buf) or not run.drained():
            run.ensure(size + TID_BYTES)

    def _signature_tids(self, parsed: _Parsed, a: int, b: int):
        lo = parsed.first_sig[a]
        hi = parsed.first_sig[b]
        return lo, hi, parsed.unit_tids[parsed.sig_unit[lo:hi]]


class TextTypeIIIScanner(VectorListScanner):
    """Type III text layout: positional ``<num, vectors…>`` for every tuple.

    ``decode_segment`` parses a run at a time like the
    tid-based layouts (see :class:`_TidTextScanner`); each block takes
    the next ``len(tids)`` elements.
    """

    def __init__(self, reader: BufferedReader, scheme: SignatureScheme) -> None:
        super().__init__(reader)
        self._scheme = scheme
        self._run: Optional[_ByteRun] = None
        self._parsed: Optional[_Parsed] = None
        self._cursor = 0

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see the class docstring."""
        if self._reader.exhausted():
            raise IndexError_(_TYPE_III_SHORT)
        count = self._reader.read(NUM_BYTES)[0]
        if count == 0:
            return None
        return [self._scheme.read(self._reader) for _ in range(count)]

    def _parse(self) -> _Parsed:
        """Parse every complete ``<num, vectors…>`` the run holds."""
        run = self._run
        buf = run.buf
        starts, sig_starts, s, _ = _walk_counted(run, self._scheme.higher_table, 0)
        run.pos = s
        data = np.frombuffer(buf + _PAD, dtype=np.uint8)
        at = np.array(starts, dtype=np.intp)
        sig_at = np.array(sig_starts, dtype=np.intp)
        parsed = _Parsed(at, s, _signatures(buf, data, sig_at, self._scheme))
        _counted(parsed, data, at, sig_at)
        self._parsed = parsed
        self._cursor = 0
        return parsed

    def _top_up(self) -> None:
        run = self._run
        if run.exhausted():
            raise IndexError_(_TYPE_III_SHORT)
        run.ensure(NUM_BYTES)
        _top_up_signatures(run, self._scheme.higher_table, NUM_BYTES, run.buf[run.pos])

    def decode_segment(self, tids: List[int]):
        """Columnar decode: the next ``len(tids)`` elements of the parsed run."""
        parsed = self._parsed
        if parsed is None:
            self._run = _ByteRun(self._reader)
            parsed = self._parse()
        count = len(tids)
        pieces = []
        done = 0
        while True:
            k = self._cursor
            take = min(count - done, parsed.units - k)
            if take:
                lo = parsed.first_sig[k]
                hi = parsed.first_sig[k + take]
                slots = parsed.sig_unit[lo:hi] - (k - done)
                pieces.append((parsed, lo, hi, slots, None))
                self._cursor = k + take
                done += take
            if done == count:
                break
            self._top_up()
            parsed = self._parse()
        return _text_segment(count, pieces)


class NumericTypeIScanner(_TidBasedScanner):
    """Type I numeric layout: ``<tid, vector>`` per defined tuple."""

    def __init__(
        self,
        reader: BufferedReader,
        quantizer: NumericQuantizer,
        skip: Optional[SkipTable] = None,
    ) -> None:
        self._quantizer = quantizer
        self._seg_tids = _NO_TIDS
        self._seg_codes = _NO_CODES
        super().__init__(reader, skip)

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

    def decode_segment(self, tids: List[int]):
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
            self._maybe_skip(tids[0])
        width = self._quantizer.vector_bytes
        reader = self._reader
        carry_tids = self._seg_tids
        carry_codes = self._seg_codes
        last = tids[-1]
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
            block_tids = np.asarray(tids, dtype=np.int64)
            positions = np.searchsorted(block_tids, entry_tids)
            matched = block_tids[positions] == entry_tids
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

    def decode_segment(self, tids: List[int]):
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
