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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import fastpath
from repro.core.numeric import NumericQuantizer
from repro.core.segment import ColumnSegment, NumericSegment, TextSegment
from repro.core.signature import Signature, SignatureScheme
from repro.errors import IndexError_
from repro.storage.pager import BufferedReader

TID_BYTES = 4
NUM_BYTES = 1

#: Elements per skip-table segment for tid-based raw lists (Sec. IV-A prep
#: for skip-based MoveTo: coarse enough to keep the table tiny, fine enough
#: that a jump skips real decode work).
SKIP_SEGMENT_ELEMENTS = 256

#: Entries per bulk read when the raw Type I numeric segment decoder slurps
#: fixed-width ``<tid, code>`` records ahead of the scan cursor.
_SEG_READ_ENTRIES = 1024


class _ByteRun:
    """Scanner-local parse cursor over bulk reader chunks.

    What the raw text ``decode_segment``s parse through, with or without
    numpy: instead of two :class:`BufferedReader` calls per signature
    (length byte, then bits), slurp large chunks into a local ``bytes``
    object and crack fields with plain indexing.  Chunks may overshoot
    the current block — the overshoot parks here between
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
class ResumePoint:
    """Everything a fresh scanner needs to resume a scan mid-list.

    The fixed-width (``raw``) layouts resume from a byte offset alone, but
    delta-coded lists (``repro.codec.compressed``) store each element
    relative to its predecessor, so a resume point also carries:

    * ``prev_key`` — the decoding base at the offset: the last tid decoded
      before it (tid-based layouts) or the last *defined* tuple position
      (compressed positional layouts); ``-1`` at the list head;
    * ``position`` — the tuple-list element position the scan stands at,
      which positional layouts need to re-anchor their element counter.
    """

    offset: int = 0
    prev_key: int = -1
    position: int = 0


#: Resume point for a scan starting at the head of a list.
START = ResumePoint()


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
    """Base scanning pointer; concrete layouts override :meth:`move_to`."""

    def __init__(self, reader: BufferedReader) -> None:
        self._reader = reader

    def move_to(self, tid: int):  # pragma: no cover - abstract
        """Advance the pointer to *tid*; see the class docstring."""
        raise NotImplementedError

    def decode_segment(self, tids: List[int]):
        """Advance through one block of tids, returning a decoded segment.

        The v3 kernel's decode API: one call per tuple-list block instead
        of one :meth:`move_to` per tuple, returning a
        :mod:`repro.core.segment` object the kernel evaluates array-wide.
        This default adapts :meth:`move_to` into a
        :class:`~repro.core.segment.ColumnSegment` — one payload per tid,
        text signatures flattened to bare ``(stored_length, bits)`` pairs,
        ndf as ``None`` — so any scanner (third-party codecs included)
        participates in the v3 path with scalar-identical results.  The
        built-in layouts override it with columnar decoders and call back
        here only for what those cannot vectorise.

        A scanner instance must be driven through *either* ``move_to``
        *or* ``decode_segment``, never a mix: columnar decoders may read
        ahead of the logical pointer and park the overshoot in
        segment-local state ``move_to`` does not consult.
        """
        column: List[object] = []
        for tid in tids:
            payload = self.move_to(tid)
            if type(payload) is list:
                payload = [(sig.length, sig.bits) for sig in payload]
            column.append(payload)
        return ColumnSegment(column)

    def checkpoint_offset(self) -> int:
        """Byte offset at which a fresh scanner resumes this pointer's state.

        Recorded *between* ``move_to`` calls: the offset points at the start
        of the next unconsumed list element, so a scanner constructed with
        this offset as its reader start continues the scan exactly where
        this one stands.  ``repro.parallel`` uses these as shard entry
        points (one sequential planning pass records a checkpoint per shard
        boundary; shard workers then scan only their own slice).
        """
        return self._reader.position

    def checkpoint(self, position: int = 0) -> ResumePoint:
        """Full resume state at the current pointer position.

        *position* is the tuple-list element position the scan stands at
        (the scanner itself does not track it for fixed-width layouts; the
        planner passes it in).  Codec scanners that need a decoding base
        override this to fill ``prev_key``.
        """
        return ResumePoint(offset=self.checkpoint_offset(), position=position)


class _TidBasedScanner(VectorListScanner):
    """Shared freeze-semantics machinery for Types I and II."""

    def __init__(
        self, reader: BufferedReader, skip: Optional[SkipTable] = None
    ) -> None:
        super().__init__(reader)
        self._skip = skip
        self._pending: Optional[int] = None
        # Columnar-decode carry: the bulk parse cursor plus the tid it
        # has parsed but not yet consumed (decode_segment only).
        self._run: Optional[_ByteRun] = None
        self._seg_pending: Optional[int] = None
        self._load_next()

    def _load_next(self) -> None:
        if self._reader.exhausted():
            self._pending = None
        else:
            self._pending = int.from_bytes(self._reader.read(TID_BYTES), "little")

    def _maybe_skip(self, target_tid: int) -> None:
        """Jump over whole segments that cannot intersect the scan cursor.

        Called at the head of the numeric ``decode_segment`` (columnar and
        ``move_to`` fallback alike) with the block's first tid.  Every
        skipped element's tid is strictly below *target_tid*, so the scalar
        walk would have consumed it without producing a payload — the jump
        is free of semantics, it only spares the decode.
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

    def _segment_run(self, target_tid: int):
        """Bulk parse cursor + pending tid for the columnar text decoders.

        First call folds the scalar ``_pending`` (tid read, payload not)
        into run-local state; later calls resume from the carry.  A skip
        table, when present, jumps the cursor over whole segments below
        *target_tid* before any payload is parsed.
        """
        run = self._run
        if run is None:
            run = self._run = _ByteRun(self._reader)
            pending = self._pending
            self._pending = None
        else:
            pending = self._seg_pending
        skip = self._skip
        if skip is not None and pending is not None and pending < target_tid:
            offset = skip.seek_offset(
                target_tid, run.logical_position() - TID_BYTES
            )
            if offset is not None:
                run.jump_to(offset)
                if run.exhausted():
                    pending = None
                else:
                    run.ensure(TID_BYTES)
                    at = run.pos
                    pending = int.from_bytes(
                        run.buf[at : at + TID_BYTES], "little"
                    )
                    run.pos = at + TID_BYTES
        return run, pending

    @property
    def pending_tid(self) -> Optional[int]:
        """The tid the pointer is frozen at (None at the list tail)."""
        return self._pending

    def checkpoint_offset(self) -> int:
        """Start of the pending element (its tid bytes are re-read on resume)."""
        if self._pending is None:
            return self._reader.position
        return self._reader.position - TID_BYTES


class TextTypeIScanner(_TidBasedScanner):
    """Type I text layout: ``<tid, vector>`` per string, sorted by tid;
    consecutive elements may repeat a tid for multi-string values."""

    def __init__(
        self,
        reader: BufferedReader,
        scheme: SignatureScheme,
        skip: Optional[SkipTable] = None,
    ) -> None:
        self._scheme = scheme
        super().__init__(reader, skip)

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see the class docstring."""
        out: List[Signature] = []
        while self._pending is not None and self._pending <= tid:
            signature = self._scheme.read(self._reader)
            if self._pending == tid:
                out.append(signature)
            self._load_next()
        return out or None

    def decode_segment(self, tids: List[int]):
        """Columnar decode: one flat signature run, bulk-parsed.

        Signatures are cracked out of :class:`_ByteRun` chunks with plain
        indexing — no per-field reader calls — so the dominant cost is
        the Python loop itself, not buffered-read bookkeeping.
        """
        run, pending = self._segment_run(tids[0])
        table = self._scheme.higher_table
        slots: List[int] = []
        lengths: List[int] = []
        bits: List[int] = []
        unique = 0
        for i, tid in enumerate(tids):
            first = True
            while pending is not None and pending <= tid:
                run.ensure(1)
                nbytes = table[run.buf[run.pos]]
                run.ensure(1 + nbytes)
                buf = run.buf
                at = run.pos
                if pending == tid:
                    if first:
                        unique += 1
                        first = False
                    slots.append(i)
                    lengths.append(buf[at])
                    bits.append(
                        int.from_bytes(buf[at + 1 : at + 1 + nbytes], "little")
                    )
                run.pos = at + 1 + nbytes
                if run.exhausted():
                    pending = None
                else:
                    run.ensure(TID_BYTES)
                    buf = run.buf
                    at = run.pos
                    pending = int.from_bytes(buf[at : at + TID_BYTES], "little")
                    run.pos = at + TID_BYTES
        self._seg_pending = pending
        return TextSegment(len(tids), slots, lengths, bits, unique)


class TextTypeIIScanner(_TidBasedScanner):
    """Type II text layout: ``<tid, num, vector1, vector2, …>``."""

    def __init__(
        self,
        reader: BufferedReader,
        scheme: SignatureScheme,
        skip: Optional[SkipTable] = None,
    ) -> None:
        self._scheme = scheme
        super().__init__(reader, skip)

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

    def decode_segment(self, tids: List[int]):
        """Columnar decode: one flat signature run, bulk-parsed."""
        run, pending = self._segment_run(tids[0])
        table = self._scheme.higher_table
        slots: List[int] = []
        lengths: List[int] = []
        bits: List[int] = []
        unique = 0
        for i, tid in enumerate(tids):
            first = True
            while pending is not None and pending <= tid:
                run.ensure(NUM_BYTES)
                count = run.buf[run.pos]
                run.pos += NUM_BYTES
                take = pending == tid
                # ``<tid, 0>`` elements are never written, but guard
                # anyway: an empty element must not count as defined.
                if take and first and count:
                    unique += 1
                    first = False
                for _ in range(count):
                    run.ensure(1)
                    nbytes = table[run.buf[run.pos]]
                    run.ensure(1 + nbytes)
                    buf = run.buf
                    at = run.pos
                    if take:
                        slots.append(i)
                        lengths.append(buf[at])
                        bits.append(
                            int.from_bytes(
                                buf[at + 1 : at + 1 + nbytes], "little"
                            )
                        )
                    run.pos = at + 1 + nbytes
                if run.exhausted():
                    pending = None
                else:
                    run.ensure(TID_BYTES)
                    buf = run.buf
                    at = run.pos
                    pending = int.from_bytes(buf[at : at + TID_BYTES], "little")
                    run.pos = at + TID_BYTES
        self._seg_pending = pending
        return TextSegment(len(tids), slots, lengths, bits, unique)


class TextTypeIIIScanner(VectorListScanner):
    """Type III text layout: positional ``<num, vectors…>`` for every tuple."""

    def __init__(self, reader: BufferedReader, scheme: SignatureScheme) -> None:
        super().__init__(reader)
        self._scheme = scheme
        self._run: Optional[_ByteRun] = None

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see the class docstring."""
        if self._reader.exhausted():
            raise IndexError_(
                "Type III vector list ran out of elements before the tuple "
                "list did — the index is inconsistent with its table"
            )
        count = self._reader.read(NUM_BYTES)[0]
        if count == 0:
            return None
        return [self._scheme.read(self._reader) for _ in range(count)]

    def decode_segment(self, tids: List[int]):
        """Columnar decode: one flat signature run, bulk-parsed."""
        run = self._run
        if run is None:
            run = self._run = _ByteRun(self._reader)
        table = self._scheme.higher_table
        slots: List[int] = []
        lengths: List[int] = []
        bits: List[int] = []
        unique = 0
        for i in range(len(tids)):
            if run.exhausted():
                raise IndexError_(
                    "Type III vector list ran out of elements before the "
                    "tuple list did — the index is inconsistent with its table"
                )
            run.ensure(NUM_BYTES)
            count = run.buf[run.pos]
            run.pos += NUM_BYTES
            if count:
                unique += 1
                for _ in range(count):
                    run.ensure(1)
                    nbytes = table[run.buf[run.pos]]
                    run.ensure(1 + nbytes)
                    buf = run.buf
                    at = run.pos
                    slots.append(i)
                    lengths.append(buf[at])
                    bits.append(
                        int.from_bytes(buf[at + 1 : at + 1 + nbytes], "little")
                    )
                    run.pos = at + 1 + nbytes
        return TextSegment(len(tids), slots, lengths, bits, unique)


class NumericTypeIScanner(_TidBasedScanner):
    """Type I numeric layout: ``<tid, vector>`` per defined tuple."""

    def __init__(
        self,
        reader: BufferedReader,
        quantizer: NumericQuantizer,
        skip: Optional[SkipTable] = None,
    ) -> None:
        self._quantizer = quantizer
        self._seg_tids: List[int] = []
        self._seg_codes: List[int] = []
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
        last tid are parked in a carry (``_seg_tids``/``_seg_codes``) for
        the next block — which is why ``decode_segment`` must not be mixed
        with the scalar entry points on one scanner instance.
        """
        if not self._seg_tids:
            self._maybe_skip(tids[0])
        width = self._quantizer.vector_bytes
        dtype_code = fastpath.segment_dtype(width)
        if dtype_code is None:
            return super().decode_segment(tids)
        np = fastpath._np
        reader = self._reader
        carry_tids = self._seg_tids
        carry_codes = self._seg_codes
        last = tids[-1]
        # Fold the scalar pending element (tid consumed, code not) into the
        # carry so the bulk path owns the full lookahead state.
        if self._pending is not None:
            carry_tids.append(self._pending)
            carry_codes.append(self._quantizer.decode_bytes(reader.read(width)))
            self._pending = None
        entry_bytes = TID_BYTES + width
        entry_dtype = getattr(self, "_entry_dtype", None)
        if entry_dtype is None:
            entry_dtype = np.dtype(
                [("tid", "<u4"), ("code", dtype_code)], align=False
            )
            self._entry_dtype = entry_dtype
        while (not carry_tids or carry_tids[-1] <= last) and not reader.exhausted():
            chunk = min(_SEG_READ_ENTRIES, reader.remaining() // entry_bytes)
            if chunk == 0:
                # Truncated final record: replicate the scalar walk's
                # failure mode (tid read, then a short code read raises).
                self._pending = int.from_bytes(reader.read(TID_BYTES), "little")
                carry_tids.append(self._pending)
                carry_codes.append(
                    self._quantizer.decode_bytes(reader.read(width))
                )
                self._pending = None
                continue
            records = np.frombuffer(reader.read(chunk * entry_bytes), entry_dtype)
            carry_tids.extend(records["tid"].tolist())
            carry_codes.extend(records["code"].tolist())
        consumed = bisect_right(carry_tids, last)
        count = len(tids)
        codes = np.zeros(count, dtype=np.int64)
        defined = np.zeros(count, dtype=bool)
        if consumed:
            entry_tids = np.asarray(carry_tids[:consumed], dtype=np.int64)
            entry_codes = np.asarray(carry_codes[:consumed], dtype=np.int64)
            del carry_tids[:consumed]
            del carry_codes[:consumed]
            block_tids = np.asarray(tids, dtype=np.int64)
            positions = np.searchsorted(block_tids, entry_tids)
            matched = block_tids[positions] == entry_tids
            codes[positions[matched]] = entry_codes[matched]
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
            raise IndexError_(
                "Type IV vector list ran out of elements before the tuple "
                "list did — the index is inconsistent with its table"
            )
        code = self._quantizer.decode_bytes(
            self._reader.read(self._quantizer.vector_bytes)
        )
        if code == self._quantizer.ndf_code:
            return None
        return code

    def decode_segment(self, tids: List[int]):
        """Columnar decode: the whole block in one read + one frombuffer."""
        quantizer = self._quantizer
        width = quantizer.vector_bytes
        dtype_code = fastpath.segment_dtype(width)
        count = len(tids)
        reader = self._reader
        if dtype_code is None or reader.remaining() < count * width:
            # The short-list case falls back so a truncated final segment
            # fails element-by-element exactly like the scalar walk.
            return super().decode_segment(tids)
        np = fastpath._np
        raw = reader.read_view(count * width)
        codes = np.frombuffer(raw, dtype=dtype_code).astype(np.int64)
        defined = codes != quantizer.ndf_code
        return NumericSegment(codes, defined)
