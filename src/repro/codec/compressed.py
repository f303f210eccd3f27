"""The ``compressed`` codec family: delta+varint tid columns, gap-coded runs.

The tid columns of the tid-based layouts are monotone, and monotone
sequences are where quasi-succinct coding (Vigna, PAPERS.md) shines: store
each element's key as an LEB128 varint of its *gap* from the predecessor
instead of a fixed ``u32``.  The approximation vectors themselves are
untouched — signatures are self-delimiting and numeric codes fixed-width —
so the no-false-negative lower-bound contract is byte-for-byte preserved;
only element addressing shrinks.

Wire formats (``uv(x)`` = LEB128 unsigned varint):

* **Type I text** — per string: ``uv(tid - prev_tid) ‖ signature``.  The
  predecessor is the previous *element's* tid (initially ``-1``), so
  repeated tids for multi-string values encode as gap 0.
* **Type II text** — per defined tuple:
  ``uv(tid - prev_tid) ‖ uv(count) ‖ signatures``; tids are strictly
  increasing, so every gap ≥ 1.
* **Type III text** — the positional layout becomes a *sparse* gap-coded
  run list: undefined tuples store nothing; per defined tuple:
  ``uv(position - prev_defined_position) ‖ uv(count) ‖ signatures`` with
  the predecessor initially ``-1`` (gaps ≥ 1).  Trailing undefined tuples
  simply leave the stream exhausted.
* **Type I numeric** — per defined tuple: ``uv(tid - prev_tid) ‖ code``.
* **Type IV numeric** — unchanged from ``raw``: the packed fixed-width
  code per tuple is already ⌈α·r⌉-tight, with nothing monotone to gap-code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.base import (
    BytesReader,
    VectorListCodec,
    encode_uvarint,
    read_uvarint,
    uvarint_len,
)
from repro.core.numeric import NumericQuantizer
from repro.core.scan import (
    NumericTypeIVScanner,
    SkipTable,
    VectorListScanner,
)
from repro.core.segment import NumericSegment, TextSegment
from repro.core.signature import Signature, SignatureScheme
from repro.core.vector_lists import (
    ListType,
    NumericListSizes,
    TextListSizes,
    build_numeric_list,
)
from repro.errors import EncodingError, IndexError_
from repro.model.values import TextValue


# ---------------------------------------------------------------- scanners


class _DeltaTidScanner(VectorListScanner):
    """Freeze-semantics machinery over a delta-coded tid column.

    Mirrors :class:`~repro.core.scan.NumericTypeIScanner`, with the pending
    element's tid reconstructed as ``base + gap``; ``base`` is the tid of
    the last fully consumed element (``-1`` at the list head).
    """

    def __init__(self, reader) -> None:
        super().__init__(reader)
        self._base = -1
        self._pending: Optional[int] = None
        self._load_next()

    def _load_next(self) -> None:
        if self._pending is not None:
            self._base = self._pending
        if self._reader.exhausted():
            self._pending = None
        else:
            self._pending = self._base + read_uvarint(self._reader)

    @property
    def pending_tid(self) -> Optional[int]:
        """The tid the pointer is frozen at (None at the list tail)."""
        return self._pending


class CompressedTextTypeIScanner(_DeltaTidScanner):
    """Gap-coded Type I text: ``uv(gap) ‖ signature`` per string."""

    def __init__(self, reader, scheme: SignatureScheme) -> None:
        self._scheme = scheme
        super().__init__(reader)

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see :mod:`repro.core.scan`."""
        out: List[Signature] = []
        while self._pending is not None and self._pending <= tid:
            signature = self._scheme.read(self._reader)
            if self._pending == tid:
                out.append(signature)
            self._load_next()
        return out or None

    def decode_segment(self, tids):
        """Columnar decode: one flat signature run for the whole block."""
        read_raw = self._scheme.read_raw
        reader = self._reader
        slots: List[int] = []
        lengths: List[int] = []
        bits: List[int] = []
        unique = 0
        for i, tid in enumerate(tids.tolist()):
            first = True
            while self._pending is not None and self._pending <= tid:
                pair = read_raw(reader)
                if self._pending == tid:
                    if first:
                        unique += 1
                        first = False
                    slots.append(i)
                    lengths.append(pair[0])
                    bits.append(pair[1])
                self._load_next()
        return TextSegment.from_pairs(
            len(tids), slots, lengths, bits, unique, self._scheme
        )


class CompressedTextTypeIIScanner(_DeltaTidScanner):
    """Gap-coded Type II text: ``uv(gap) ‖ uv(count) ‖ signatures``."""

    def __init__(self, reader, scheme: SignatureScheme) -> None:
        self._scheme = scheme
        super().__init__(reader)

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see :mod:`repro.core.scan`."""
        out: List[Signature] = []
        while self._pending is not None and self._pending <= tid:
            count = read_uvarint(self._reader)
            signatures = [self._scheme.read(self._reader) for _ in range(count)]
            if self._pending == tid:
                out.extend(signatures)
            self._load_next()
        return out or None

    def decode_segment(self, tids):
        """Columnar decode: one flat signature run for the whole block."""
        read_raw = self._scheme.read_raw
        reader = self._reader
        slots: List[int] = []
        lengths: List[int] = []
        bits: List[int] = []
        unique = 0
        for i, tid in enumerate(tids.tolist()):
            first = True
            while self._pending is not None and self._pending <= tid:
                count = read_uvarint(reader)
                if self._pending == tid:
                    if first and count:
                        unique += 1
                        first = False
                    for _ in range(count):
                        pair = read_raw(reader)
                        slots.append(i)
                        lengths.append(pair[0])
                        bits.append(pair[1])
                else:
                    for _ in range(count):
                        read_raw(reader)
                self._load_next()
        return TextSegment.from_pairs(
            len(tids), slots, lengths, bits, unique, self._scheme
        )


class CompressedNumericTypeIScanner(_DeltaTidScanner):
    """Gap-coded Type I numeric: ``uv(gap) ‖ code``."""

    def __init__(self, reader, quantizer: NumericQuantizer) -> None:
        self._quantizer = quantizer
        super().__init__(reader)

    def move_to(self, tid: int) -> Optional[int]:
        """Advance the pointer to *tid*; see :mod:`repro.core.scan`."""
        out: Optional[int] = None
        width = self._quantizer.vector_bytes
        while self._pending is not None and self._pending <= tid:
            code = self._quantizer.decode_bytes(self._reader.read(width))
            if self._pending == tid:
                out = code
            self._load_next()
        return out

    def decode_segment(self, tids):
        """Columnar decode: same varint walk, codes scattered into arrays."""
        width = self._quantizer.vector_bytes
        decode = self._quantizer.decode_bytes
        reader = self._reader
        count = len(tids)
        codes = np.zeros(count, dtype=np.uint64)
        defined = np.zeros(count, dtype=bool)
        for i, tid in enumerate(tids.tolist()):
            while self._pending is not None and self._pending <= tid:
                code = decode(reader.read(width))
                if self._pending == tid:
                    codes[i] = code
                    defined[i] = True
                self._load_next()
        return NumericSegment(codes, defined)


class CompressedTextTypeIIIScanner(VectorListScanner):
    """Sparse gap-coded Type III text.

    Position-identified like its raw counterpart, so ``move_to`` must be
    called once per tuple-list element (tombstones included) — but the
    list stores elements only for *defined* tuples, keyed by position
    gaps, so the scanner keeps its own element counter and decodes an
    element only when the pending defined position comes due.  A stream
    that ends early just means the remaining tuples are all undefined.
    """

    def __init__(self, reader, scheme: SignatureScheme) -> None:
        super().__init__(reader)
        self._scheme = scheme
        self._position = 0
        self._prev_defined = -1
        self._pending: Optional[int] = None
        self._load_next()

    def _load_next(self) -> None:
        if self._pending is not None:
            self._prev_defined = self._pending
        if self._reader.exhausted():
            self._pending = None
        else:
            self._pending = self._prev_defined + read_uvarint(self._reader)

    def move_to(self, tid: int) -> Optional[List[Signature]]:
        """Advance the pointer to *tid*; see :mod:`repro.core.scan`."""
        position = self._position
        self._position += 1
        if self._pending is None or self._pending > position:
            return None
        if self._pending < position:
            raise IndexError_(
                "compressed Type III list fell behind the tuple list — the "
                "index is inconsistent with its table"
            )
        count = read_uvarint(self._reader)
        signatures = [self._scheme.read(self._reader) for _ in range(count)]
        self._load_next()
        return signatures or None

    def decode_segment(self, tids):
        """Columnar decode: sparse positional walk into one flat run."""
        read_raw = self._scheme.read_raw
        reader = self._reader
        slots: List[int] = []
        lengths: List[int] = []
        bits: List[int] = []
        unique = 0
        for i in range(len(tids)):
            position = self._position
            self._position += 1
            if self._pending is None or self._pending > position:
                continue
            if self._pending < position:
                raise IndexError_(
                    "compressed Type III list fell behind the tuple list — "
                    "the index is inconsistent with its table"
                )
            count = read_uvarint(reader)
            if count:
                unique += 1
                for _ in range(count):
                    pair = read_raw(reader)
                    slots.append(i)
                    lengths.append(pair[0])
                    bits.append(pair[1])
            self._load_next()
        return TextSegment.from_pairs(
            len(tids), slots, lengths, bits, unique, self._scheme
        )


# ------------------------------------------------------------------- codec


class CompressedCodec(VectorListCodec):
    """Delta+varint tid columns and gap-coded positional runs."""

    name = "compressed"
    code = 1

    # ----------------------------------------------------------- sizing

    def text_sizes(
        self,
        scheme: SignatureScheme,
        entries: Sequence[Tuple[int, TextValue]],
        all_tids: Sequence[int],
    ) -> TextListSizes:
        """Exact serialized size of each text layout under this codec.

        Still the closed-form selection of Sec. III-D — the builder picks
        the smallest layout — but the per-layout sizes are computed for
        *this* encoding (gap varint lengths instead of ``l_tid``/``l_num``
        constants), without serializing anything.
        """
        vector_total = sum(
            scheme.vector_byte_size(s) for _, strings in entries for s in strings
        )
        type_i = vector_total
        prev = -1
        for tid, strings in entries:
            if strings:
                type_i += uvarint_len(tid - prev)
                type_i += len(strings) - 1  # gap-0 repeats: 1 byte each
                prev = tid
        type_ii = vector_total
        prev = -1
        for tid, strings in entries:
            type_ii += uvarint_len(tid - prev) + uvarint_len(len(strings))
            prev = tid
        type_iii = vector_total
        pos_of = {tid: i for i, tid in enumerate(all_tids)}
        prev = -1
        for tid, strings in entries:
            position = pos_of[tid]
            type_iii += uvarint_len(position - prev) + uvarint_len(len(strings))
            prev = position
        return TextListSizes(type_i=type_i, type_ii=type_ii, type_iii=type_iii)

    def numeric_sizes(
        self,
        vector_bytes: int,
        entries: Sequence[Tuple[int, float]],
        all_tids: Sequence[int],
    ) -> NumericListSizes:
        """Exact serialized size of each numeric layout under this codec."""
        type_i = vector_bytes * len(entries)
        prev = -1
        for tid, _ in entries:
            type_i += uvarint_len(tid - prev)
            prev = tid
        return NumericListSizes(
            type_i=type_i, type_iv=vector_bytes * len(all_tids)
        )

    # --------------------------------------------------------- building

    def build_text(
        self,
        list_type: ListType,
        scheme: SignatureScheme,
        entries: Sequence[Tuple[int, TextValue]],
        all_tids: Sequence[int],
    ) -> bytes:
        """Bulk-serialize a text vector list."""
        out = bytearray()
        prev = -1
        if list_type is ListType.TYPE_I:
            for tid, strings in entries:
                if tid < prev:
                    raise EncodingError("vector-list entries must be sorted by tid")
                for i, s in enumerate(strings):
                    gap = tid - prev if i == 0 else 0
                    out += encode_uvarint(gap)
                    out += scheme.encode(s).to_bytes()
                if strings:
                    prev = tid
            return bytes(out)
        if list_type is ListType.TYPE_II:
            for tid, strings in entries:
                if tid <= prev:
                    raise EncodingError(
                        "Type II entries must be strictly increasing by tid"
                    )
                out += encode_uvarint(tid - prev)
                out += encode_uvarint(len(strings))
                for s in strings:
                    out += scheme.encode(s).to_bytes()
                prev = tid
            return bytes(out)
        if list_type is ListType.TYPE_III:
            pos_of = {tid: i for i, tid in enumerate(all_tids)}
            for tid, strings in entries:
                position = pos_of.get(tid)
                if position is None:
                    raise EncodingError(
                        f"tid {tid} is not in the tuple list"
                    )
                if position <= prev:
                    raise EncodingError(
                        "Type III entries must be strictly increasing by tid"
                    )
                out += encode_uvarint(position - prev)
                out += encode_uvarint(len(strings))
                for s in strings:
                    out += scheme.encode(s).to_bytes()
                prev = position
            return bytes(out)
        raise EncodingError(f"{list_type} is not a text layout")

    def build_numeric(
        self,
        list_type: ListType,
        quantizer: NumericQuantizer,
        entries: Sequence[Tuple[int, float]],
        all_tids: Sequence[int],
    ) -> bytes:
        """Bulk-serialize a numeric vector list."""
        from repro.core.fastpath import encode_numeric_batch

        if list_type is ListType.TYPE_IV:
            # Packed fixed-width codes are already position-tight; the raw
            # wire format is reused verbatim.
            return build_numeric_list(list_type, quantizer, entries, all_tids)
        if list_type is not ListType.TYPE_I:
            raise EncodingError(f"{list_type} is not a numeric layout")
        codes = encode_numeric_batch(quantizer, [value for _, value in entries])
        width = quantizer.vector_bytes
        out = bytearray()
        prev = -1
        for (tid, _), code in zip(entries, codes):
            if tid <= prev:
                raise EncodingError(
                    "numeric Type I entries must be strictly increasing by tid"
                )
            out += encode_uvarint(tid - prev)
            out += code.to_bytes(width, "little")
            prev = tid
        return bytes(out)

    # -------------------------------------------------------- appending

    def append_text(
        self,
        list_type: ListType,
        scheme: SignatureScheme,
        tid: int,
        strings: Optional[TextValue],
        *,
        prev_key: int,
        position: int,
    ) -> Tuple[bytes, int]:
        """Tail element(s) for one inserted tuple on a text attribute."""
        if list_type is ListType.TYPE_I:
            if strings is None:
                return b"", prev_key
            out = bytearray()
            for i, s in enumerate(strings):
                out += encode_uvarint(tid - prev_key if i == 0 else 0)
                out += scheme.encode(s).to_bytes()
            return bytes(out), tid
        if list_type is ListType.TYPE_II:
            if strings is None:
                return b"", prev_key
            out = bytearray(encode_uvarint(tid - prev_key))
            out += encode_uvarint(len(strings))
            for s in strings:
                out += scheme.encode(s).to_bytes()
            return bytes(out), tid
        if list_type is ListType.TYPE_III:
            if strings is None:
                return b"", prev_key  # gap-coded: undefined tuples store nothing
            out = bytearray(encode_uvarint(position - prev_key))
            out += encode_uvarint(len(strings))
            for s in strings:
                out += scheme.encode(s).to_bytes()
            return bytes(out), position
        raise EncodingError(f"{list_type} is not a text layout")

    def append_numeric(
        self,
        list_type: ListType,
        quantizer: NumericQuantizer,
        tid: int,
        value: Optional[float],
        *,
        prev_key: int,
        position: int,
    ) -> Tuple[bytes, int]:
        """Tail element for one inserted tuple on a numeric attribute."""
        if list_type is ListType.TYPE_I:
            if value is None:
                return b"", prev_key
            payload = encode_uvarint(tid - prev_key) + quantizer.encode_bytes(value)
            return payload, tid
        if list_type is ListType.TYPE_IV:
            if value is None:
                return quantizer.ndf_bytes(), prev_key
            return quantizer.encode_bytes(value), position
        raise EncodingError(f"{list_type} is not a numeric layout")

    # --------------------------------------------------------- scanning

    def text_scanner(
        self,
        list_type: ListType,
        reader,
        scheme: SignatureScheme,
        skip: Optional[SkipTable] = None,
    ) -> VectorListScanner:
        """A scanning pointer at the head of a text list.

        *skip* is accepted for interface parity and ignored: delta-coded
        elements cannot be jumped over without losing the decoding base.
        """
        if list_type is ListType.TYPE_I:
            return CompressedTextTypeIScanner(reader, scheme)
        if list_type is ListType.TYPE_II:
            return CompressedTextTypeIIScanner(reader, scheme)
        return CompressedTextTypeIIIScanner(reader, scheme)

    def numeric_scanner(
        self,
        list_type: ListType,
        reader,
        quantizer: NumericQuantizer,
        skip: Optional[SkipTable] = None,
    ) -> VectorListScanner:
        """A scanning pointer at the head of a numeric list."""
        if list_type is ListType.TYPE_I:
            return CompressedNumericTypeIScanner(reader, quantizer)
        return NumericTypeIVScanner(reader, quantizer)

    # -------------------------------------------------------- integrity

    def check_list(
        self,
        list_type: ListType,
        is_text: bool,
        scheme_or_quantizer,
        payload: bytes,
        element_count: int,
    ) -> List[str]:
        """Structural problems in one list payload (empty = clean)."""
        problems: List[str] = []
        reader = BytesReader(payload)
        try:
            if is_text:
                self._check_text(
                    list_type, scheme_or_quantizer, reader, element_count, problems
                )
            else:
                self._check_numeric(
                    list_type, scheme_or_quantizer, reader, element_count, problems
                )
        except IndexError_ as exc:
            problems.append(f"truncated or corrupt varint stream: {exc}")
        return problems

    @staticmethod
    def _check_text(
        list_type: ListType,
        scheme: SignatureScheme,
        reader: BytesReader,
        element_count: int,
        problems: List[str],
    ) -> None:
        if list_type is ListType.TYPE_III:
            prev = -1
            while not reader.exhausted():
                gap = read_uvarint(reader)
                if gap < 1:
                    problems.append(
                        f"defined positions not strictly increasing at "
                        f"position {prev + gap}"
                    )
                position = prev + max(gap, 1)
                count = read_uvarint(reader)
                for _ in range(count):
                    scheme.read(reader)
                prev = position
            if prev >= element_count:
                problems.append(
                    f"defined position {prev} outside the tuple list "
                    f"({element_count} elements)"
                )
            return
        prev = -1
        first = True
        while not reader.exhausted():
            gap = read_uvarint(reader)
            tid = prev + gap
            if list_type is ListType.TYPE_I:
                if first and gap < 1:
                    problems.append("first element decodes to tid -1")
                scheme.read(reader)
            else:
                if gap < 1:
                    problems.append(f"tids not strictly increasing at {tid}")
                count = read_uvarint(reader)
                for _ in range(count):
                    scheme.read(reader)
            prev = tid
            first = False

    @staticmethod
    def _check_numeric(
        list_type: ListType,
        quantizer: NumericQuantizer,
        reader: BytesReader,
        element_count: int,
        problems: List[str],
    ) -> None:
        width = quantizer.vector_bytes
        if list_type is ListType.TYPE_IV:
            if reader.size != width * element_count:
                problems.append(
                    f"Type IV list is {reader.size} bytes, expected "
                    f"{width * element_count}"
                )
            return
        prev = -1
        while not reader.exhausted():
            gap = read_uvarint(reader)
            if gap < 1:
                problems.append(f"tids not strictly increasing at {prev + gap}")
            reader.read(width)
            prev = prev + gap

