"""The ``raw`` codec family: the fixed-width Sec. III-D encodings.

``<tid u32>`` fields, one-byte counts and stored lengths, fixed-width
numeric codes — expressed through the
:class:`~repro.codec.base.VectorListCodec` interface.  Numeric lists are
the paper's element sequences; text lists hold the same fields grouped by
column in blocks (layout version 1; see
:func:`repro.core.scan.parse_text_blocks`).  Building and scanning
delegate to :mod:`repro.core.vector_lists` and :mod:`repro.core.scan`.

The scanners this codec hands out support both the element-at-a-time
``move_to`` contract and the v3 kernel's ``decode_segment`` API (one call
decodes a whole tuple-list block into a columnar segment); see
:class:`~repro.core.scan.VectorListScanner`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.codec.base import BytesReader, VectorListCodec
from repro.core.numeric import NumericQuantizer
from repro.core.scan import (
    NUM_BYTES,
    SKIP_SEGMENT_ELEMENTS,
    TEXT_BLOCK_HEADER,
    TID_BYTES,
    NumericTypeIScanner,
    NumericTypeIVScanner,
    SkipTable,
    TextTypeIScanner,
    TextTypeIIScanner,
    TextTypeIIIScanner,
    VectorListScanner,
    parse_text_blocks,
)
from repro.core.signature import SignatureScheme
from repro.core.vector_lists import (
    ListType,
    NumericListSizes,
    TextListSizes,
    build_numeric_list,
    build_text_list,
    encode_numeric_element_type_i,
    encode_text_block,
    numeric_list_sizes,
    text_block_elements,
    text_list_sizes,
)
from repro.errors import EncodingError, IndexError_
from repro.model.values import TextValue


#: The Type III block an insert appends for an ndf tuple: one element
#: whose string count is 0 (the most frequent append, so built once).
_NDF_BLOCK = TEXT_BLOCK_HEADER.pack(1, NUM_BYTES) + bytes(NUM_BYTES)


class RawCodec(VectorListCodec):
    """Fixed-width vector-list encodings (the paper's literal layouts)."""

    name = "raw"
    code = 0
    #: 1: text lists are columnar blocks (0 interleaved each element's fields).
    layout_version = 1

    # ----------------------------------------------------------- sizing

    def text_sizes(
        self,
        scheme: SignatureScheme,
        entries: Sequence[Tuple[int, TextValue]],
        all_tids: Sequence[int],
    ) -> TextListSizes:
        """Exact serialized size of each text layout under this codec."""
        df = len(entries)
        str_count = sum(len(strings) for _, strings in entries)
        vector_total = sum(
            scheme.vector_byte_size(s) for _, strings in entries for s in strings
        )
        return text_list_sizes(vector_total, df, str_count, len(all_tids))

    def numeric_sizes(
        self,
        vector_bytes: int,
        entries: Sequence[Tuple[int, float]],
        all_tids: Sequence[int],
    ) -> NumericListSizes:
        """Exact serialized size of each numeric layout under this codec."""
        return numeric_list_sizes(vector_bytes, len(entries), len(all_tids))

    # --------------------------------------------------------- building

    def build_text(
        self,
        list_type: ListType,
        scheme: SignatureScheme,
        entries: Sequence[Tuple[int, TextValue]],
        all_tids: Sequence[int],
    ) -> bytes:
        """Bulk-serialize a text vector list."""
        return build_text_list(list_type, scheme, entries, all_tids)

    def build_numeric(
        self,
        list_type: ListType,
        quantizer: NumericQuantizer,
        entries: Sequence[Tuple[int, float]],
        all_tids: Sequence[int],
    ) -> bytes:
        """Bulk-serialize a numeric vector list."""
        return build_numeric_list(list_type, quantizer, entries, all_tids)

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
        """One block holding the inserted tuple's element(s) on a text attribute.

        Nothing for an ndf tuple on a tid-based layout; Type III stores an
        empty element for it.
        """
        if list_type is ListType.TYPE_III:
            if strings is None:
                return _NDF_BLOCK, prev_key
            return encode_text_block(list_type, scheme, [(tid, strings)]), position
        if list_type is ListType.TYPE_I:
            units = [(tid, (s,)) for s in strings or ()]
        elif list_type is ListType.TYPE_II:
            units = [(tid, strings)] if strings is not None else []
        else:
            raise EncodingError(f"{list_type} is not a text layout")
        if not units:
            return b"", prev_key
        return encode_text_block(list_type, scheme, units), tid

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
            return encode_numeric_element_type_i(quantizer, tid, value), tid
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
        """A scanning pointer at the head of a text list."""
        if list_type is ListType.TYPE_I:
            return TextTypeIScanner(reader, scheme, skip)
        if list_type is ListType.TYPE_II:
            return TextTypeIIScanner(reader, scheme, skip)
        return TextTypeIIIScanner(reader, scheme)

    def numeric_scanner(
        self,
        list_type: ListType,
        reader,
        quantizer: NumericQuantizer,
        skip: Optional[SkipTable] = None,
    ) -> VectorListScanner:
        """A scanning pointer at the head of a numeric list."""
        if list_type is ListType.TYPE_I:
            return NumericTypeIScanner(reader, quantizer, skip)
        return NumericTypeIVScanner(reader, quantizer)

    # ------------------------------------------------------- skip tables

    def skip_table(
        self,
        list_type: ListType,
        is_text: bool,
        scheme_or_quantizer,
        entries,
        all_tids: Sequence[int],
    ) -> Optional[SkipTable]:
        """Per-segment tid fences for tid-based layouts (Types I and II).

        A segment is one text block, or :data:`SKIP_SEGMENT_ELEMENTS`
        fixed-width numeric elements, so segment byte offsets are
        computable from the entries alone.  Positional layouts identify by
        position, not tid, so a tid fence buys nothing there and ``None``
        is returned.
        """
        header = 0
        per_segment = SKIP_SEGMENT_ELEMENTS
        if is_text:
            size = scheme_or_quantizer.vector_byte_size
            if list_type is ListType.TYPE_I:
                element_widths = [
                    (tid, TID_BYTES + size(s)) for tid, strings in entries for s in strings
                ]
            elif list_type is ListType.TYPE_II:
                element_widths = [
                    (tid, TID_BYTES + NUM_BYTES + sum(map(size, strings)))
                    for tid, strings in entries
                ]
            else:
                return None
            header = TEXT_BLOCK_HEADER.size
            per_segment = text_block_elements(list_type)
        else:
            if list_type is not ListType.TYPE_I:
                return None
            width = TID_BYTES + scheme_or_quantizer.vector_bytes
            element_widths = [(tid, width) for tid, _ in entries]
        if len(element_widths) <= per_segment:
            return None
        first_tids: List[int] = []
        last_tids: List[int] = []
        offsets: List[int] = []
        offset = 0
        for index, (tid, width) in enumerate(element_widths):
            if index % per_segment == 0:
                first_tids.append(tid)
                offsets.append(offset)
                last_tids.append(tid)
                offset += header
            else:
                last_tids[-1] = tid
            offset += width
        return SkipTable(
            first_tids=tuple(first_tids),
            last_tids=tuple(last_tids),
            offsets=tuple(offsets),
            end_offset=offset,
        )

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
        try:
            if is_text:
                self._check_text(
                    list_type, scheme_or_quantizer, payload, element_count, problems
                )
            else:
                self._check_numeric(
                    list_type,
                    scheme_or_quantizer,
                    BytesReader(payload),
                    element_count,
                    problems,
                )
        except IndexError_ as exc:
            # A corrupt text block names itself; a numeric list runs short.
            problems.append(str(exc) if is_text else f"truncated list: {exc}")
        return problems

    @staticmethod
    def _check_text(
        list_type: ListType,
        scheme: SignatureScheme,
        payload: bytes,
        element_count: int,
        problems: List[str],
    ) -> None:
        blocks = parse_text_blocks(
            payload,
            0,
            scheme,
            list_type is not ListType.TYPE_III,
            list_type is not ListType.TYPE_I,
        )
        if blocks.end != len(payload):
            problems.append(
                f"truncated list: the block at offset {blocks.end} runs past "
                f"the list's {len(payload)} bytes"
            )
        if list_type is ListType.TYPE_III:
            if blocks.units != element_count:
                problems.append(
                    f"positional list holds {blocks.units} elements for "
                    f"{element_count} tuple-list elements"
                )
            return
        tids = blocks.unit_tids
        if list_type is ListType.TYPE_I:
            bad = tids[1:] < tids[:-1]
            message = "tids decrease at {}"
        else:
            bad = tids[1:] <= tids[:-1]
            message = "tids not strictly increasing at {}"
        for tid in tids[1:][bad].tolist():
            problems.append(message.format(tid))

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
            payload_len = reader.size
            if payload_len != width * element_count:
                problems.append(
                    f"Type IV list is {payload_len} bytes, expected "
                    f"{width * element_count}"
                )
            return
        previous = -1
        while not reader.exhausted():
            tid = int.from_bytes(reader.read(TID_BYTES), "little")
            if tid <= previous:
                problems.append(f"tids not strictly increasing at {tid}")
            reader.read(width)
            previous = tid
