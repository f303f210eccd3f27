"""The ``raw`` codec family: the fixed-width Sec. III-D encodings.

Exactly the wire formats the reproduction always wrote — ``<tid u32>``
heads, one-byte counts, fixed-width numeric codes — expressed through the
:class:`~repro.codec.base.VectorListCodec` interface.  Building and
scanning delegate to :mod:`repro.core.vector_lists` and
:mod:`repro.core.scan`, so indexes built before the codec seam existed
attach and scan unchanged (``raw`` is wire id 0, the attach default).

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
    TID_BYTES,
    NumericTypeIScanner,
    NumericTypeIVScanner,
    SkipTable,
    TextTypeIScanner,
    TextTypeIIScanner,
    TextTypeIIIScanner,
    VectorListScanner,
)
from repro.core.signature import SignatureScheme
from repro.core.vector_lists import (
    ListType,
    NumericListSizes,
    TextListSizes,
    build_numeric_list,
    build_text_list,
    encode_numeric_element_type_i,
    encode_text_element_type_i,
    encode_text_element_type_ii,
    encode_text_element_type_iii,
    numeric_list_sizes,
    text_list_sizes,
)
from repro.errors import EncodingError, IndexError_
from repro.model.values import TextValue


class RawCodec(VectorListCodec):
    """Fixed-width vector-list encodings (the paper's literal layouts)."""

    name = "raw"
    code = 0

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
        """Tail element(s) for one inserted tuple on a text attribute."""
        if list_type is ListType.TYPE_I:
            if strings is None:
                return b"", prev_key
            payload = b"".join(
                encode_text_element_type_i(scheme, tid, s) for s in strings
            )
            return payload, tid
        if list_type is ListType.TYPE_II:
            if strings is None:
                return b"", prev_key
            return encode_text_element_type_ii(scheme, tid, strings), tid
        if list_type is ListType.TYPE_III:
            payload = encode_text_element_type_iii(scheme, strings)
            return payload, position if strings is not None else prev_key
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

        Fixed-width elements make segment byte offsets computable from the
        entries alone.  Positional layouts identify by position, not tid,
        so a tid fence buys nothing there and ``None`` is returned.
        """
        if is_text:
            if list_type is ListType.TYPE_I:
                element_widths = [
                    (tid, TID_BYTES + scheme_or_quantizer.vector_byte_size(s))
                    for tid, strings in entries
                    for s in strings
                ]
            elif list_type is ListType.TYPE_II:
                element_widths = [
                    (
                        tid,
                        TID_BYTES
                        + NUM_BYTES
                        + sum(
                            scheme_or_quantizer.vector_byte_size(s)
                            for s in strings
                        ),
                    )
                    for tid, strings in entries
                ]
            else:
                return None
        else:
            if list_type is not ListType.TYPE_I:
                return None
            width = TID_BYTES + scheme_or_quantizer.vector_bytes
            element_widths = [(tid, width) for tid, _ in entries]
        if len(element_widths) <= SKIP_SEGMENT_ELEMENTS:
            return None
        first_tids: List[int] = []
        last_tids: List[int] = []
        offsets: List[int] = []
        offset = 0
        for index, (tid, width) in enumerate(element_widths):
            if index % SKIP_SEGMENT_ELEMENTS == 0:
                first_tids.append(tid)
                offsets.append(offset)
                last_tids.append(tid)
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
            problems.append(f"truncated list: {exc}")
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
            elements = 0
            while not reader.exhausted():
                count = reader.read(NUM_BYTES)[0]
                for _ in range(count):
                    scheme.read(reader)
                elements += 1
            if elements != element_count:
                problems.append(
                    f"positional list holds {elements} elements for "
                    f"{element_count} tuple-list elements"
                )
            return
        previous = -1
        while not reader.exhausted():
            tid = int.from_bytes(reader.read(TID_BYTES), "little")
            if list_type is ListType.TYPE_I:
                if tid < previous:
                    problems.append(f"tids decrease at {tid}")
                scheme.read(reader)
            else:
                if tid <= previous:
                    problems.append(f"tids not strictly increasing at {tid}")
                count = reader.read(NUM_BYTES)[0]
                for _ in range(count):
                    scheme.read(reader)
            previous = tid

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
