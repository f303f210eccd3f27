"""The vector-list codec seam: wire-format families behind one interface.

The iVA-file stores one vector list per attribute in one of the four
Sec. III-D layouts (Types I–IV).  *Which bytes those layouts serialize to*
is this package's business: a :class:`VectorListCodec` owns

* the per-layout **size formulas** (the paper's closed forms, evaluated for
  this codec's encoding — the builder still picks the smallest layout, but
  the sizes it compares are codec-specific);
* the **builders** (bulk serialization at rebuild) and **appenders**
  (tail elements at insert);
* the **scanners** (the synchronized-scan pointers of Sec. IV-A); and
* the **integrity checks** ``repro.storage.fsck`` runs over raw payloads.

Two families ship: :class:`~repro.codec.raw.RawCodec` (the fixed-width
encodings the reproduction always had) and
:class:`~repro.codec.compressed.CompressedCodec` (delta+varint tid columns
and gap-coded positional runs, after Vigna's quasi-succinct indices).
Both preserve the no-false-negative contract — they change bytes, never
the approximation vectors or the lower-bound semantics.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.core.numeric import NumericQuantizer
from repro.core.scan import SkipTable, VectorListScanner
from repro.core.signature import SignatureScheme
from repro.core.vector_lists import ListType, NumericListSizes, TextListSizes
from repro.errors import IndexError_
from repro.model.values import TextValue

__all__ = [
    "VectorListCodec",
    "encode_uvarint",
    "read_uvarint",
    "uvarint_len",
    "BytesReader",
    "list_last_key",
]


# ------------------------------------------------------------------ varints


def encode_uvarint(value: int) -> bytes:
    """LEB128 unsigned varint (7 payload bits per byte, MSB = continue)."""
    if value < 0:
        raise IndexError_(f"cannot varint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def uvarint_len(value: int) -> int:
    """Encoded byte length of :func:`encode_uvarint` without encoding."""
    if value < 0:
        raise IndexError_(f"cannot varint-encode negative value {value}")
    if value == 0:
        return 1
    return (value.bit_length() + 6) // 7


def read_uvarint(reader) -> int:
    """Decode one LEB128 varint from a reader with ``read(n) -> bytes``."""
    shift = 0
    value = 0
    while True:
        byte = reader.read(1)[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift > 63:
            raise IndexError_("varint longer than 64 bits — corrupt stream")


class BytesReader:
    """Minimal in-memory reader with the :class:`BufferedReader` surface.

    Used by the fsck-facing :meth:`VectorListCodec.check_list` to decode a
    payload already in memory without charging disk I/O.
    """

    def __init__(self, payload: bytes) -> None:
        self._payload = payload
        self.position = 0

    def read(self, length: int) -> bytes:
        if self.position + length > len(self._payload):
            raise IndexError_(
                f"read past end of list payload at offset {self.position}"
            )
        out = self._payload[self.position : self.position + length]
        self.position += length
        return out

    def exhausted(self) -> bool:
        """True when every payload byte has been consumed."""
        return self.position >= len(self._payload)

    def remaining(self) -> int:
        """Payload bytes not yet consumed."""
        return len(self._payload) - self.position

    @property
    def size(self) -> int:
        """Total payload length in bytes."""
        return len(self._payload)


def list_last_key(
    list_type: ListType,
    entries: Sequence[Tuple[int, object]],
    all_tids: Sequence[int],
) -> int:
    """The decoding base at a list's tail after a bulk build.

    Tid-based layouts append relative to the last defined element's *tid*;
    positional layouts relative to its *tuple position*.  ``-1`` for a
    list with no defined entries.
    """
    if not entries:
        return -1
    last_tid = entries[-1][0]
    if list_type in (ListType.TYPE_III, ListType.TYPE_IV):
        return bisect.bisect_left(all_tids, last_tid)
    return last_tid


# ---------------------------------------------------------------- interface


class VectorListCodec:
    """One wire-format family for the four vector-list layouts."""

    #: Registry name (``IVAConfig.codec`` / ``--codec`` value).
    name: str = ""
    #: Wire id stored in the attribute-list element.
    code: int = -1
    #: Version of this family's byte layouts; bumped when a layout changes
    #: incompatibly, so lists written in an older layout are refused.
    layout_version: int = 0

    @property
    def wire_byte(self) -> int:
        """The attribute-list element's codec byte: id low, layout version high."""
        return self.code | self.layout_version << 4

    # ----------------------------------------------------------- sizing

    def text_sizes(
        self,
        scheme: SignatureScheme,
        entries: Sequence[Tuple[int, TextValue]],
        all_tids: Sequence[int],
    ) -> TextListSizes:
        """Exact serialized size of each text layout under this codec."""
        raise NotImplementedError

    def numeric_sizes(
        self,
        vector_bytes: int,
        entries: Sequence[Tuple[int, float]],
        all_tids: Sequence[int],
    ) -> NumericListSizes:
        """Exact serialized size of each numeric layout under this codec."""
        raise NotImplementedError

    # --------------------------------------------------------- building

    def build_text(
        self,
        list_type: ListType,
        scheme: SignatureScheme,
        entries: Sequence[Tuple[int, TextValue]],
        all_tids: Sequence[int],
    ) -> bytes:
        """Bulk-serialize a text vector list."""
        raise NotImplementedError

    def build_numeric(
        self,
        list_type: ListType,
        quantizer: NumericQuantizer,
        entries: Sequence[Tuple[int, float]],
        all_tids: Sequence[int],
    ) -> bytes:
        """Bulk-serialize a numeric vector list."""
        raise NotImplementedError

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
        """Tail element(s) for one inserted tuple on a text attribute.

        Returns ``(payload, new_prev_key)``; an empty payload means the
        layout stores nothing for this tuple (ndf on a tid-based or
        gap-coded list).  *prev_key* is the list's current decoding base
        (:attr:`AttributeEntry.last_key <repro.core.iva_file.AttributeEntry>`);
        *position* the tuple-list element position being appended.
        """
        raise NotImplementedError

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
        raise NotImplementedError

    # --------------------------------------------------------- scanning

    def text_scanner(
        self,
        list_type: ListType,
        reader,
        scheme: SignatureScheme,
        skip: Optional[SkipTable] = None,
    ) -> VectorListScanner:
        """A scanning pointer at the head of a text list.

        The reader must be positioned at the list's first byte.  *skip* is
        an optional advisory :class:`~repro.core.scan.SkipTable`; codecs
        whose scanners cannot use it simply ignore it.
        """
        raise NotImplementedError

    def numeric_scanner(
        self,
        list_type: ListType,
        reader,
        quantizer: NumericQuantizer,
        skip: Optional[SkipTable] = None,
    ) -> VectorListScanner:
        """A scanning pointer at the head of a numeric list."""
        raise NotImplementedError

    # ------------------------------------------------------- skip tables

    def skip_table(
        self,
        list_type: ListType,
        is_text: bool,
        scheme_or_quantizer,
        entries,
        all_tids: Sequence[int],
    ) -> Optional[SkipTable]:
        """Per-segment tid fences for a freshly built list, or ``None``.

        Computed at rebuild time from the entries just serialized (pure
        arithmetic, no payload parsing).  The default declines: a codec
        only opts in where byte offsets of element boundaries are
        derivable without decoding (the raw fixed-width family).
        """
        return None

    # -------------------------------------------------------- integrity

    def check_list(
        self,
        list_type: ListType,
        is_text: bool,
        scheme_or_quantizer,
        payload: bytes,
        element_count: int,
    ) -> List[str]:
        """Structural problems in one list payload (empty = clean).

        Verifies the stream terminates exactly at the recorded length and
        that element keys obey the layout's ordering contract (tids
        non-decreasing for Type I text, strictly increasing for Type II
        text and Type I numeric, defined positions strictly increasing and
        inside the tuple list for gap-coded positional layouts).
        """
        raise NotImplementedError
