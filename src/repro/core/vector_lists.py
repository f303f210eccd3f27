"""The four vector-list layouts and their size-based selection (Sec. III-D).

For a text attribute the builder chooses among Types I, II and III; for a
numeric attribute between Types I and IV — always the smallest, using the
paper's closed-form sizes:

```
text:     L_I   = l_tid · str           + L + h · ceil(str / s)
          L_II  = (l_tid + l_num) · df  + L + h · ceil(df / s)
          L_III = l_num · |T|           + L + h · ceil(|T| / b)
numeric:  L_I   = (l_tid + ceil(α·r)) · df
          L_IV  = ceil(α·r) · |T|
```

where ``L`` is the total space of all approximation vectors on the
attribute, ``df`` the number of defining tuples, ``str`` the total string
count, and ``|T|`` the table's (live) tuple count.

A raw text list stores the paper's element fields grouped by column, in
blocks (see :func:`repro.core.scan.parse_text_blocks`): each block adds an
``h``-byte header (:data:`~repro.core.scan.TEXT_BLOCK_HEADER`) and holds
``s`` elements (:data:`~repro.core.scan.SKIP_SEGMENT_ELEMENTS`, one skip
segment) in the tid-based layouts or ``b`` tuples
(:data:`~repro.core.kernel.BLOCK_TUPLES`, one filter block) in Type III —
the last terms above, which keep the sizes exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.kernel import BLOCK_TUPLES
from repro.core.numeric import NumericQuantizer
from repro.core.scan import (
    NUM_BYTES,
    SKIP_SEGMENT_ELEMENTS,
    TEXT_BLOCK_HEADER,
    TID_BYTES,
)
from repro.core.signature import SignatureScheme
from repro.errors import EncodingError
from repro.model.values import TextValue


class ListType(enum.Enum):
    """The vector-list layouts of Sec. III-D."""

    TYPE_I = 1
    TYPE_II = 2
    TYPE_III = 3
    TYPE_IV = 4


@dataclass(frozen=True)
class TextListSizes:
    """Predicted serialized sizes of the three text layouts."""

    type_i: int
    type_ii: int
    type_iii: int

    def best(self) -> ListType:
        """The smallest layout (ties prefer the lower type number)."""
        candidates = [
            (self.type_i, 1, ListType.TYPE_I),
            (self.type_ii, 2, ListType.TYPE_II),
            (self.type_iii, 3, ListType.TYPE_III),
        ]
        return min(candidates)[2]


@dataclass(frozen=True)
class NumericListSizes:
    """Predicted serialized sizes of the two numeric layouts."""

    type_i: int
    type_iv: int

    def best(self) -> ListType:
        """The smallest layout (ties prefer the lower type number)."""
        return ListType.TYPE_I if self.type_i <= self.type_iv else ListType.TYPE_IV


def text_list_sizes(
    vector_total_bytes: int, df: int, str_count: int, table_tuples: int
) -> TextListSizes:
    """Closed-form text sizes from the attribute-list statistics."""
    return TextListSizes(
        type_i=TID_BYTES * str_count
        + vector_total_bytes
        + _headers(str_count, SKIP_SEGMENT_ELEMENTS),
        type_ii=(TID_BYTES + NUM_BYTES) * df
        + vector_total_bytes
        + _headers(df, SKIP_SEGMENT_ELEMENTS),
        type_iii=NUM_BYTES * table_tuples
        + vector_total_bytes
        + _headers(table_tuples, BLOCK_TUPLES),
    )


def _headers(elements: int, per_block: int) -> int:
    """Header bytes of a raw text list of *elements* in blocks of *per_block*."""
    return TEXT_BLOCK_HEADER.size * -(-elements // per_block)


def numeric_list_sizes(
    vector_bytes: int, df: int, table_tuples: int
) -> NumericListSizes:
    """Closed-form numeric sizes from the attribute-list statistics."""
    return NumericListSizes(
        type_i=(TID_BYTES + vector_bytes) * df,
        type_iv=vector_bytes * table_tuples,
    )


# --------------------------------------------------------------------- text


def choose_text_type(
    scheme: SignatureScheme,
    entries: Sequence[Tuple[int, TextValue]],
    table_tuples: int,
) -> Tuple[ListType, TextListSizes]:
    """Pick the smallest text layout for the given defined entries."""
    df = len(entries)
    str_count = sum(len(strings) for _, strings in entries)
    vector_total = sum(
        scheme.vector_byte_size(s) for _, strings in entries for s in strings
    )
    sizes = text_list_sizes(vector_total, df, str_count, table_tuples)
    return sizes.best(), sizes


def text_block_elements(list_type: ListType) -> int:
    """Elements per raw text block: one skip segment, or one filter block."""
    if list_type is ListType.TYPE_III:
        return BLOCK_TUPLES
    return SKIP_SEGMENT_ELEMENTS


def _text_units(
    list_type: ListType,
    entries: Sequence[Tuple[int, TextValue]],
    all_tids: Sequence[int],
) -> List[Tuple[int, TextValue]]:
    """A raw text list's elements as ``(tid, strings)`` pairs.

    Type I has one element per string, Type II one per defined tuple and
    Type III one per tuple-list element (no strings where ndf; its tid is
    not stored).
    """
    _check_sorted(tid for tid, _ in entries)
    if list_type is ListType.TYPE_I:
        return [(tid, (s,)) for tid, strings in entries for s in strings]
    if list_type is ListType.TYPE_II:
        return list(entries)
    if list_type is ListType.TYPE_III:
        by_tid: Dict[int, TextValue] = dict(entries)
        if len(by_tid) != len(entries):
            raise EncodingError("duplicate tids in text vector-list entries")
        return [(tid, by_tid.get(tid, ())) for tid in all_tids]
    raise EncodingError(f"{list_type} is not a text layout")


def build_text_list(
    list_type: ListType,
    scheme: SignatureScheme,
    entries: Sequence[Tuple[int, TextValue]],
    all_tids: Sequence[int],
) -> bytes:
    """Serialise a text vector list as a run of columnar blocks.

    *entries* are the defined ``(tid, strings)`` pairs in increasing tid
    order; *all_tids* is the full tuple-list tid sequence (needed by the
    positional Type III layout).
    """
    units = _text_units(list_type, entries, all_tids)
    per_block = text_block_elements(list_type)
    return b"".join(
        encode_text_block(list_type, scheme, units[at : at + per_block])
        for at in range(0, len(units), per_block)
    )


def encode_text_block(
    list_type: ListType,
    scheme: SignatureScheme,
    units: Sequence[Tuple[int, TextValue]],
) -> bytes:
    """One raw text block holding the ``(tid, strings)`` elements *units*.

    The header, then the element fields by column: tids (Types I and II),
    string counts (Types II and III), one stored-length byte per signature,
    and every signature's higher bits.  A Type I element holds one string.
    """
    signatures = [scheme.encode(s) for _, strings in units for s in strings]
    tids = counts = b""
    if list_type is not ListType.TYPE_III:
        tids = b"".join([tid.to_bytes(TID_BYTES, "little") for tid, _ in units])
    if list_type is not ListType.TYPE_I:
        sizes = [len(strings) for _, strings in units]
        if max(sizes, default=0) > 255:
            raise EncodingError(f"{list_type.name} elements hold at most 255 strings")
        counts = bytes(sizes)
    body = b"".join(
        [
            tids,
            counts,
            bytes([signature.length for signature in signatures]),
            *[s.bits.to_bytes(s.l_bits // 8, "little") for s in signatures],
        ]
    )
    return TEXT_BLOCK_HEADER.pack(len(units), len(body)) + body


# ------------------------------------------------------------------ numeric


def choose_numeric_type(
    vector_bytes: int, df: int, table_tuples: int
) -> Tuple[ListType, NumericListSizes]:
    """Pick the smaller numeric layout via the size formulas."""
    sizes = numeric_list_sizes(vector_bytes, df, table_tuples)
    return sizes.best(), sizes


def build_numeric_list(
    list_type: ListType,
    quantizer: NumericQuantizer,
    entries: Sequence[Tuple[int, float]],
    all_tids: Sequence[int],
) -> bytes:
    """Serialise a numeric vector list (defined ``(tid, value)`` entries).

    Bulk quantisation goes through :mod:`repro.core.fastpath` (vectorised
    for long columns, byte-identical to the scalar encode).
    """
    from repro.core.fastpath import encode_numeric_batch, pack_codes

    _check_sorted(tid for tid, _ in entries)
    codes = encode_numeric_batch(quantizer, [value for _, value in entries])
    width = quantizer.vector_bytes
    if list_type is ListType.TYPE_I:
        out = bytearray()
        for (tid, _), code in zip(entries, codes):
            out += tid.to_bytes(TID_BYTES, "little")
            out += code.to_bytes(width, "little")
        return bytes(out)
    if list_type is ListType.TYPE_IV:
        code_by_tid = dict(zip((tid for tid, _ in entries), codes))
        if len(code_by_tid) != len(entries):
            raise EncodingError("duplicate tids in numeric vector-list entries")
        ndf_code = quantizer.ndf_code
        if ndf_code is None:
            raise EncodingError("Type IV layout requires a reserved ndf code")
        all_codes = [code_by_tid.get(tid, ndf_code) for tid in all_tids]
        return pack_codes(all_codes, width)
    raise EncodingError(f"{list_type} is not a numeric layout")


def encode_numeric_element_type_i(
    quantizer: NumericQuantizer, tid: int, value: float
) -> bytes:
    """One numeric Type I element: tid + code."""
    return tid.to_bytes(TID_BYTES, "little") + quantizer.encode_bytes(value)


# ------------------------------------------------------------------ helpers


def _check_sorted(tids: Iterable[int]) -> None:
    previous = -1
    for tid in tids:
        if tid < previous:
            raise EncodingError("vector-list entries must be sorted by tid")
        previous = tid


def text_vector_total_bytes(
    scheme: SignatureScheme, entries: Sequence[Tuple[int, TextValue]]
) -> int:
    """``L``: total bytes of all signatures on the attribute."""
    return sum(scheme.vector_byte_size(s) for _, strings in entries for s in strings)


def list_types_for_kind(is_text: bool) -> List[ListType]:
    """The candidate layouts for a text or numeric attribute."""
    if is_text:
        return [ListType.TYPE_I, ListType.TYPE_II, ListType.TYPE_III]
    return [ListType.TYPE_I, ListType.TYPE_IV]
