"""The four vector-list layouts and their size-based selection (Sec. III-D).

For a text attribute the builder chooses among Types I, II and III; for a
numeric attribute between Types I and IV — always the smallest, using the
paper's closed-form sizes:

```
text:     L_I   = l_tid · str           + L
          L_II  = (l_tid + l_num) · df  + L
          L_III = l_num · |T|           + L
numeric:  L_I   = (l_tid + ceil(α·r)) · df
          L_IV  = ceil(α·r) · |T|
```

where ``L`` is the total space of all approximation vectors on the
attribute, ``df`` the number of defining tuples, ``str`` the total string
count, and ``|T|`` the table's (live) tuple count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.numeric import NumericQuantizer
from repro.core.scan import NUM_BYTES, TID_BYTES
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
        type_i=TID_BYTES * str_count + vector_total_bytes,
        type_ii=(TID_BYTES + NUM_BYTES) * df + vector_total_bytes,
        type_iii=NUM_BYTES * table_tuples + vector_total_bytes,
    )


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


def build_text_list(
    list_type: ListType,
    scheme: SignatureScheme,
    entries: Sequence[Tuple[int, TextValue]],
    all_tids: Sequence[int],
) -> bytes:
    """Serialise a text vector list.

    *entries* are the defined ``(tid, strings)`` pairs in increasing tid
    order; *all_tids* is the full tuple-list tid sequence (needed by the
    positional Type III layout).
    """
    _check_sorted(tid for tid, _ in entries)
    out = bytearray()
    if list_type is ListType.TYPE_I:
        for tid, strings in entries:
            for s in strings:
                out += encode_text_element_type_i(scheme, tid, s)
    elif list_type is ListType.TYPE_II:
        for tid, strings in entries:
            out += encode_text_element_type_ii(scheme, tid, strings)
    elif list_type is ListType.TYPE_III:
        by_tid: Dict[int, TextValue] = dict(entries)
        if len(by_tid) != len(entries):
            raise EncodingError("duplicate tids in text vector-list entries")
        for tid in all_tids:
            out += encode_text_element_type_iii(scheme, by_tid.get(tid))
    else:
        raise EncodingError(f"{list_type} is not a text layout")
    return bytes(out)


def encode_text_element_type_i(scheme: SignatureScheme, tid: int, s: str) -> bytes:
    """One Type I element: tid + signature."""
    return tid.to_bytes(TID_BYTES, "little") + scheme.encode(s).to_bytes()


def encode_text_element_type_ii(
    scheme: SignatureScheme, tid: int, strings: TextValue
) -> bytes:
    """One Type II element: tid, count, signatures."""
    if len(strings) > 255:
        raise EncodingError("Type II elements hold at most 255 strings")
    out = bytearray(tid.to_bytes(TID_BYTES, "little"))
    out.append(len(strings))
    for s in strings:
        out += scheme.encode(s).to_bytes()
    return bytes(out)


def encode_text_element_type_iii(
    scheme: SignatureScheme, strings: Optional[TextValue]
) -> bytes:
    """One Type III element: count, signatures (0 for ndf)."""
    if strings is None:
        return b"\x00"
    if len(strings) > 255:
        raise EncodingError("Type III elements hold at most 255 strings")
    out = bytearray([len(strings)])
    for s in strings:
        out += scheme.encode(s).to_bytes()
    return bytes(out)


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
