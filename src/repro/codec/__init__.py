"""Pluggable vector-list codecs (wire-format families) for the iVA-file.

See :mod:`repro.codec.base` for the interface.  Families register here;
:class:`~repro.core.iva_file.IVAFile` resolves them by name (from
``IVAConfig.codec`` / the CLI ``--codec`` flag) or by the wire id stored
in each attribute-list element (at attach).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.codec.base import (
    BytesReader,
    VectorListCodec,
    encode_uvarint,
    read_uvarint,
    uvarint_len,
)
from repro.codec.compressed import CompressedCodec
from repro.codec.raw import RawCodec
from repro.errors import IndexError_

__all__ = [
    "VectorListCodec",
    "RawCodec",
    "CompressedCodec",
    "CODEC_NAMES",
    "get_codec",
    "codec_for_code",
    "codec_for_wire",
    "encode_uvarint",
    "read_uvarint",
    "uvarint_len",
    "BytesReader",
]

_BY_NAME: Dict[str, VectorListCodec] = {}
_BY_CODE: Dict[int, VectorListCodec] = {}
for _codec in (RawCodec(), CompressedCodec()):
    _BY_NAME[_codec.name] = _codec
    _BY_CODE[_codec.code] = _codec

#: Registered codec names, in wire-id order (CLI choices, docs).
CODEC_NAMES: Tuple[str, ...] = tuple(
    _BY_CODE[code].name for code in sorted(_BY_CODE)
)


def get_codec(name: str) -> VectorListCodec:
    """The codec registered under *name* (raises on unknown names)."""
    codec = _BY_NAME.get(name)
    if codec is None:
        raise IndexError_(
            f"unknown codec {name!r}; available: {', '.join(CODEC_NAMES)}"
        )
    return codec


def codec_for_code(code: int) -> VectorListCodec:
    """The codec with wire id *code* (raises on unknown ids)."""
    codec = _BY_CODE.get(code)
    if codec is None:
        raise IndexError_(f"unknown codec wire id {code}")
    return codec


def codec_for_wire(byte: int) -> VectorListCodec:
    """The codec an attribute-list element's codec byte names.

    The low four bits are the wire id and the high four the layout
    version (:attr:`VectorListCodec.wire_byte`).  A list written in
    another layout version than this build's is refused: decoding it
    would read garbage.
    """
    codec = codec_for_code(byte & 0x0F)
    version = byte >> 4
    if version != codec.layout_version:
        raise IndexError_(
            f"{codec.name} vector lists in layout version {version} cannot be "
            f"read (this build reads version {codec.layout_version}); rebuild "
            f"the index from its table"
        )
    return codec
