"""numpy kernels for bulk encoding and block filtering.

Pure Python struggles with scan-efficiency workloads; bulk *index builds*
are the hottest loop we can vectorise without changing any on-disk byte.
:func:`encode_numeric_batch` quantises whole columns at once and
:func:`pack_codes` emits the little-endian code stream in one call; inputs
shorter than :data:`_BATCH_THRESHOLD` (where the array round-trip costs
more than it saves) and code widths numpy cannot hold exactly take the
scalar path.
Tests pin byte-for-byte equality between the two paths.

The v3 filter kernel (:mod:`repro.core.kernel`) plugs in through
:func:`text_min_scatter` (the per-tuple minimum over a text segment's
signature bounds) and :func:`combine_columns` (the distance combine over
per-term bound columns); numeric bounds come from
:meth:`~repro.core.numeric.NumericQuantizer.lower_bound_array`.  Each
mirrors its scalar counterpart's float operations, so results stay
bit-identical.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence

import numpy as np

from repro.core.numeric import VECTORISED_MAX_BYTES, NumericQuantizer

logger = logging.getLogger(__name__)

#: Below this many values the numpy round-trip costs more than it saves.
_BATCH_THRESHOLD = 64

_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

#: One-shot flag so the wide-code scalar fallback announces itself once
#: per process instead of once per column.
_wide_code_logged = False


def encode_numeric_batch(
    quantizer: NumericQuantizer, values: Sequence[float]
) -> List[int]:
    """Slice codes for *values*, identical to ``quantizer.encode`` per value."""
    # Wide codes (> 4 bytes: up to 2^64 slices) overflow int64 and exceed
    # float64 integer precision; the scalar path handles them with Python
    # bigints.
    if quantizer.vector_bytes > VECTORISED_MAX_BYTES:
        global _wide_code_logged
        if not _wide_code_logged:
            _wide_code_logged = True
            logger.debug(
                "encode_numeric_batch: vector_bytes=%d exceeds the 4-byte "
                "vectorisation boundary (codes would lose float64 integer "
                "precision); falling back to scalar encode",
                quantizer.vector_bytes,
            )
        return [quantizer.encode(v) for v in values]
    if len(values) < _BATCH_THRESHOLD:
        return [quantizer.encode(v) for v in values]
    arr = np.asarray(values, dtype=np.float64)
    top = quantizer.num_slices - 1
    if quantizer.hi == quantizer.lo:
        codes = np.where(arr <= quantizer.lo, 0, top)
    else:
        width = quantizer.slice_width
        codes = ((arr - quantizer.lo) / width).astype(np.int64)
        codes = np.clip(codes, 0, top)
        codes = np.where(arr <= quantizer.lo, 0, codes)
        codes = np.where(arr >= quantizer.hi, top, codes)
    return codes.astype(np.int64).tolist()


def pack_codes(codes: Sequence[int], vector_bytes: int) -> bytes:
    """Little-endian concatenation of fixed-width codes."""
    if len(codes) >= _BATCH_THRESHOLD and vector_bytes in _DTYPES:
        return np.asarray(codes, dtype=_DTYPES[vector_bytes]).tobytes()
    out = bytearray()
    for code in codes:
        out += int(code).to_bytes(vector_bytes, "little")
    return bytes(out)


def encode_numeric_column(
    quantizer: NumericQuantizer, values: Sequence[float]
) -> bytes:
    """Codes for a whole column as the serialized byte stream."""
    return pack_codes(encode_numeric_batch(quantizer, values), quantizer.vector_bytes)


def text_min_scatter(count: int, slots, values, ndf_penalty: float, repeats: bool):
    """``(bounds, defined)`` columns from a flat run of text bounds.

    *slots* is a non-decreasing index array and *values* the matching
    per-signature bounds; the result keeps each slot's minimum bound (the
    scalar walk's multi-string rule) and ``ndf_penalty`` where no
    signature landed.  Only when *repeats* (some slot holds several
    signatures) does ``np.minimum.reduceat`` fold each slot's run of
    values; a minimum over the same doubles is exact, so the column is
    bit-identical to the scalar walk's per-tuple ``min``.
    """
    out = np.full(count, ndf_penalty, dtype=np.float64)
    defined = np.zeros(count, dtype=bool)
    if len(values):
        if repeats:
            heads = np.empty(len(slots), dtype=bool)
            heads[0] = True
            np.not_equal(slots[1:], slots[:-1], out=heads[1:])
            starts = np.flatnonzero(heads)
            values = np.minimum.reduceat(values, starts)
            slots = slots[starts]
        out[slots] = values
        defined[slots] = True
    return out, defined


def combine_columns(metric_kind: Optional[str], weights, columns, count: int):
    """Vectorised distance combine over per-term bound columns.

    *metric_kind* names one of the built-in metrics (``"L1"``, ``"L2"``,
    ``"Linf"``) whose combine rules have exact array equivalents:

    * L1 — ``sum()`` over a list is the same left-to-right float addition
      chain as repeated ``+=`` on a zero accumulator;
    * L2 — squares accumulate in term order (``d*d``, not ``**2``) and
      ``np.sqrt`` is IEEE correctly-rounded like ``math.sqrt``;
    * Linf — a pairwise ``maximum`` chain computes the same maximum.

    Any other metric returns ``None`` and the caller falls back to the
    scalar per-element ``combine``.
    """
    if metric_kind is None:
        return None
    if metric_kind == "L1":
        acc = np.zeros(count, dtype=np.float64)
        for weight, column in zip(weights, columns):
            acc += weight * column
        return acc
    if metric_kind == "L2":
        acc = np.zeros(count, dtype=np.float64)
        for weight, column in zip(weights, columns):
            weighted = weight * column
            acc += weighted * weighted
        return np.sqrt(acc)
    if metric_kind == "Linf":
        acc = weights[0] * columns[0]
        for weight, column in zip(weights[1:], columns[1:]):
            acc = np.maximum(acc, weight * column)
        return acc
    return None
