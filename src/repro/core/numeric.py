"""Relative-domain approximation vectors for numeric values (Sec. III-C).

The VA-file quantises over the attribute's *absolute* type domain; the paper
observes that actual values "usually lie within a much smaller range and
fall in very few slices" and proposes cutting the *relative domain* — the
observed min..max — instead, so shorter codes reach the same precision.

Out-of-domain inserts (values arriving after the domain was fixed) are
encoded with the id of the nearest slice.  To keep lower bounds valid in
that case the two boundary slices are treated as open-ended
(``(−∞, hi]`` and ``[lo, +∞)``) when bounding — so a clamped value can never
produce a false negative, exactly as the paper requires.

Vector width follows Sec. III-D: ``ceil(α · r)`` bytes where ``r`` is the
byte width of a stored numeric value (8 for our float64 cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import EncodingError

#: Byte width of a stored numeric value (float64 in the interpreted format).
NUMERIC_VALUE_BYTES = 8

#: Widest code the numpy paths handle (bulk encode, array-wide bounds):
#: up to 4 bytes every code fits int64 and converts to float64 exactly.
#: Wider codes stay on the scalar path with Python ints.
VECTORISED_MAX_BYTES = 4


def vector_bytes_for_alpha(alpha: float, value_bytes: int = NUMERIC_VALUE_BYTES) -> int:
    """``ceil(α · r)`` — the approximation vector width in bytes."""
    if not 0 < alpha <= 1:
        raise EncodingError(f"relative vector length α must be in (0, 1], got {alpha}")
    return max(1, math.ceil(alpha * value_bytes))


@dataclass(frozen=True)
class NumericQuantizer:
    """Uniform scalar quantiser over a relative domain ``[lo, hi]``.

    ``reserve_ndf`` steals the top code as the ndf marker required by the
    Type IV (positional) vector-list layout.
    """

    lo: float
    hi: float
    vector_bytes: int
    reserve_ndf: bool = False

    def __post_init__(self) -> None:
        if self.vector_bytes < 1 or self.vector_bytes > 8:
            raise EncodingError(f"vector width must be 1..8 bytes, got {self.vector_bytes}")
        if self.hi < self.lo:
            raise EncodingError(f"empty domain: lo={self.lo} hi={self.hi}")

    @property
    def code_space(self) -> int:
        """Number of representable codes (2^bits)."""
        return 1 << (8 * self.vector_bytes)

    @property
    def num_slices(self) -> int:
        """Data slices (code space minus a reserved ndf code)."""
        return self.code_space - (1 if self.reserve_ndf else 0)

    @property
    def ndf_code(self) -> Optional[int]:
        """The reserved ndf code (Type IV layouts), or None."""
        return self.code_space - 1 if self.reserve_ndf else None

    @property
    def slice_width(self) -> float:
        """Width of one slice in value units."""
        if self.hi == self.lo:
            return 0.0
        return (self.hi - self.lo) / self.num_slices

    def encode(self, value: float) -> int:
        """Slice id of *value*; out-of-domain values clamp to the nearest slice."""
        if value <= self.lo:
            return 0
        if value >= self.hi:
            return self.num_slices - 1
        width = self.slice_width
        code = int((value - self.lo) / width)
        if code >= self.num_slices:
            code = self.num_slices - 1
        return code

    def slice_bounds(self, code: int) -> Tuple[float, float]:
        """The closed interval a code nominally covers (before open-ending)."""
        if not 0 <= code < self.num_slices:
            raise EncodingError(f"code {code} out of range 0..{self.num_slices - 1}")
        if self.hi == self.lo:
            return self.lo, self.hi
        width = self.slice_width
        return self.lo + code * width, self.lo + (code + 1) * width

    def lower_bound(self, query_value: float, code: int) -> float:
        """A guaranteed lower bound on ``|query_value − v|`` for any value
        ``v`` that encodes to *code* — including clamped out-of-domain values.
        """
        lo, hi = self.slice_bounds(code)
        open_low = code == 0
        open_high = code == self.num_slices - 1
        if (open_low or query_value >= lo) and (open_high or query_value <= hi):
            return 0.0
        if not open_low and query_value < lo:
            return lo - query_value
        return query_value - hi

    def lower_bound_array(self, query_value: float, codes):
        """:meth:`lower_bound` for a whole array of codes, as float64.

        The numpy mirror of the scalar routine: the same float operations
        in the same order — ``lo + code * width`` and
        ``lo + (code + 1) * width``, the open-ended boundary slices, the
        ``hi == lo`` domain — so every element is bit-identical to
        ``lower_bound(query_value, code)``.  Codes are taken as int64, whose
        conversion to float64 rounds exactly like Python's ``int * float``;
        callers keep to :data:`VECTORISED_MAX_BYTES`.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if self.hi == self.lo:
            lo, hi = self.lo, self.hi
        else:
            width = self.slice_width
            lo = self.lo + codes * width
            hi = self.lo + (codes + 1) * width
        open_low = codes == 0
        open_high = codes == self.num_slices - 1
        # Python float arithmetic overflows to inf and yields nan silently.
        with np.errstate(over="ignore", invalid="ignore"):
            inside = (open_low | (query_value >= lo)) & (
                open_high | (query_value <= hi)
            )
            below = ~open_low & (query_value < lo)
            return np.where(
                inside,
                0.0,
                np.where(below, lo - query_value, query_value - hi),
            )

    def encode_bytes(self, value: float) -> bytes:
        """The value's code as little-endian bytes."""
        return self.encode(value).to_bytes(self.vector_bytes, "little")

    def ndf_bytes(self) -> bytes:
        """The reserved ndf code as bytes (Type IV layouts)."""
        code = self.ndf_code
        if code is None:
            raise EncodingError("this quantizer reserves no ndf code")
        return code.to_bytes(self.vector_bytes, "little")

    def decode_bytes(self, raw: bytes) -> int:
        """Code from its little-endian byte form."""
        if len(raw) != self.vector_bytes:
            raise EncodingError(
                f"expected {self.vector_bytes} code bytes, got {len(raw)}"
            )
        return int.from_bytes(raw, "little")

    @classmethod
    def from_domain(
        cls,
        lo: Optional[float],
        hi: Optional[float],
        alpha: float,
        reserve_ndf: bool = False,
    ) -> "NumericQuantizer":
        """Build from an observed relative domain (possibly empty so far)."""
        if lo is None or hi is None:
            lo, hi = 0.0, 0.0
        return cls(
            lo=float(lo),
            hi=float(hi),
            vector_bytes=vector_bytes_for_alpha(alpha),
            reserve_ndf=reserve_ndf,
        )
