"""The classic VA-file of Weber et al. [23], with the ndf extension of [24].

The paper excludes it from the evaluation: "The VA-file is excluded from our
evaluations as its size far exceeds that of the table file" — because the
VA-file is *full-dimensional*: every tuple stores one approximation code for
**every** numeric attribute, defined or not, over the attribute's
**absolute** type domain.  On a sparse wide table that is catastrophic both
in size (|T| · #attributes codes) and in precision (real values occupy a
tiny sliver of the absolute domain).  We implement it to regenerate that
argument quantitatively (``benchmarks/bench_ablations.py``) and as a
working reference for dense numeric data.

Strings cannot be mapped to meaningful VA vectors (Sec. II-B), so the
engine accepts numeric-only queries.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.engine import FilterAndRefineEngine, FilterItem
from repro.core.numeric import NumericQuantizer
from repro.core.tuple_list import DELETED_PTR, TupleList
from repro.errors import QueryError
from repro.metrics.distance import DistanceFunction
from repro.query import Query
from repro.storage.pager import BufferedReader
from repro.storage.table import SparseWideTable

#: Default absolute domain: the 32-bit signed integer range the paper cites
#: as the kind of type domain users declare ("users often define large
#: domain attributes, such as 32-bit integer").
ABSOLUTE_DOMAIN = (-2147483648.0, 2147483647.0)


class VAFile:
    """Full-dimensional approximation file over the numeric attributes."""

    def __init__(
        self,
        table: SparseWideTable,
        bytes_per_dim: int = 1,
        name: str = "va",
        absolute_domain: Optional[tuple] = None,
    ) -> None:
        self.table = table
        self.disk = table.disk
        self.name = name
        self.bytes_per_dim = bytes_per_dim
        lo, hi = absolute_domain or ABSOLUTE_DOMAIN
        self.quantizer = NumericQuantizer(
            lo=lo, hi=hi, vector_bytes=bytes_per_dim, reserve_ndf=True
        )
        self._tuples = TupleList(self.disk, self.tuples_file)
        self._dims: List[int] = []

    @property
    def tuples_file(self) -> str:
        """On-disk name of the tuple list."""
        return f"{self.name}.tuples"

    @property
    def vectors_file(self) -> str:
        """On-disk name of the approximation-vector file."""
        return f"{self.name}.dat"

    @property
    def dimensions(self) -> List[int]:
        """Attribute ids covered, in code order."""
        return list(self._dims)

    @property
    def row_bytes(self) -> int:
        """Bytes of one full-dimensional code row."""
        return len(self._dims) * self.bytes_per_dim

    @classmethod
    def build(
        cls, table: SparseWideTable, bytes_per_dim: int = 1, name: str = "va"
    ) -> "VAFile":
        """Construct and bulk-build the index over *table*."""
        index = cls(table, bytes_per_dim=bytes_per_dim, name=name)
        index.rebuild()
        return index

    def rebuild(self) -> None:
        """Rebuild from the table's current live contents."""
        self._dims = [a.attr_id for a in self.table.catalog.numeric_attributes()]
        self.disk.create(self.vectors_file, overwrite=True)
        elements = []
        payload = bytearray()
        for record in self.table.scan():
            elements.append((record.tid, self.table.locate(record.tid)[0]))
            for attr_id in self._dims:
                value = record.cells.get(attr_id)
                if value is None:
                    payload += self.quantizer.ndf_bytes()
                else:
                    payload += self.quantizer.encode_bytes(float(value))
        elements.sort()
        self._tuples.rebuild(elements)
        self.disk.append(self.vectors_file, bytes(payload))

    def insert(self, tid: int, cells) -> None:
        """Append one full-dimensional code row for a new tuple.

        Numeric attributes registered after the last rebuild are not yet
        dimensions of the file; their values become visible at the next
        rebuild (the VA-file has no incremental dimension growth).
        """
        ptr, _ = self.table.locate(tid)
        self._tuples.append(tid, ptr)
        payload = bytearray()
        for attr_id in self._dims:
            value = cells.get(attr_id) if hasattr(cells, "get") else None
            if value is None:
                payload += self.quantizer.ndf_bytes()
            else:
                payload += self.quantizer.encode_bytes(float(value))
        self.disk.append(self.vectors_file, bytes(payload))

    def delete(self, tid: int) -> None:
        """Tombstone the tuple with this tid."""
        self._tuples.mark_deleted(tid)

    def total_bytes(self) -> int:
        """Total serialized footprint in bytes."""
        return self._tuples.byte_size + self.disk.size(self.vectors_file)


class VAFileEngine(FilterAndRefineEngine):
    """Filter-and-refine over the classic VA-file (numeric-only queries)."""

    name = "VA"

    def __init__(
        self,
        table: SparseWideTable,
        index: VAFile,
        distance: Optional[DistanceFunction] = None,
        **engine_kwargs,
    ) -> None:
        super().__init__(table, distance, **engine_kwargs)
        self.index = index

    def _filter(self, query: Query, distance: DistanceFunction) -> Iterator[FilterItem]:
        for term in query.terms:
            if term.attr.is_text:
                raise QueryError(
                    "the VA-file cannot index strings; attribute "
                    f"{term.attr.name!r} is text"
                )
        dim_positions = {attr_id: i for i, attr_id in enumerate(self.index._dims)}
        positions = []
        for term in query.terms:
            pos = dim_positions.get(term.attr.attr_id)
            if pos is None:
                raise QueryError(
                    f"attribute {term.attr.name!r} is not covered by this VA-file"
                )
            positions.append(pos)
        quantizer = self.index.quantizer
        width = self.index.bytes_per_dim
        row_bytes = self.index.row_bytes
        reader = BufferedReader(self.index.disk, self.index.vectors_file, 0)
        ndf_penalty = distance.ndf_penalty

        for tid, ptr in self.index._tuples.scan():
            row = reader.read(row_bytes)
            if ptr == DELETED_PTR:
                continue
            diffs: List[float] = []
            exact = True
            for term, pos in zip(query.terms, positions):
                raw = row[pos * width : (pos + 1) * width]
                code = quantizer.decode_bytes(raw)
                if code == quantizer.ndf_code:
                    diffs.append(ndf_penalty)
                else:
                    exact = False
                    diffs.append(quantizer.lower_bound(float(term.value), code))
            yield tid, diffs, exact
