"""The sparse inverted index (SII) baseline.

"For each attribute, a list of identifiers of the tuples that have
definition on this attribute is maintained, and only several related lists
are scanned for a query … However, this technique captures no information
with regard to the values and may therefore be inefficient in terms of
filtering." (paper Sec. I-C / II-A, after Yu et al. [7].)

Physical layout mirrors the iVA-file minus the content: a tuple list (same
format) plus one posting list per attribute — fixed-width ``u32`` tids by
default, or delta-varint compressed (``compressed=True``), the classic
inverted-index trade of smaller scans for a little decode CPU.  Query
processing reuses the parallel filter-and-refine plan; the filter's only
knowledge is *defined vs. ndf*, so the per-attribute lower bound is 0
whenever the attribute is defined.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.engine import FilterAndRefineEngine, FilterItem
from repro.core.scan import TID_BYTES
from repro.core.tuple_list import DELETED_PTR, TupleList
from repro.errors import IndexError_
from repro.metrics.distance import DistanceFunction
from repro.query import Query
from repro.storage.pager import BufferedReader
from repro.storage.table import SparseWideTable


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_posting_deltas(tids: Sequence[int]) -> bytes:
    """Delta-gap varint encoding of a sorted tid list."""
    out = bytearray()
    previous = -1
    for tid in tids:
        if tid <= previous:
            raise IndexError_("posting lists must hold strictly increasing tids")
        out += encode_varint(tid - previous - 1)
        previous = tid
    return bytes(out)


class CompressedPostingScanner:
    """Freeze-semantics pointer over a delta-varint posting list."""

    def __init__(self, reader: BufferedReader) -> None:
        self._reader = reader
        self._pending: Optional[int] = None
        self._previous = -1
        self._load_next()

    def _load_next(self) -> None:
        if self._reader.exhausted():
            self._pending = None
            return
        shift = 0
        delta = 0
        while True:
            byte = self._reader.read(1)[0]
            delta |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        self._pending = self._previous + delta + 1
        self._previous = self._pending

    def move_to(self, tid: int) -> bool:
        """True iff the attribute is defined on *tid*."""
        defined = False
        while self._pending is not None and self._pending <= tid:
            if self._pending == tid:
                defined = True
            self._load_next()
        return defined


class PostingScanner:
    """Scanning pointer over one posting list, with freeze semantics."""

    def __init__(self, reader: BufferedReader) -> None:
        self._reader = reader
        self._pending: Optional[int] = None
        self._load_next()

    def _load_next(self) -> None:
        if self._reader.exhausted():
            self._pending = None
        else:
            self._pending = int.from_bytes(self._reader.read(TID_BYTES), "little")

    def move_to(self, tid: int) -> bool:
        """True iff the attribute is defined on *tid*."""
        defined = False
        while self._pending is not None and self._pending <= tid:
            if self._pending == tid:
                defined = True
            self._load_next()
        return defined


class _EmptyPostingScanner:
    """Posting scanner for an attribute with no list (never defined)."""

    def move_to(self, tid: int) -> bool:
        """Advance the pointer to *tid*; see the class docstring."""
        return False


class SparseInvertedIndex:
    """Per-attribute tid posting lists plus the shared tuple list."""

    def __init__(
        self, table: SparseWideTable, name: str = "sii", compressed: bool = False
    ) -> None:
        self.table = table
        self.disk = table.disk
        self.name = name
        self.compressed = compressed
        self._tuples = TupleList(self.disk, self.tuples_file)
        self._known_attrs = 0
        #: Last tid appended per posting list (delta base for inserts).
        self._last_tid: Dict[int, int] = {}

    @property
    def tuples_file(self) -> str:
        """On-disk name of the tuple list."""
        return f"{self.name}.tuples"

    def posting_file(self, attr_id: int) -> str:
        """On-disk name of one attribute's posting list."""
        return f"{self.name}.p{attr_id}"

    @classmethod
    def build(
        cls, table: SparseWideTable, name: str = "sii", compressed: bool = False
    ) -> "SparseInvertedIndex":
        """Construct and bulk-build the index over *table*."""
        index = cls(table, name, compressed=compressed)
        index.rebuild()
        return index

    def rebuild(self) -> None:
        """Rebuild the tuple list and every posting list from the table."""
        postings: Dict[int, List[int]] = {}
        elements = []
        for record in self.table.scan():
            elements.append((record.tid, self.table.locate(record.tid)[0]))
            for attr_id in record.cells:
                postings.setdefault(attr_id, []).append(record.tid)
        elements.sort()
        self._tuples.rebuild(elements)
        for attr in self.table.catalog:
            file_name = self.posting_file(attr.attr_id)
            self.disk.create(file_name, overwrite=True)
            tids = sorted(postings.get(attr.attr_id, []))
            if self.compressed:
                payload = encode_posting_deltas(tids)
            else:
                payload = b"".join(tid.to_bytes(TID_BYTES, "little") for tid in tids)
            self.disk.append(file_name, payload)
            self._last_tid[attr.attr_id] = tids[-1] if tids else -1
        self._known_attrs = len(self.table.catalog)

    def insert(self, tid: int, attr_ids: Sequence[int]) -> None:
        """Index a new tuple: append to the tuple list and each posting tail."""
        self._register_new_attributes()
        ptr, _ = self.table.locate(tid)
        self._tuples.append(tid, ptr)
        for attr_id in attr_ids:
            if attr_id >= self._known_attrs:
                raise IndexError_(f"attribute id {attr_id} is not registered")
            if self.compressed:
                previous = self._last_tid.get(attr_id, -1)
                if tid <= previous:
                    raise IndexError_(
                        f"tid {tid} appended out of order to posting list "
                        f"of attribute {attr_id}"
                    )
                payload = encode_varint(tid - previous - 1)
                self._last_tid[attr_id] = tid
            else:
                payload = tid.to_bytes(TID_BYTES, "little")
            self.disk.append(self.posting_file(attr_id), payload)

    def delete(self, tid: int) -> None:
        """Tombstone in the tuple list; posting lists wait for rebuild."""
        self._tuples.mark_deleted(tid)

    def _register_new_attributes(self) -> None:
        for attr in self.table.catalog:
            if attr.attr_id < self._known_attrs:
                continue
            file_name = self.posting_file(attr.attr_id)
            if not self.disk.exists(file_name):
                self.disk.create(file_name)
        self._known_attrs = len(self.table.catalog)

    def total_bytes(self) -> int:
        """Total serialized footprint in bytes."""
        total = self._tuples.byte_size
        for attr_id in range(self._known_attrs):
            total += self.disk.size(self.posting_file(attr_id))
        return total

    def make_scanner(self, attr_id: int):
        """A fresh scanning pointer over one attribute's list."""
        if attr_id >= self._known_attrs or not self.disk.exists(
            self.posting_file(attr_id)
        ):
            return _EmptyPostingScanner()
        reader = BufferedReader(self.disk, self.posting_file(attr_id), 0)
        if self.compressed:
            return CompressedPostingScanner(reader)
        return PostingScanner(reader)


class SIIEngine(FilterAndRefineEngine):
    """Filter-and-refine over the inverted index: content-blind bounds."""

    name = "SII"

    def __init__(
        self,
        table: SparseWideTable,
        index: SparseInvertedIndex,
        distance: Optional[DistanceFunction] = None,
        **engine_kwargs,
    ) -> None:
        super().__init__(table, distance, **engine_kwargs)
        self.index = index

    def _filter(self, query: Query, distance: DistanceFunction) -> Iterator[FilterItem]:
        scanners = [self.index.make_scanner(a) for a in query.attribute_ids()]
        ndf_penalty = distance.ndf_penalty
        for tid, ptr in self.index._tuples.scan():
            flags = [scanner.move_to(tid) for scanner in scanners]
            if ptr == DELETED_PTR:
                continue
            diffs = [0.0 if defined else ndf_penalty for defined in flags]
            exact = not any(flags)
            yield tid, diffs, exact
