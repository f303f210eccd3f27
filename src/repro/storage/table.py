"""The sparse wide table: an interpreted-format row file plus catalog.

Implements the storage substrate of Sec. III-A / V-A: a single physical
table holding every tuple's defined cells in the interpreted row format,
with append-only inserts, tombstone deletes, update = delete + insert under
a fresh tid, and periodic compaction (``rebuild``) — the update model of
Sec. IV-B.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import SchemaError, StorageError
from repro.model.record import Record
from repro.model.schema import AttributeDef
from repro.model.values import (
    CellValue,
    coerce_value,
    is_ndf,
    is_numeric_value,
    is_text_value,
)
from repro.storage.catalog import Catalog
from repro.storage.backend import StorageBackend
from repro.storage.interpreted import decode_record, encode_record
from repro.storage.pager import BufferedReader


logger = logging.getLogger(__name__)


@dataclass
class AttributeStats:
    """Per-attribute statistics maintained incrementally on insert/delete."""

    #: Number of live tuples defining the attribute (the paper's ``df``).
    df: int = 0
    #: Total number of strings stored on the attribute (``str``; 0 if numeric).
    str_count: int = 0
    #: Observed numeric range — the *relative domain* of Sec. III-C.
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    def observe_numeric(self, value: float) -> None:
        """Widen the observed numeric domain with *value*."""
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value


@dataclass
class TableStats:
    """Aggregate statistics used by index builders and ITF weighting."""

    live_tuples: int = 0
    per_attribute: Dict[int, AttributeStats] = field(default_factory=dict)

    def attr(self, attr_id: int) -> AttributeStats:
        """Per-attribute statistics, created on first touch."""
        stats = self.per_attribute.get(attr_id)
        if stats is None:
            stats = AttributeStats()
            self.per_attribute[attr_id] = stats
        return stats


class SparseWideTable:
    """A schema-free wide table stored as one interpreted-format file."""

    def __init__(
        self,
        disk: StorageBackend,
        name: str = "table",
        catalog: Optional[Catalog] = None,
    ) -> None:
        self.disk = disk
        self.name = name
        self.file_name = f"{name}.dat"
        self.catalog_file = f"{name}.catalog"
        self.tombstone_file = f"{name}.tombstones"
        # `catalog or Catalog()` would discard an *empty* shared catalog
        # (Catalog defines __len__, so a fresh one is falsy).
        self.catalog = catalog if catalog is not None else Catalog()
        self.stats = TableStats()
        self._directory: Dict[int, Tuple[int, int]] = {}
        self._tombstones: Set[int] = set()
        self._next_tid = 0
        self._persisted_attrs = 0
        for file_name in (self.file_name, self.catalog_file, self.tombstone_file):
            if not disk.exists(file_name):
                disk.create(file_name)

    # ---------------------------------------------------------------- sizing

    def __len__(self) -> int:
        """Number of live tuples."""
        return self.stats.live_tuples

    @property
    def file_bytes(self) -> int:
        """Current size of the table's row file."""
        return self.disk.size(self.file_name)

    @property
    def dead_tuples(self) -> int:
        """Tombstoned (not yet cleaned) tuples."""
        return len(self._tombstones)

    def live_tids(self) -> List[int]:
        """Live tids in increasing order."""
        return sorted(tid for tid in self._directory if tid not in self._tombstones)

    def is_live(self, tid: int) -> bool:
        """True if the tid exists and is not tombstoned."""
        return tid in self._directory and tid not in self._tombstones

    @property
    def next_tid(self) -> int:
        """The tid the next insert will be assigned."""
        return self._next_tid

    def advance_next_tid(self, next_tid: int) -> None:
        """Raise the tid allocator to at least *next_tid* (never lowers it).

        Crash recovery needs this: :meth:`attach` recomputes the allocator
        from the records present in the file, but a checkpoint taken after
        compaction has dropped dead rows, so the highest surviving tid can
        undershoot the highest tid ever issued.  Replaying the journal
        against such a snapshot would re-issue old tids — the journal's
        durable state carries the true allocator value and restores it
        here before replay.
        """
        self._next_tid = max(self._next_tid, int(next_tid))

    # --------------------------------------------------------------- inserts

    def prepare_cells(self, values: Mapping[str, object]) -> Dict[int, CellValue]:
        """Coerce ``{attribute name: raw value}`` into id-keyed cells.

        Unknown attribute names are registered on the fly with the type
        inferred from the value; NDF/None entries are dropped.
        """
        cells: Dict[int, CellValue] = {}
        for name, raw in values.items():
            value = coerce_value(raw)
            if is_ndf(value):
                continue
            attr = self.catalog.register_for_value(name, value)
            self._check_type(attr, value)
            cells[attr.attr_id] = value
        if not cells:
            raise SchemaError("a tuple must define at least one attribute")
        return cells

    def insert(self, values: Mapping[str, object]) -> int:
        """Insert a tuple given ``{attribute name: raw value}``; returns tid."""
        return self.insert_record(self.prepare_cells(values))

    def insert_record(self, cells: Dict[int, CellValue]) -> int:
        """Insert pre-coerced cells keyed by attribute id; returns tid."""
        self._persist_new_attributes()
        tid = self._next_tid
        self._next_tid += 1
        record = Record(tid=tid, cells=dict(cells))
        payload = encode_record(record)
        offset = self.disk.append(self.file_name, payload)
        self._directory[tid] = (offset, len(payload))
        self._account_insert(record)
        return tid

    # ----------------------------------------------------------------- reads

    def read(
        self, tid: int, attr_ids: Optional[AbstractSet[int]] = None
    ) -> Record:
        """Random-access read of one tuple (the refine step's table access).

        *attr_ids* projects the returned record onto those attributes
        (see :func:`~repro.storage.interpreted.decode_record`); the I/O is
        the whole row either way.
        """
        location = self._directory.get(tid)
        if location is None or tid in self._tombstones:
            raise StorageError(f"no live tuple with tid {tid}")
        offset, length = location
        payload = self.disk.read(self.file_name, offset, length)
        record, _ = decode_record(payload, attr_ids=attr_ids)
        return record

    def locate(self, tid: int) -> Tuple[int, int]:
        """(offset, length) of a live tuple's row in the table file."""
        location = self._directory.get(tid)
        if location is None or tid in self._tombstones:
            raise StorageError(f"no live tuple with tid {tid}")
        return location

    def scan(self) -> Iterator[Record]:
        """Sequential scan of live tuples in file order (DST's access path)."""
        reader = BufferedReader(self.disk, self.file_name, 0)
        while not reader.exhausted():
            header = reader.read(4)
            total = int.from_bytes(header, "little")
            if total < 4:
                raise StorageError("corrupt row during scan")
            body = reader.read(total - 4)
            record, _ = decode_record(header + body)
            if record.tid not in self._tombstones:
                yield record

    def value(self, tid: int, name: str) -> CellValue:
        """Convenience: a single cell by attribute name."""
        attr = self.catalog.require(name)
        return self.read(tid).value(attr.attr_id)

    # --------------------------------------------------------------- updates

    def delete(self, tid: int) -> None:
        """Tombstone a tuple; the row stays in the file until rebuild."""
        if not self.is_live(tid):
            raise StorageError(f"no live tuple with tid {tid}")
        record = self.read(tid)
        self._tombstones.add(tid)
        self.disk.append(self.tombstone_file, tid.to_bytes(4, "little"))
        self._account_delete(record)

    def update(self, tid: int, values: Mapping[str, object]) -> int:
        """Paper's update: delete the old tuple, insert anew; returns new tid."""
        self.delete(tid)
        return self.insert(values)

    def rebuild(self) -> None:
        """Compact the table file, dropping tombstoned rows (Sec. IV-B)."""
        tmp_name = f"{self.file_name}.rebuild"
        self.disk.create(tmp_name, overwrite=True)
        new_directory: Dict[int, Tuple[int, int]] = {}
        for record in self.scan():
            payload = encode_record(record)
            offset = self.disk.append(tmp_name, payload)
            new_directory[record.tid] = (offset, len(payload))
        self.disk.rename(tmp_name, self.file_name)
        self._directory = new_directory
        self._tombstones = set()
        self.disk.create(self.tombstone_file, overwrite=True)
        logger.info(
            "compacted table %r: %d live tuples, %d bytes",
            self.name,
            len(new_directory),
            self.file_bytes,
        )

    # ----------------------------------------------------------- durability

    def _persist_new_attributes(self) -> None:
        """Append attribute registrations to the on-disk catalog file.

        Entries: ``u16 name_length, utf-8 name, u8 kind`` in id order, so
        :meth:`attach` can rebuild the catalog positionally.
        """
        while self._persisted_attrs < len(self.catalog):
            attr = self.catalog.by_id(self._persisted_attrs)
            raw = attr.name.encode("utf-8")
            payload = (
                len(raw).to_bytes(2, "little")
                + raw
                + bytes([1 if attr.is_text else 0])
            )
            self.disk.append(self.catalog_file, payload)
            self._persisted_attrs += 1

    @classmethod
    def attach(
        cls, disk: StorageBackend, name: str = "table"
    ) -> "SparseWideTable":
        """Re-open a table from its on-disk files (catalog, rows, tombstones).

        Rebuilds the in-memory state — catalog, tid directory, statistics,
        next tid — by reading what :class:`SparseWideTable` persisted, so a
        table survives process restarts of the simulated environment.
        """
        from repro.model.schema import AttributeType
        from repro.storage.pager import BufferedReader

        table = cls.__new__(cls)
        table.disk = disk
        table.name = name
        table.file_name = f"{name}.dat"
        table.catalog_file = f"{name}.catalog"
        table.tombstone_file = f"{name}.tombstones"
        for file_name in (table.file_name, table.catalog_file, table.tombstone_file):
            if not disk.exists(file_name):
                raise StorageError(f"cannot attach: missing file {file_name!r}")

        catalog = Catalog()
        reader = BufferedReader(disk, table.catalog_file, 0)
        while not reader.exhausted():
            name_len = int.from_bytes(reader.read(2), "little")
            attr_name = reader.read(name_len).decode("utf-8")
            kind = AttributeType.TEXT if reader.read(1)[0] else AttributeType.NUMERIC
            catalog.register(attr_name, kind)
        table.catalog = catalog
        table._persisted_attrs = len(catalog)

        tombstones: Set[int] = set()
        reader = BufferedReader(disk, table.tombstone_file, 0)
        while not reader.exhausted():
            tombstones.add(int.from_bytes(reader.read(4), "little"))
        table._tombstones = tombstones

        table.stats = TableStats()
        table._directory = {}
        table._next_tid = 0
        reader = BufferedReader(disk, table.file_name, 0)
        while not reader.exhausted():
            offset = reader.position
            header = reader.read(4)
            total = int.from_bytes(header, "little")
            if total < 4:
                raise StorageError("corrupt row during attach")
            body = reader.read(total - 4)
            record, _ = decode_record(header + body)
            table._directory[record.tid] = (offset, total)
            table._next_tid = max(table._next_tid, record.tid + 1)
            if record.tid not in tombstones:
                table._account_insert(record)
        return table

    # ------------------------------------------------------------ statistics

    def _check_type(self, attr: AttributeDef, value: CellValue) -> None:
        if attr.is_numeric and not is_numeric_value(value):
            raise SchemaError(f"attribute {attr.name!r} expects a numeric value")
        if attr.is_text and not is_text_value(value):
            raise SchemaError(f"attribute {attr.name!r} expects a text value")

    def _account_insert(self, record: Record) -> None:
        self.stats.live_tuples += 1
        for attr_id, value in record.cells.items():
            stats = self.stats.attr(attr_id)
            stats.df += 1
            if is_text_value(value):
                stats.str_count += len(value)
            elif is_numeric_value(value):
                stats.observe_numeric(value)

    def _account_delete(self, record: Record) -> None:
        self.stats.live_tuples -= 1
        for attr_id, value in record.cells.items():
            stats = self.stats.attr(attr_id)
            stats.df -= 1
            if is_text_value(value):
                stats.str_count -= len(value)
            # Numeric min/max are kept conservative (never shrink on delete):
            # the relative domain may only widen, which preserves lower
            # bounds; rebuilding an index re-derives the tight domain.
