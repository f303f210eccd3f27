"""The tuple list shared by scan-based indices (Sec. III-D / IV-B).

A sequence of ``<tid u32, ptr u64>`` elements sorted by tid; ``ptr`` is the
tuple's offset in the table file and is rewritten to :data:`DELETED_PTR`
when the tuple is deleted.  Both the iVA-file and the inverted-index
baseline scan this list to enumerate the tuples being filtered.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.storage import BufferedReader, StorageBackend

ELEMENT = struct.Struct("<IQ")

#: :data:`ELEMENT` as a packed numpy record, for decoding a block at once.
ELEMENT_DTYPE = np.dtype([("tid", "<u4"), ("ptr", "<u8")])

#: Sentinel ptr marking a deleted tuple (Sec. IV-B).
DELETED_PTR = (1 << 64) - 1


class TupleList:
    """Disk-resident tuple list with an in-memory tid → offset map."""

    def __init__(self, disk: StorageBackend, file_name: str) -> None:
        self.disk = disk
        self.file_name = file_name
        self._offsets: Dict[int, int] = {}
        self._count = 0
        self._deleted = 0
        if not disk.exists(file_name):
            disk.create(file_name)

    @property
    def element_count(self) -> int:
        """Elements in the list, tombstones included."""
        return self._count

    @property
    def deleted_count(self) -> int:
        """Number of tombstoned elements."""
        return self._deleted

    @property
    def byte_size(self) -> int:
        """Serialized size of the list in bytes."""
        return self.disk.size(self.file_name)

    def rebuild(self, elements: Iterable[Tuple[int, int]]) -> None:
        """Rewrite the list from scratch with live ``(tid, ptr)`` pairs."""
        self.disk.create(self.file_name, overwrite=True)
        payload = bytearray()
        offsets: Dict[int, int] = {}
        count = 0
        previous = -1
        for tid, ptr in elements:
            if tid <= previous:
                raise IndexError_("tuple list elements must have increasing tids")
            previous = tid
            offsets[tid] = count * ELEMENT.size
            payload += ELEMENT.pack(tid, ptr)
            count += 1
        self.disk.append(self.file_name, bytes(payload))
        self._offsets = offsets
        self._count = count
        self._deleted = 0

    def append(self, tid: int, ptr: int) -> None:
        """Add a fresh tuple at the tail (inserts, Sec. IV-B)."""
        if tid in self._offsets:
            raise IndexError_(f"tid {tid} is already in the tuple list")
        offset = self.disk.append(self.file_name, ELEMENT.pack(tid, ptr))
        self._offsets[tid] = offset
        self._count += 1

    def mark_deleted(self, tid: int) -> None:
        """Rewrite the element's ptr with the deletion sentinel."""
        offset = self._offsets.get(tid)
        if offset is None:
            raise IndexError_(f"tid {tid} is not in the tuple list")
        raw = self.disk.read(self.file_name, offset, ELEMENT.size)
        stored_tid, ptr = ELEMENT.unpack(raw)
        if stored_tid != tid:
            raise IndexError_(
                f"tuple list corrupt: expected tid {tid} at offset {offset}, "
                f"found {stored_tid}"
            )
        if ptr == DELETED_PTR:
            raise IndexError_(f"tid {tid} is already deleted")
        self.disk.write(self.file_name, offset, ELEMENT.pack(tid, DELETED_PTR))
        self._deleted += 1

    def attach(self) -> None:
        """Rebuild the in-memory offset map from the on-disk list.

        Used when re-opening an index: the list's file already exists; one
        sequential pass recovers element offsets, counts and tombstones.
        """
        offsets: Dict[int, int] = {}
        count = 0
        deleted = 0
        for tid, ptr in self.scan():
            offsets[tid] = count * ELEMENT.size
            count += 1
            if ptr == DELETED_PTR:
                deleted += 1
        self._offsets = offsets
        self._count = count
        self._deleted = deleted

    def element_tids(self) -> Tuple[int, ...]:
        """Every element's tid in list order (tombstones included).

        Served from the in-memory offset map — index metadata the list
        already maintains — so it charges no I/O.
        """
        return tuple(self._offsets)

    def scan(self) -> Iterator[Tuple[int, int]]:
        """Sequentially yield ``(tid, ptr)`` for every element, in order."""
        reader = BufferedReader(self.disk, self.file_name, 0)
        size = ELEMENT.size
        while not reader.exhausted():
            yield ELEMENT.unpack(reader.read(size))

    def scan_range(self, start_element: int, end_element: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(tid, ptr)`` for element positions ``[start, end)``.

        The scans' entry point: :class:`~repro.core.iva_file.IVAScan`
        reads ``[0, watermark)``, so a snapshot-pinned reader never sees
        elements appended after its snapshot.
        """
        if not 0 <= start_element <= end_element <= self._count:
            raise IndexError_(
                f"bad tuple-list range [{start_element}, {end_element}) "
                f"over {self._count} elements"
            )
        size = ELEMENT.size
        reader = BufferedReader(
            self.disk, self.file_name, start_element * size, end_element * size
        )
        while not reader.exhausted():
            yield ELEMENT.unpack(reader.read(size))

    def scan_range_blocks(
        self, start_element: int, end_element: int, block_elements: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(tids, ptrs)`` column pairs over ``[start, end)``.

        The block filter kernel's tuple-list feed, *block_elements* at a
        time; the final block may be short.  Each block's bytes are viewed
        as one packed ``(tid, ptr)`` record array and split into its two
        columns: ``tids`` as int64 and ``ptrs`` as uint64 (a tombstone is
        :data:`DELETED_PTR`), which the decoders and the candidacy use as
        they are.  The same bytes stream by in the same order as
        :meth:`scan_range`, so modeled I/O is identical.
        """
        if not 0 <= start_element <= end_element <= self._count:
            raise IndexError_(
                f"bad tuple-list range [{start_element}, {end_element}) "
                f"over {self._count} elements"
            )
        if block_elements < 1:
            raise IndexError_(f"block size must be >= 1, got {block_elements}")
        size = ELEMENT.size
        reader = BufferedReader(
            self.disk, self.file_name, start_element * size, end_element * size
        )
        remaining = end_element - start_element
        while remaining > 0:
            count = block_elements if remaining > block_elements else remaining
            block = np.frombuffer(reader.read(count * size), ELEMENT_DTYPE)
            yield block["tid"].astype(np.int64), block["ptr"].astype(np.uint64)
            remaining -= count
