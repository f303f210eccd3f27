"""A real-filesystem backend with the simulated disk's interface.

Everything above the storage layer (tables, indices, engines) talks to a
*disk* through the same handful of methods; :class:`HostDisk` implements
them over an actual directory, so the library runs as a real embedded
database — no cost modeling, just genuine OS I/O.  The stats object keeps
the logical counters (calls, bytes); modeled time stays zero.

Notes:

* file names are mapped to safe host names (``/`` and odd characters are
  percent-escaped) inside the root directory;
* the ``cache`` attribute is a zero-capacity LRU so code poking cache
  counters keeps working;
* durability is the host filesystem's (writes go straight through).
"""

from __future__ import annotations

import mmap
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import StorageError
from repro.storage.cache import LRUCache
from repro.storage.disk import DiskParameters, DiskStats, IoMeter

_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def _host_name(name: str) -> str:
    out = []
    for ch in name:
        if ch in _SAFE:
            out.append(ch)
        else:
            out.append(f"%{ord(ch):04x}")
    return "".join(out)


class HostDisk:
    """Disk interface over a directory on the host filesystem."""

    def __init__(self, root: Union[str, Path], *, use_mmap: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.params = DiskParameters()
        self.stats = DiskStats()
        self.cache = LRUCache(0)
        #: Per-read span hook (unused here: real I/O has no modeled cost).
        self.tracer = None
        #: Serve :meth:`read_view` from shared read-only mmaps (zero-copy).
        self.use_mmap = use_mmap
        #: name -> (mapping, mapped size).  A mapping is superseded — never
        #: closed — when the file outgrows it or is mutated: handed-out
        #: memoryviews may still reference its buffer, and closing a mapped
        #: region with live exports raises ``BufferError``.
        self._maps: Dict[str, Tuple[mmap.mmap, int]] = {}
        self._retired_maps: List[mmap.mmap] = []
        self._tls = threading.local()
        self._names: dict = {}
        for path in self.root.iterdir():
            if path.is_file():
                self._names[self._logical_name(path.name)] = path.name

    @staticmethod
    def _logical_name(host: str) -> str:
        out = []
        i = 0
        while i < len(host):
            if host[i] == "%" and i + 4 < len(host):
                out.append(chr(int(host[i + 1 : i + 5], 16)))
                i += 5
            else:
                out.append(host[i])
                i += 1
        return "".join(out)

    def _path(self, name: str) -> Path:
        host = self._names.get(name)
        if host is None:
            raise StorageError(f"no such file: {name!r}")
        return self.root / host

    def _invalidate_map(self, name: str) -> None:
        mapped = self._maps.pop(name, None)
        if mapped is not None:
            self._retired_maps.append(mapped[0])

    # ------------------------------------------------------------------ files

    def create(self, name: str, *, overwrite: bool = False) -> None:
        """Create an empty file (overwrite optional)."""
        if name in self._names and not overwrite:
            raise StorageError(f"file already exists: {name!r}")
        self._invalidate_map(name)
        host = _host_name(name)
        (self.root / host).write_bytes(b"")
        self._names[name] = host

    def delete(self, name: str) -> None:
        """Tombstone the tuple with this tid."""
        path = self._path(name)
        self._invalidate_map(name)
        path.unlink()
        del self._names[name]

    def exists(self, name: str) -> bool:
        """True if the file exists."""
        return name in self._names

    def size(self, name: str) -> int:
        """Current number of members."""
        return self._path(name).stat().st_size

    def list_files(self) -> Tuple[str, ...]:
        """All file names, sorted."""
        return tuple(sorted(self._names))

    def total_bytes(self) -> int:
        """Total serialized footprint in bytes."""
        return sum(self.size(name) for name in self._names)

    # ------------------------------------------------------------------- I/O

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read one tuple by address."""
        if offset < 0 or length < 0:
            raise StorageError("negative offset or length")
        path = self._path(name)
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(length)
        if len(data) != length:
            # A short read is indistinguishable from silent truncation
            # upstream — report exactly what came back so fsck/repair can
            # classify it, never return fewer bytes than asked for.
            raise StorageError(
                f"short read on {name!r}: offset={offset} "
                f"expected={length} actual={len(data)}"
            )
        stats = self._active_stats()
        stats.read_calls += 1
        stats.bytes_read += length
        stats.per_file_reads[name] = stats.per_file_reads.get(name, 0) + 1
        return data

    def read_view(self, name: str, offset: int, length: int) -> memoryview:
        """Zero-copy read: a memoryview over a shared read-only mmap.

        The optional capability :class:`~repro.storage.pager.BufferedReader`
        probes for — same validation and short-read contract as
        :meth:`read`, but the returned view aliases the OS page cache
        instead of copying.  A view stays valid across later mutations of
        the file: the superseded mapping is retired, not closed (the
        exported buffer pins it), and the next ``read_view`` remaps.

        With ``use_mmap=False`` this degrades to a copying :meth:`read`
        wrapped in a memoryview, so callers need no fallback of their own.
        """
        if offset < 0 or length < 0:
            raise StorageError("negative offset or length")
        if not self.use_mmap or length == 0:
            return memoryview(self.read(name, offset, length))
        path = self._path(name)
        end = offset + length
        mapped = self._maps.get(name)
        if mapped is None or mapped[1] < end:
            self._invalidate_map(name)
            size = path.stat().st_size
            if end > size:
                actual = max(0, size - offset)
                raise StorageError(
                    f"short read on {name!r}: offset={offset} "
                    f"expected={length} actual={actual}"
                )
            with open(path, "rb") as fh:
                mapping = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
            mapped = (mapping, size)
            self._maps[name] = mapped
        stats = self._active_stats()
        stats.read_calls += 1
        stats.bytes_read += length
        stats.mmap_reads += 1
        stats.per_file_reads[name] = stats.per_file_reads.get(name, 0) + 1
        return memoryview(mapped[0])[offset:end]

    def write(self, name: str, offset: int, payload: bytes) -> None:
        """Write bytes at an offset (may extend the file)."""
        if offset < 0:
            raise StorageError("negative offset")
        path = self._path(name)
        self._invalidate_map(name)
        size = path.stat().st_size
        if offset > size:
            raise StorageError(
                f"write would leave a hole in {name!r}: offset={offset} size={size}"
            )
        with open(path, "r+b") as fh:
            fh.seek(offset)
            written = fh.write(payload)
        if written != len(payload):
            raise StorageError(
                f"partial write on {name!r}: offset={offset} "
                f"expected={len(payload)} actual={written}"
            )
        stats = self._active_stats()
        stats.write_calls += 1
        stats.bytes_written += len(payload)

    def append(self, name: str, payload: bytes) -> int:
        """Append bytes; returns the offset written at."""
        path = self._path(name)
        self._invalidate_map(name)
        with open(path, "ab") as fh:
            offset = fh.tell()
            written = fh.write(payload)
        if written != len(payload):
            raise StorageError(
                f"partial write on {name!r}: offset={offset} "
                f"expected={len(payload)} actual={written}"
            )
        stats = self._active_stats()
        stats.write_calls += 1
        stats.bytes_written += len(payload)
        return offset

    def truncate(self, name: str, size: int) -> None:
        """Shrink the file to *size* bytes."""
        path = self._path(name)
        self._invalidate_map(name)
        current = path.stat().st_size
        if size < 0 or size > current:
            raise StorageError(f"bad truncate size {size} for {name!r}")
        with open(path, "r+b") as fh:
            fh.truncate(size)

    def rename(self, old: str, new: str) -> None:
        """Rename a file, atomically replacing the target if present.

        One ``os.replace``: a failure leaves both names as they were, and
        a crash leaves either the old target or the new file under *new*,
        never neither.
        """
        path = self._path(old)
        self._invalidate_map(old)
        self._invalidate_map(new)
        new_host = _host_name(new)
        os.replace(path, self.root / new_host)
        del self._names[old]
        self._names[new] = new_host

    def sync(self, name: str) -> None:
        """``fsync`` the file — real durability for the write-ahead journal."""
        path = self._path(name)
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------- cache ops

    def warm_file(self, name: str) -> None:
        """No-op: the OS page cache is in charge here."""
        self._path(name)

    def drop_cache(self) -> None:
        """Empty the page cache."""
        pass

    def reset_stats(self) -> None:
        """Zero every I/O counter."""
        self.stats = DiskStats()

    # --------------------------------------------------- I/O attribution

    @contextmanager
    def metered(self):
        """Yield an :class:`IoMeter`; stays zero (no modeled charges here).

        Exists so code written against :class:`~repro.storage.backend.StorageBackend`
        — the parallel executor's per-shard accounting in particular — runs
        unchanged on a host directory.
        """
        yield IoMeter()

    @contextmanager
    def io_channel(self, name: str):
        """No-op: the OS I/O scheduler owns head positioning here."""
        yield

    def _active_stats(self) -> DiskStats:
        """The :class:`DiskStats` this thread's counters land in."""
        override = getattr(self._tls, "stats", None)
        return self.stats if override is None else override

    @contextmanager
    def accounting_scope(self, stats: Optional[DiskStats] = None):
        """Route this thread's counters into a side :class:`DiskStats`.

        Same contract as :meth:`SimulatedDisk.accounting_scope`: background
        maintenance opens a scope so its I/O stays out of the global
        counters other threads keep charging.
        """
        scoped = stats if stats is not None else DiskStats()
        previous = getattr(self._tls, "stats", None)
        self._tls.stats = scoped
        try:
            yield scoped
        finally:
            self._tls.stats = previous

    def publish_metrics(self, registry=None, label: str = "disk0") -> None:
        """Mirror the logical counters into a metrics registry.

        Same collector shape as the simulated backend; modeled-time and
        cache series simply stay zero.
        """
        from repro.obs.metrics import get_registry

        registry = registry if registry is not None else get_registry()
        labels = {"disk": label}

        def collect(reg) -> None:
            stats = self.stats
            pairs = (
                ("repro_disk_bytes_read", stats.bytes_read,
                 "Bytes returned by read calls."),
                ("repro_disk_bytes_written", stats.bytes_written,
                 "Bytes accepted by write calls."),
                ("repro_disk_read_calls", stats.read_calls,
                 "read() invocations."),
                ("repro_disk_write_calls", stats.write_calls,
                 "write() invocations."),
                ("repro_disk_mmap_reads", stats.mmap_reads,
                 "Zero-copy read_view() calls served from a shared mmap."),
            )
            for name, value, help_text in pairs:
                reg.gauge(name, labels, help=help_text).set(float(value))

        registry.register_collector(collect)
