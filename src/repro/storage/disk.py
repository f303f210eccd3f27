"""A simulated disk with an explicit I/O cost model.

The paper's headline numbers are I/O-bound: the iVA-file wins because it
trades a slightly larger sequential index scan for far fewer random accesses
to the table file (Sec. V-B).  To reproduce those comparisons
deterministically we run every byte of the system through this simulated
disk, which:

* stores each named file as an in-memory byte array,
* charges every access through a seek/transfer cost model at page
  granularity (default: 4 KB pages, 8 ms average seek + rotational delay,
  60 MB/s sequential transfer — a typical 2009 SATA drive),
* filters accesses through a shared LRU page cache (default 10 MB, matching
  the paper's file cache), and
* keeps full counters so experiments can report page reads, seeks, bytes
  moved, and modeled I/O milliseconds.

Sequential vs. random detection mirrors a single disk arm: a page read is
sequential when it is the page that immediately follows the previously
accessed page; anything else pays a seek.
"""

from __future__ import annotations

import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.cache import LRUCache

logger = logging.getLogger(__name__)

DEFAULT_PAGE_SIZE = 4096
DEFAULT_CACHE_BYTES = 10 * 1024 * 1024
#: Reads at least this long copy out through a memoryview (one copy);
#: shorter ones slice and convert, which costs less for a table row.
_VIEW_COPY_BYTES = 2048


@dataclass(frozen=True)
class DiskParameters:
    """Cost model of the simulated drive."""

    page_size: int = DEFAULT_PAGE_SIZE
    #: Average positioning cost (seek + rotational latency) per random access.
    seek_ms: float = 8.0
    #: Sequential transfer rate.
    transfer_mb_per_s: float = 60.0
    #: Capacity of the shared page cache.
    cache_bytes: int = DEFAULT_CACHE_BYTES

    @property
    def transfer_ms_per_page(self) -> float:
        """Milliseconds to stream one page."""
        bytes_per_ms = self.transfer_mb_per_s * 1024 * 1024 / 1000.0
        return self.page_size / bytes_per_ms

    @property
    def cache_pages(self) -> int:
        """Cache capacity in pages."""
        return self.cache_bytes // self.page_size


@dataclass
class DiskStats:
    """Cumulative I/O counters.  Use :meth:`snapshot` / ``-`` for intervals."""

    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    cache_hits: int = 0
    io_time_ms: float = 0.0
    read_calls: int = 0
    write_calls: int = 0
    #: Zero-copy ``read_view`` calls served from an mmap (HostDisk only;
    #: the simulated disk has no mmap path, so this stays zero there).
    mmap_reads: int = 0
    per_file_reads: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "DiskStats":
        """An independent copy of the current counters."""
        return DiskStats(
            pages_read=self.pages_read,
            pages_written=self.pages_written,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            seeks=self.seeks,
            cache_hits=self.cache_hits,
            io_time_ms=self.io_time_ms,
            read_calls=self.read_calls,
            write_calls=self.write_calls,
            mmap_reads=self.mmap_reads,
            per_file_reads=dict(self.per_file_reads),
        )

    def __sub__(self, other: "DiskStats") -> "DiskStats":
        per_file = {
            name: count - other.per_file_reads.get(name, 0)
            for name, count in self.per_file_reads.items()
        }
        per_file = {name: count for name, count in per_file.items() if count}
        return DiskStats(
            pages_read=self.pages_read - other.pages_read,
            pages_written=self.pages_written - other.pages_written,
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
            seeks=self.seeks - other.seeks,
            cache_hits=self.cache_hits - other.cache_hits,
            io_time_ms=self.io_time_ms - other.io_time_ms,
            read_calls=self.read_calls - other.read_calls,
            write_calls=self.write_calls - other.write_calls,
            mmap_reads=self.mmap_reads - other.mmap_reads,
            per_file_reads=per_file,
        )


@dataclass(eq=False)
class IoMeter:
    """Thread-local interval accounting opened with :meth:`SimulatedDisk.metered`.

    Accumulates the modeled cost of every access *charged by the opening
    thread* while the meter is on that thread's stack — the attribution
    primitive behind per-search I/O numbers when the serving daemon runs
    requests on concurrent threads (the global :class:`DiskStats` cannot
    split concurrent charges by thread).

    Every field sums the meter's own charges from zero, so ``io_ms`` is
    exact whatever was charged before the meter opened: it is not a
    difference of two large running totals.
    """

    pages: int = 0
    seeks: int = 0
    cache_hits: int = 0
    #: Modeled I/O milliseconds this thread charged while the meter was open.
    io_ms: float = 0.0


class _ThreadState(threading.local):
    """One thread's I/O attribution state, with its defaults set up front.

    Every thread starts on the ``"main"`` channel, charging the global
    stats, with no meter open.  Setting the defaults per thread keeps each
    lookup a plain attribute read: a ``getattr`` default on a
    ``threading.local`` pays for a raised ``AttributeError`` each time.
    """

    def __init__(self) -> None:
        self.channel = "main"
        self.stats: Optional[DiskStats] = None
        self.meters: List[IoMeter] = []


class _Metered:
    """The context manager :meth:`SimulatedDisk.metered` returns.

    It holds one :class:`IoMeter` for its whole life: every ``with`` puts
    that meter on the thread's stack and takes it off again, so a caller
    that meters many short windows (the refine step, one per table read)
    enters one object again and again, and the meter sums every window.
    """

    __slots__ = ("_disk", "_meter")

    def __init__(self, disk: "SimulatedDisk") -> None:
        self._disk = disk
        self._meter = IoMeter()

    def __enter__(self) -> IoMeter:
        meter = self._meter
        self._disk._tls.meters.append(meter)
        return meter

    def __exit__(self, *exc_info) -> None:
        # Meters compare by identity, so this takes off this meter alone.
        self._disk._tls.meters.remove(self._meter)


class SimulatedDisk:
    """An in-memory file store charging accesses through a disk cost model.

    Thread safety: every access runs under one internal lock, so concurrent
    readers (the serving daemon's request threads, background compaction)
    keep the counters and the LRU cache consistent.  Head positioning is tracked
    **per channel** — by default every thread shares the ``"main"`` channel
    (single disk arm, exactly the historical model); a scan that registers
    its own channel via :meth:`io_channel` gets an independent head, which
    models a multi-queue device where concurrent sequential streams do not
    charge artificial inter-stream seeks against each other.
    """

    def __init__(self, params: Optional[DiskParameters] = None) -> None:
        self.params = params or DiskParameters()
        #: ``params.transfer_ms_per_page``, a property, derived once.
        self._transfer_ms = self.params.transfer_ms_per_page
        self._files: Dict[str, bytearray] = {}
        self.cache = LRUCache(self.params.cache_pages)
        self.stats = DiskStats()
        #: Last page touched per channel, mimicking one disk arm (or one
        #: submission queue) per concurrent sequential stream.
        self._heads: Dict[str, Optional[Tuple[str, int]]] = {"main": None}
        self._lock = threading.RLock()
        self._tls = _ThreadState()
        #: Optional :class:`repro.obs.trace.Tracer`; when set, every read
        #: call records a ``disk.read`` span (duration = modeled I/O ms).
        #: Off by default — per-read spans are strictly opt-in.
        self.tracer = None

    # ------------------------------------------------------- I/O attribution

    @contextmanager
    def io_channel(self, name: str):
        """Route this thread's accesses through their own head channel.

        Nested use restores the previous channel on exit.  The channel's
        head state is dropped when the context closes, so short-lived
        channels do not accumulate.
        """
        previous = self._tls.channel
        self._tls.channel = name
        try:
            yield
        finally:
            self._tls.channel = previous
            if name != "main":
                with self._lock:
                    self._heads.pop(name, None)

    def metered(self) -> "_Metered":
        """Yield an :class:`IoMeter` accumulating this thread's charges.

        Meters nest: every open meter on the current thread's stack sees
        each charge, so an outer whole-phase meter and an inner per-call
        meter can run simultaneously.  The returned object may be entered
        again after it exits; its meter then keeps summing, so the refine
        step meters all of its table reads with one object.
        """
        return _Metered(self)

    def _active_stats(self) -> DiskStats:
        """The :class:`DiskStats` this thread's charges land in."""
        override = self._tls.stats
        return self.stats if override is None else override

    @contextmanager
    def accounting_scope(self, stats: Optional[DiskStats] = None):
        """Route this thread's charges into a side :class:`DiskStats`.

        Background maintenance (online compaction's clone/rebuild) opens a
        scope so its I/O does not pollute the global counters that the
        perf-regression sentinel and ``/metrics`` consumers watch.  The
        scope is thread-local: concurrent readers on other threads keep
        charging the global stats.  Scopes nest (inner override wins);
        the page cache and head state stay shared — only *accounting*
        is redirected, the modeled device is still one device.
        """
        scoped = stats if stats is not None else DiskStats()
        previous = self._tls.stats
        self._tls.stats = scoped
        try:
            yield scoped
        finally:
            self._tls.stats = previous

    def charge_latency(self, ms: float) -> None:
        """Charge *ms* of modeled I/O time that moves no page (a stall).

        Lands where a page charge would: the active stats of the calling
        thread and every meter open on its stack.
        """
        with self._lock:
            self._active_stats().io_time_ms += ms
            for meter in self._tls.meters:
                meter.io_ms += ms

    # ------------------------------------------------------------------ files

    def create(self, name: str, *, overwrite: bool = False) -> None:
        """Create an empty file.  Fails if it exists unless *overwrite*."""
        if name in self._files and not overwrite:
            raise StorageError(f"file already exists: {name!r}")
        if name in self._files:
            self.cache.invalidate_prefix(name)
        self._files[name] = bytearray()

    def delete(self, name: str) -> None:
        """Tombstone the tuple with this tid."""
        if name not in self._files:
            raise StorageError(f"no such file: {name!r}")
        del self._files[name]
        self.cache.invalidate_prefix(name)

    def exists(self, name: str) -> bool:
        """True if the file exists."""
        return name in self._files

    def size(self, name: str) -> int:
        """Current number of members."""
        return len(self._file(name))

    def list_files(self) -> Tuple[str, ...]:
        """All file names, sorted."""
        return tuple(sorted(self._files))

    def total_bytes(self) -> int:
        """Total serialized footprint in bytes."""
        return sum(len(data) for data in self._files.values())

    # ------------------------------------------------------------------- I/O

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read *length* bytes at *offset*, charging modeled I/O cost."""
        with self._lock:
            data = self._file(name)
            if offset < 0 or length < 0:
                raise StorageError("negative offset or length")
            end = offset + length
            if end > len(data):
                raise StorageError(
                    f"read past EOF on {name!r}: offset={offset} length={length} "
                    f"size={len(data)}"
                )
            stats = self._active_stats()
            tracer = self.tracer
            if tracer is not None:
                io_before = stats.io_time_ms
                hits_before = stats.cache_hits
            if length:
                self._charge(name, offset, length, False, stats)
            stats.read_calls += 1
            stats.bytes_read += length
            stats.per_file_reads[name] = stats.per_file_reads.get(name, 0) + 1
            if tracer is not None:
                tracer.record(
                    "disk.read",
                    stats.io_time_ms - io_before,
                    file=name,
                    bytes=length,
                    cache_hits=stats.cache_hits - hits_before,
                )
            if length < _VIEW_COPY_BYTES:
                return bytes(data[offset:end])
            # One copy instead of two: a slice of a bytearray is a copy,
            # and ``bytes()`` of it another.
            return memoryview(data)[offset:end].tobytes()

    def write(self, name: str, offset: int, payload: bytes) -> None:
        """Write *payload* at *offset* (may extend the file)."""
        with self._lock:
            data = self._file(name)
            if offset < 0:
                raise StorageError("negative offset")
            if offset > len(data):
                raise StorageError(
                    f"write would leave a hole in {name!r}: offset={offset} "
                    f"size={len(data)}"
                )
            end = offset + len(payload)
            if end > len(data):
                data.extend(b"\x00" * (end - len(data)))
            data[offset:end] = payload
            stats = self._active_stats()
            if payload:
                self._charge(name, offset, len(payload), True, stats)
            stats.write_calls += 1
            stats.bytes_written += len(payload)

    def append(self, name: str, payload: bytes) -> int:
        """Append *payload*; returns the offset it was written at."""
        offset = len(self._file(name))
        self.write(name, offset, payload)
        return offset

    def truncate(self, name: str, size: int) -> None:
        """Shrink the file to *size* bytes."""
        data = self._file(name)
        if size < 0 or size > len(data):
            raise StorageError(f"bad truncate size {size} for {name!r}")
        del data[size:]
        self.cache.invalidate_prefix(name)

    def rename(self, old: str, new: str) -> None:
        """Rename a file, replacing *new* if it exists (atomic swap-in)."""
        if old not in self._files:
            raise StorageError(f"no such file: {old!r}")
        if new in self._files:
            del self._files[new]
            self.cache.invalidate_prefix(new)
        self._files[new] = self._files.pop(old)
        self.cache.invalidate_prefix(old)

    def sync(self, name: str) -> None:
        """Flush a file to stable storage.

        The simulated disk has no volatile write-back layer — every write
        is immediately "durable" — so this only validates the name.  The
        write-ahead journal still calls it so the same code path does a
        real ``fsync`` on :class:`~repro.storage.hostdisk.HostDisk`.
        """
        self._file(name)

    # ------------------------------------------------------------- cache ops

    def warm_file(self, name: str) -> None:
        """Pull a file's pages into the cache without charging I/O time.

        Used to reproduce the paper's "cache is warmed before each
        experiment" protocol where warming cost is excluded from
        measurements.
        """
        size = self.size(name)
        if size == 0:
            return
        last_page = (size - 1) // self.params.page_size
        for page in range(last_page + 1):
            self.cache.insert((name, page))

    def drop_cache(self) -> None:
        """Empty the page cache."""
        self.cache.clear()

    def reset_stats(self) -> None:
        """Zero every I/O counter."""
        self.stats = DiskStats()
        self.cache.reset_counters()

    # -------------------------------------------------------------- metrics

    def publish_metrics(self, registry=None, label: str = "disk0") -> None:
        """Mirror :class:`DiskStats` and cache state into a metrics registry.

        Registers a *collector* — a callback run at snapshot/export time —
        so the hot I/O path pays nothing.  Counters are exported as gauges
        holding the cumulative values (they reset with :meth:`reset_stats`,
        which a monotonic counter could not express).
        """
        from repro.obs.metrics import get_registry

        registry = registry if registry is not None else get_registry()
        labels = {"disk": label}

        def collect(reg) -> None:
            stats = self.stats
            pairs = (
                ("repro_disk_pages_read", stats.pages_read,
                 "Pages physically read (cache misses)."),
                ("repro_disk_pages_written", stats.pages_written,
                 "Pages physically written."),
                ("repro_disk_bytes_read", stats.bytes_read,
                 "Bytes returned by read calls."),
                ("repro_disk_bytes_written", stats.bytes_written,
                 "Bytes accepted by write calls."),
                ("repro_disk_seeks", stats.seeks,
                 "Full-cost head repositionings (paper's random accesses)."),
                ("repro_disk_read_calls", stats.read_calls,
                 "read() invocations."),
                ("repro_disk_write_calls", stats.write_calls,
                 "write() invocations."),
                ("repro_disk_io_time_ms", stats.io_time_ms,
                 "Modeled I/O milliseconds charged by the cost model."),
                ("repro_disk_cache_hits", stats.cache_hits,
                 "Page touches served from the LRU cache."),
                ("repro_disk_total_bytes", self.total_bytes(),
                 "Serialized footprint of every stored file."),
                ("repro_cache_resident_pages", len(self.cache),
                 "Pages currently resident in the LRU cache."),
            )
            for name, value, help_text in pairs:
                reg.gauge(name, labels=labels, help=help_text).set(value)
            hit_rate = self.cache.hit_rate
            reg.gauge(
                "repro_cache_hit_rate",
                labels=labels,
                help="LRU hits / (hits + misses) since the last reset.",
            ).set(hit_rate if hit_rate is not None else 0.0)

        registry.register_collector(collect)
        logger.debug("disk %s publishing metrics as disk=%s", id(self), label)

    # --------------------------------------------------------------- private

    def _file(self, name: str) -> bytearray:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def _charge(
        self, name: str, offset: int, length: int, write: bool, stats: DiskStats
    ) -> None:
        """Charge the pages of one access to *stats* and the open meters."""
        page_size = self.params.page_size
        first = offset // page_size
        last = (offset + length - 1) // page_size
        tls = self._tls
        meters = tls.meters
        channel = tls.channel
        touch = self.cache.touch
        for page in range(first, last + 1):
            key = (name, page)
            if not write and touch(key):
                stats.cache_hits += 1
                for meter in meters:
                    meter.cache_hits += 1
                continue
            if write:
                # Write-through: page becomes resident, cost is charged.
                self.cache.insert(key)
            seeks_before = stats.seeks
            cost = self._positioning_ms(name, page, channel, stats=stats)
            cost += self._transfer_ms
            stats.io_time_ms += cost
            if write:
                stats.pages_written += 1
            else:
                stats.pages_read += 1
            for meter in meters:
                meter.io_ms += cost
                meter.pages += 1
                meter.seeks += stats.seeks - seeks_before
            self._heads[channel] = key

    def _positioning_ms(
        self,
        name: str,
        page: int,
        channel: str = "main",
        *,
        stats: Optional[DiskStats] = None,
    ) -> float:
        """Head-movement cost of touching (name, page) on *channel*.

        * same page or the next page of the same file — sequential, free;
        * a short *forward* skip within the same file — the platter simply
          spins past the unwanted pages, so the cost is the pass-over time
          of the skipped pages, capped at a full seek (this is what makes
          a dense ascending-tid sweep of the table file cheap, as the
          paper's SII refine numbers imply);
        * anything else (backward, or another file) — a full seek.
        """
        head = self._heads.get(channel)
        if head is not None and head[0] == name:
            gap = page - head[1]
            if 0 <= gap <= 1:
                return 0.0
            if gap > 1:
                skip_ms = (gap - 1) * self._transfer_ms
                if skip_ms < self.params.seek_ms:
                    return skip_ms
        (stats if stats is not None else self._active_stats()).seeks += 1
        return self.params.seek_ms
