"""The storage seam: one backend protocol, two implementations.

Everything above the storage layer — the wide table, the iVA-file, the
engines, fsck, snapshots, both distributed layers — talks to a *backend*
through the interface below.  Two implementations ship:

* :class:`~repro.storage.disk.SimulatedDisk` — the in-memory, page-grained
  store with the paper's seek/transfer cost model (Sec. V runs on it);
* :class:`~repro.storage.hostdisk.HostDisk` — the same interface over a
  real directory, for running the library as an embedded database.

Callers outside :mod:`repro.storage` must not import either concrete class:
they accept a :class:`StorageBackend` and construct instances through
:func:`simulated_backend` / :func:`host_backend`.  That keeps the choice of
substrate a one-line decision at the composition root (CLI, bench harness,
distributed system constructors) instead of a per-module branch.

The protocol is deliberately the *union* of what the upper layers use —
including the I/O-attribution surface (:meth:`StorageBackend.metered`,
:meth:`StorageBackend.io_channel`) that keeps concurrent daemon requests'
I/O apart, which the host backend implements as cheap no-ops (real I/O
has no modeled cost to attribute).
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    ContextManager,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.storage.cache import LRUCache
from repro.storage.disk import DiskParameters, DiskStats, IoMeter


@runtime_checkable
class StorageBackend(Protocol):
    """What every storage substrate must provide.

    Structural (``Protocol``) rather than nominal so the existing concrete
    classes — and any test double with the same surface — satisfy it
    without inheriting from anything.
    """

    #: Cost-model / geometry parameters (host backends keep the defaults;
    #: their modeled time stays zero).
    params: DiskParameters
    #: Logical I/O counters (calls, bytes, modeled milliseconds).
    stats: DiskStats
    #: Page cache (zero-capacity on backends that delegate caching to the OS).
    cache: LRUCache
    #: Optional :class:`repro.obs.trace.Tracer` for per-read spans.
    tracer: Optional[object]

    # ------------------------------------------------------------- files
    def create(self, name: str, *, overwrite: bool = False) -> None:
        """Create an empty file (fails if present unless *overwrite*)."""
        ...

    def delete(self, name: str) -> None:
        """Remove a file."""
        ...

    def exists(self, name: str) -> bool:
        """True if the file exists."""
        ...

    def size(self, name: str) -> int:
        """Current file size in bytes."""
        ...

    def list_files(self) -> Tuple[str, ...]:
        """All file names, sorted."""
        ...

    def total_bytes(self) -> int:
        """Total stored bytes across all files."""
        ...

    # --------------------------------------------------------------- I/O
    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read *length* bytes at *offset*."""
        ...

    def write(self, name: str, offset: int, payload: bytes) -> None:
        """Write bytes at an offset (may extend the file)."""
        ...

    def append(self, name: str, payload: bytes) -> int:
        """Append bytes; returns the offset written at."""
        ...

    def truncate(self, name: str, size: int) -> None:
        """Shrink the file to *size* bytes."""
        ...

    def rename(self, old: str, new: str) -> None:
        """Rename a file, replacing the target if present."""
        ...

    def sync(self, name: str) -> None:
        """Flush a file to stable storage (``fsync`` on real backends)."""
        ...

    # ------------------------------------------------------- cache/stats
    def warm_file(self, name: str) -> None:
        """Pull a file into the page cache (no-op where the OS caches)."""
        ...

    def drop_cache(self) -> None:
        """Empty the page cache."""
        ...

    def reset_stats(self) -> None:
        """Zero every I/O counter."""
        ...

    # -------------------------------------------------- I/O attribution
    def metered(self) -> ContextManager[IoMeter]:
        """Yield an :class:`IoMeter` accumulating this thread's charges.

        The returned object may be entered again after it exits: every
        ``with`` yields the same meter, which sums the charges of all its
        windows and none from between them.  The refine step relies on
        this to meter each table read with one object per run, so a
        backend must not return a generator-based context manager here.
        """
        ...

    def io_channel(self, name: str) -> ContextManager[None]:
        """Route this thread's accesses through their own head channel."""
        ...

    def accounting_scope(
        self, stats: Optional[DiskStats] = None
    ) -> ContextManager[DiskStats]:
        """Route this thread's counters into a side :class:`DiskStats`."""
        ...

    def charge_latency(self, ms: float) -> None:
        """Charge extra modeled I/O time to this thread's accounts."""
        ...

    def publish_metrics(self, registry=None, label: str = "disk0") -> None:
        """Mirror the backend's counters into a metrics registry."""
        ...


def simulated_backend(params: Optional[DiskParameters] = None) -> StorageBackend:
    """A fresh cost-modeled in-memory backend (the paper's substrate)."""
    from repro.storage.disk import SimulatedDisk

    return SimulatedDisk(params)


def host_backend(root: Union[str, Path]) -> StorageBackend:
    """A backend over a real directory on the host filesystem."""
    from repro.storage.hostdisk import HostDisk

    return HostDisk(root)
