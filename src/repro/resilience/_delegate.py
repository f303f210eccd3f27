"""Shared delegating base for resilience backend wrappers.

Every wrapper in this package (fault injection, checksum verification,
retry) decorates an inner :class:`~repro.storage.backend.StorageBackend`
and must keep presenting the *whole* protocol surface — engines reach
through ``disk.stats`` / ``disk.metered()`` / ``disk.publish_metrics``
just as they do on a bare disk.  :class:`DelegatingBackend` forwards the
full surface so subclasses override only the operations they shape.
"""

from __future__ import annotations

from typing import List


class DelegatingBackend:
    """Forwards the complete ``StorageBackend`` protocol to ``inner``."""

    #: Zero-copy reads are an *optional* backend capability discovered by
    #: duck-typed probe (``BufferedReader``).  Wrappers must not let the
    #: probe tunnel through ``__getattr__`` to the inner backend — a
    #: checksummed or fault-injected stack would be silently bypassed.
    #: Pinned to None here; a wrapper that can legitimately pass views
    #: through (none today) would override it explicitly.
    read_view = None

    def __init__(self, inner) -> None:
        self.inner = inner

    # ------------------------------------------------------- attributes

    @property
    def params(self):
        return self.inner.params

    @property
    def stats(self):
        return self.inner.stats

    @property
    def cache(self):
        return self.inner.cache

    @property
    def tracer(self):
        return self.inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.inner.tracer = value

    # ------------------------------------------------------- lifecycle

    def create(self, name: str, *, overwrite: bool = False) -> None:
        self.inner.create(name, overwrite=overwrite)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def size(self, name: str) -> int:
        return self.inner.size(name)

    def list_files(self) -> List[str]:
        return self.inner.list_files()

    def total_bytes(self) -> int:
        return self.inner.total_bytes()

    # ------------------------------------------------------------- I/O

    def read(self, name: str, offset: int, length: int) -> bytes:
        return self.inner.read(name, offset, length)

    def write(self, name: str, offset: int, payload: bytes) -> None:
        self.inner.write(name, offset, payload)

    def append(self, name: str, payload: bytes) -> int:
        return self.inner.append(name, payload)

    def truncate(self, name: str, size: int) -> None:
        self.inner.truncate(name, size)

    def rename(self, old: str, new: str) -> None:
        self.inner.rename(old, new)

    def sync(self, name: str) -> None:
        self.inner.sync(name)

    # ----------------------------------------------------------- cache

    def warm_file(self, name: str) -> None:
        self.inner.warm_file(name)

    def drop_cache(self) -> None:
        self.inner.drop_cache()

    # ------------------------------------------------------- telemetry

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    def metered(self):
        return self.inner.metered()

    def io_channel(self, name: str):
        return self.inner.io_channel(name)

    def accounting_scope(self, stats=None):
        return self.inner.accounting_scope(stats)

    def charge_latency(self, ms: float) -> None:
        self.inner.charge_latency(ms)

    def publish_metrics(self, registry=None, label: str = "disk0") -> None:
        self.inner.publish_metrics(registry, label=label)

    # Anything outside the protocol (e.g. ``verify_file`` on a nested
    # ChecksummedBackend) stays reachable through the stack.
    def __getattr__(self, item: str):
        return getattr(self.inner, item)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.inner!r})"
