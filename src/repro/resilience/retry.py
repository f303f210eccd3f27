"""Bounded, deterministic retries at the backend read path.

:class:`ResilientBackend` re-issues reads that fail with a *retryable*
error — :class:`~repro.errors.TransientIOError` from a fault layer or a
real flaky device, and :class:`~repro.errors.ChecksumError` from the
checksum layer (a transient bit flip reads clean the second time).
Persistent corruption exhausts the budget and propagates, handing the
failure to the engine's ``fail_mode`` (raise, or degrade with the cut tid
range flagged).

Backoff is exponential with deterministic jitter: the jitter fraction is
a hash of ``(file, offset, attempt)``, not an RNG draw, so chaos runs
stay reproducible.  The default base delay is zero — in a simulated-disk
bench there is nothing to wait *for*; real deployments tune the policy.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.errors import ChecksumError, StorageError, TransientIOError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.resilience._delegate import DelegatingBackend

#: Errors worth retrying — anything else is a programming error or a
#: persistent failure the caller must see immediately.
RETRYABLE = (TransientIOError, ChecksumError)


def _jitter_hash(name: str, offset: int, attempt: int) -> float:
    digest = hashlib.blake2b(
        f"{name}\x1f{offset}\x1f{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    #: Total read attempts (1 = no retries).
    attempts: int = 3
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    max_delay_s: float = 0.05
    #: Jitter fraction: the delay is scaled by ``1 ± jitter``.
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise StorageError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise StorageError("retry delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise StorageError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_for(self, attempt: int, name: str = "", offset: int = 0) -> float:
        """Backoff before retry number *attempt* (1-based)."""
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s
        )
        if delay and self.jitter:
            swing = 2.0 * _jitter_hash(name, offset, attempt) - 1.0
            delay *= 1.0 + self.jitter * swing
        return max(delay, 0.0)


class ResilientBackend(DelegatingBackend):
    """Apply a :class:`RetryPolicy` to the inner backend's reads."""

    def __init__(
        self, inner, policy: RetryPolicy = None, *, registry=None, tracer=None
    ) -> None:
        super().__init__(inner)
        self.policy = policy or RetryPolicy()
        self.retries = 0
        self._retry_counter = (registry or get_registry()).counter(
            "repro_storage_retries_total",
            help="Backend reads re-issued after a retryable failure.",
        )
        self._tracer = tracer

    def read(self, name: str, offset: int, length: int) -> bytes:
        attempt = 1
        while True:
            try:
                return self.inner.read(name, offset, length)
            except RETRYABLE as exc:
                if attempt >= self.policy.attempts:
                    raise
                delay = self.policy.delay_for(attempt, name, offset)
                self.retries += 1
                self._retry_counter.inc()
                tracer = self._tracer or get_tracer()
                tracer.record(
                    "resilience.retry",
                    delay * 1000.0,
                    file=name,
                    offset=offset,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
