"""Resilience layer: fault injection, checksummed frames, retries.

Community systems run on fallible hardware; the iVA-file's guarantees
(paper §III-B/III-C) assume uncorrupted vectors.  This package supplies
the standard wide-table-store reliability stack as composable
:class:`~repro.storage.backend.StorageBackend` wrappers:

* :class:`FaultInjectingBackend` + :class:`FaultPlan` — seeded,
  deterministic chaos (see ``docs/resilience.md`` for the plan format);
* :class:`ChecksummedBackend` — CRC32C frame verification on every read,
  with per-file ``.crc`` sidecars;
* :class:`ResilientBackend` + :class:`RetryPolicy` — bounded retries
  with backoff for transient faults.

The canonical composition (retry outermost, faults innermost, so a
retry re-reads *through* the verifying layer)::

    backend = resilient_stack(simulated_backend(), plan=plan)

Query-level degradation (``fail_mode="degrade"``) lives in the engines
(:mod:`repro.core.engine`); quarantine-and-rebuild
repair in :mod:`repro.storage.fsck`.
"""

from repro.resilience._delegate import DelegatingBackend
from repro.resilience.checksum import (
    FRAME_BYTES,
    SIDECAR_SUFFIX,
    ChecksummedBackend,
    crc32c,
    is_sidecar,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjectingBackend,
    FaultPlan,
    FaultRule,
    KillPoint,
)
from repro.resilience.retry import ResilientBackend, RetryPolicy

__all__ = [
    "DelegatingBackend",
    "ChecksummedBackend",
    "FaultInjectingBackend",
    "FaultPlan",
    "FaultRule",
    "KillPoint",
    "ResilientBackend",
    "RetryPolicy",
    "crc32c",
    "is_sidecar",
    "resilient_stack",
    "FAULT_KINDS",
    "FRAME_BYTES",
    "SIDECAR_SUFFIX",
]


def resilient_stack(
    inner,
    *,
    plan: FaultPlan = None,
    checksums: bool = True,
    policy: RetryPolicy = None,
    registry=None,
):
    """Compose the standard wrapper stack over *inner*.

    Order matters: faults sit closest to the device (they model it),
    checksums verify what comes up from below, and the retry layer
    re-drives the whole verified read on a retryable failure.
    """
    backend = inner
    if plan is not None:
        backend = FaultInjectingBackend(backend, plan, registry=registry)
    if checksums:
        backend = ChecksummedBackend(backend, registry=registry)
    return ResilientBackend(backend, policy, registry=registry)
