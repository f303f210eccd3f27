"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """An attribute was used inconsistently with its registered type."""


class StorageError(ReproError):
    """The storage layer was asked to do something impossible.

    Examples: reading past the end of a file, referencing an unknown file,
    or decoding a corrupted row.
    """


class TransientIOError(StorageError):
    """A read failed in a way that is expected to succeed when retried.

    Raised by fault-injecting backends for transient faults; the
    resilience layer's :class:`~repro.resilience.RetryPolicy` treats it
    (and :class:`ChecksumError`) as retryable.
    """


class ChecksumError(StorageError):
    """Stored bytes disagree with their recorded CRC32C frame checksums."""


class JournalError(StorageError):
    """The write-ahead journal cannot uphold its durability contract.

    Raised when an acknowledged mutation could not be journaled (the
    daemon then poisons further writes until restarted — restarting
    recovers from the journal), or when recovery finds the journal and
    the snapshot irreconcilable (e.g. a replayed insert landed on a
    different tid than the one journaled).
    """


class SimulatedCrash(ReproError):
    """A deterministic kill point fired (crash-recovery harness only).

    Raised by :meth:`~repro.resilience.faults.FaultPlan.maybe_kill` when
    an armed plan's :class:`~repro.resilience.faults.KillPoint` is hit.
    Models the process dying at that exact instruction: the harness
    abandons the in-memory state and recovers from durable bytes alone.
    Never raised in production paths (plans without kill points are
    inert).
    """


class IndexError_(ReproError):
    """The index is inconsistent with the table it claims to cover."""


class QueryError(ReproError):
    """A query is malformed (empty, unknown attribute, wrong value type)."""


class EncodingError(ReproError):
    """A value cannot be encoded into an approximation vector."""


class DeadlineExceeded(ReproError):
    """A per-query deadline budget expired before the search completed.

    Raised by the engines when ``deadline_s`` elapses mid-search.  Under
    ``fail_mode="degrade"`` the engines catch it and return a flagged
    partial answer (``SearchReport.degraded`` / ``deadline_hit``) instead
    of propagating.
    """
