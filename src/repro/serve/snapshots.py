"""Snapshot-isolated reads and online cleaning for the serving daemon.

The paper's Sec. IV-B maintenance story is offline: when the deleted
fraction reaches β, *stop the world* and rebuild the table file and the
index.  A long-lived daemon can't stop the world, so this module wraps
one :class:`~repro.maintenance.MaintainedSystem` in a generation scheme
that gives readers MVCC-style isolation and turns the β-rebuild into a
background compaction that never blocks queries:

* A **generation** is one (disk, table, index) triple plus its committed
  **watermark** — the tuple-list element count and index version as of the
  last fully committed write.  Readers :meth:`~SnapshotManager.pin` the
  current generation and scan only up to the watermark, so a concurrent
  insert appending to the same lists is invisible to them (appends land
  strictly past the watermark; the watermark only advances *after* the
  write committed every list).
* **Writes** serialize on ``_write_lock`` and run the existing
  maintenance protocol unchanged; the watermark advance is the commit
  point and is a single pointer update under ``_gen_lock``.
* **Compaction** clones the current generation's bytes onto a fresh
  backend, attaches and rebuilds the clone (dropping tombstones —
  tids are preserved, so answers are bit-identical to a quiesced
  rebuild), then atomically swaps the current-generation pointer.  It
  holds ``_write_lock`` throughout — writers stall, which matches the
  paper's amortised-cost model — but readers keep draining against their
  pinned generation, whose files are never touched.

Two locks, strictly ordered (``_write_lock`` outside ``_gen_lock``):
``_write_lock`` serializes mutations and compaction; ``_gen_lock`` is
held only for pointer/counter flips, so :meth:`pin` never waits on a
writer.

**Durability.**  When a :class:`~repro.serve.journal.WriteAheadJournal`
is attached, every mutation funnels through :meth:`SnapshotManager._commit`,
whose ordering is the crash-safety proof: the record is journaled (and
flushed per policy) *before* the watermark advances, and the watermark
advance is the only way a write becomes acknowledged.  There is no code
path that acknowledges first and journals second — "post-commit,
pre-journal" is impossible by construction, which is exactly what the
crash-sweep harness's ``commit.pre_journal`` / ``commit.post_journal``
kill points demonstrate.  A journal append *failure* (as opposed to a
crash) poisons the write path: later mutations fail fast with
:class:`~repro.errors.JournalError` while reads keep serving, and a
restart recovers the acknowledged state from journal + snapshot.

**Compaction I/O isolation.**  The clone/rebuild runs inside
``accounting_scope`` on both source and destination backends, so its
bulk reads land in a private :class:`~repro.storage.disk.DiskStats`
(reported in the compaction summary and the
``repro_serve_compaction_io_bytes_total`` counter) instead of inflating
the global counters the perf-regression sentinel and dashboards watch.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping, Optional

from repro.core.iva_file import IVAFile
from repro.core.kernel import KernelCache
from repro.errors import JournalError, ReproError, SimulatedCrash
from repro.maintenance import MaintainedSystem
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer, get_tracer
from repro.serve.journal import WriteAheadJournal, write_journal_state
from repro.storage.backend import StorageBackend, simulated_backend
from repro.storage.disk import DiskStats
from repro.storage.table import SparseWideTable

__all__ = [
    "CompactionInProgress",
    "Generation",
    "Snapshot",
    "SnapshotManager",
]


class CompactionInProgress(ReproError):
    """A compaction was requested while one is already running."""


class Generation:
    """One immutable-identity (disk, table, index) triple plus its watermark.

    The kernel cache lives here because it is valid for the lifetime of
    the generation: compiled kernel terms depend only on per-attribute
    quantizers and signature schemes, which inserts never retouch (only a
    rebuild re-derives them — and a rebuild starts a new generation).
    """

    def __init__(
        self,
        gen_id: int,
        disk: StorageBackend,
        table: SparseWideTable,
        index: IVAFile,
        system: MaintainedSystem,
    ) -> None:
        self.gen_id = gen_id
        self.disk = disk
        self.table = table
        self.index = index
        self.system = system
        self.kernel_cache = KernelCache()
        #: Committed watermark: scans bounded here see only committed data.
        self.visible_elements = index.tuple_elements
        self.visible_version = index.version
        #: Readers currently pinning this generation (under ``_gen_lock``).
        self.pins = 0


class Snapshot:
    """A pinned, consistent read view: one generation at one watermark."""

    __slots__ = ("generation", "end_element", "version", "_manager", "_released")

    def __init__(self, manager: "SnapshotManager", generation: Generation) -> None:
        self.generation = generation
        self.end_element = generation.visible_elements
        self.version = generation.visible_version
        self._manager = manager
        self._released = False

    def release(self) -> None:
        """Unpin (idempotent); the generation may then be reclaimed."""
        if not self._released:
            self._released = True
            self._manager._unpin(self.generation)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False


class SnapshotManager:
    """Generations, watermarks, and online compaction over one system."""

    def __init__(
        self,
        disk: StorageBackend,
        table: SparseWideTable,
        index: IVAFile,
        *,
        table_name: str = "table",
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[WriteAheadJournal] = None,
        checkpointer: Optional[Callable[[Generation], object]] = None,
        failpoints=None,
    ) -> None:
        self.table_name = table_name
        self.registry = registry
        self.tracer = tracer
        #: Write-ahead journal; mutations are acknowledged only after a
        #: record lands here (see :meth:`_commit`).
        self.journal = journal
        #: Persists a generation's disk to durable storage (the CLI wires
        #: ``save_disk(gen.disk, snapshot_path)``); enables :meth:`checkpoint`.
        self.checkpointer = checkpointer
        #: Optional :class:`~repro.resilience.faults.FaultPlan` whose kill
        #: points the crash-sweep harness plants in the commit path.
        self.failpoints = failpoints
        self._write_lock = threading.Lock()
        self._gen_lock = threading.Lock()
        self._compacting = False
        self._pinned = 0
        self._journal_failed = False
        self._applied_seq = journal.last_seq if journal is not None else 0
        self._last_compaction_io: Optional[DiskStats] = None
        system = MaintainedSystem(table, [index], registry=registry, tracer=tracer)
        self._current = Generation(0, disk, table, index, system)
        self._publish_generation_gauges()

    def _metrics(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    def _tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    # ------------------------------------------------------------- reading

    def pin(self) -> Snapshot:
        """Pin the current generation at its committed watermark.

        Takes only ``_gen_lock`` — readers never contend with writers or
        a running compaction.
        """
        with self._gen_lock:
            gen = self._current
            gen.pins += 1
            self._pinned += 1
            snapshot = Snapshot(self, gen)
            self._publish_pin_gauge_locked()
        return snapshot

    def _unpin(self, generation: Generation) -> None:
        with self._gen_lock:
            generation.pins -= 1
            self._pinned -= 1
            self._publish_pin_gauge_locked()

    @property
    def current(self) -> Generation:
        with self._gen_lock:
            return self._current

    @property
    def compacting(self) -> bool:
        with self._gen_lock:
            return self._compacting

    @property
    def deleted_fraction(self) -> float:
        """Dead-tuple fraction of the current generation."""
        return self.current.system.deleted_fraction

    # ------------------------------------------------------------- writing

    def insert(self, values: Mapping[str, object]) -> int:
        """Insert; returns the new tid.  Readers see it only once committed."""
        with self._write_lock:
            self._check_writable()
            gen = self.current
            tid = gen.system.insert(values)
            self._commit(gen, {"op": "insert", "values": dict(values), "tid": tid})
        return tid

    def delete(self, tid: int) -> None:
        """Tombstone one tuple.

        Deletes are read-committed, not snapshot-stable: tombstones are
        checked per tuple at refine time against the shared tuple list, so
        a reader pinned before the delete will drop the tuple too.  A
        vanished tuple is always a *correct* miss — never a wrong answer —
        which is the semantics the degrade path already guarantees.
        """
        with self._write_lock:
            self._check_writable()
            gen = self.current
            gen.system.delete(tid)
            self._commit(gen, {"op": "delete", "tid": tid})

    def update(self, tid: int, values: Mapping[str, object]) -> int:
        """The paper's update (delete + insert); returns the fresh tid."""
        with self._write_lock:
            self._check_writable()
            gen = self.current
            new_tid = gen.system.update(tid, values)
            self._commit(
                gen,
                {
                    "op": "update",
                    "tid": tid,
                    "values": dict(values),
                    "new_tid": new_tid,
                },
            )
        return new_tid

    def _check_writable(self) -> None:
        if self._journal_failed:
            raise JournalError(
                "the write-ahead journal failed; the daemon is write-poisoned "
                "— restart to recover acknowledged writes from the journal"
            )

    def _commit(self, gen: Generation, record: dict) -> None:
        """Journal, then advance the watermark — the acknowledgment point.

        The ordering is the durability contract: the watermark advance
        (the only thing that makes a write visible/acknowledged) happens
        strictly after the journal append returns.  A crash anywhere in
        between loses only an *unacknowledged* mutation, which recovery
        may legitimately either drop (not yet journaled) or replay (fully
        journaled but never acknowledged) — both are prefix-consistent
        states the crash sweep accepts.
        """
        if self.failpoints is not None:
            self.failpoints.maybe_kill("commit.pre_journal")
        if self.journal is not None:
            try:
                self._applied_seq = self.journal.append(record)
            except SimulatedCrash:
                self._journal_failed = True
                raise
            except ReproError as exc:
                self._journal_failed = True
                if isinstance(exc, JournalError):
                    raise
                raise JournalError(f"journal append failed: {exc}") from exc
        if self.failpoints is not None:
            self.failpoints.maybe_kill("commit.post_journal")
        with self._gen_lock:
            gen.visible_elements = gen.index.tuple_elements
            gen.visible_version = gen.index.version
        self._publish_generation_gauges()

    # --------------------------------------------------------- checkpoints

    @property
    def applied_seq(self) -> int:
        """Sequence number of the last acknowledged, journaled mutation."""
        return self._applied_seq

    @property
    def journal_status(self) -> Optional[dict]:
        """JSON-able journal/durability state for ``/healthz``."""
        if self.journal is None:
            return None
        status = self.journal.status()
        status["applied_seq"] = self._applied_seq
        status["write_poisoned"] = self._journal_failed
        return status

    def checkpoint(self, reason: str = "save") -> dict:
        """Durably save the current generation, then rotate the journal.

        The order is crash-safe at every step: the journal state file is
        written into the generation's disk first (it rides inside the
        snapshot), the checkpointer persists the snapshot, and only then
        is journal history truncated.  A crash before the rotation leaves
        old records skip-guarded by ``applied_seq``; a crash before the
        save leaves the previous snapshot + full journal.
        """
        if self.checkpointer is None:
            raise ReproError(
                "no checkpointer configured — run the daemon with a journal "
                "or --save-on-exit to enable checkpoints"
            )
        with self._write_lock:
            return self._checkpoint_locked(self.current, reason)

    def _checkpoint_locked(self, gen: Generation, reason: str) -> dict:
        # Callers hold _write_lock (it is not reentrant — compact() calls
        # this directly from inside its own critical section).
        started = time.perf_counter()
        applied = self._applied_seq
        next_tid = gen.table.next_tid
        if self.journal is not None:
            write_journal_state(gen.disk, applied_seq=applied, next_tid=next_tid)
        self.checkpointer(gen)
        if self.failpoints is not None:
            self.failpoints.maybe_kill("checkpoint.rotate")
        if self.journal is not None:
            self.journal.rotate(applied, next_tid)
        duration_ms = (time.perf_counter() - started) * 1000.0
        self._metrics().counter(
            "repro_serve_checkpoints_total",
            labels={"reason": reason},
            help="Durable snapshot checkpoints taken by the serving daemon.",
        ).inc()
        self._tracer().record(
            "serve.checkpoint",
            duration_ms,
            reason=reason,
            applied_seq=applied,
            generation=gen.gen_id,
        )
        return {
            "applied_seq": applied,
            "next_tid": next_tid,
            "generation": gen.gen_id,
            "reason": reason,
            "duration_ms": round(duration_ms, 3),
        }

    # ---------------------------------------------------------- compaction

    def compact(self) -> dict:
        """Clone, rebuild, and swap: the β-cleaning of Sec. IV-B, online.

        Raises :class:`CompactionInProgress` when one is already running.
        Returns a summary dict (generation ids, dead tuples dropped,
        duration).
        """
        with self._gen_lock:
            if self._compacting:
                raise CompactionInProgress("a compaction is already running")
            self._compacting = True
        started = time.perf_counter()
        checkpoint_summary = None
        try:
            with self._write_lock:
                self._check_writable()
                old = self.current
                dead_before = old.table.dead_tuples
                new_gen = self._clone_and_rebuild(old)
                if self.failpoints is not None:
                    self.failpoints.maybe_kill("compact.swap")
                with self._gen_lock:
                    self._current = new_gen
                if self.checkpointer is not None:
                    # The compacted snapshot is the natural rotation point:
                    # persist it and truncate journal history it subsumes.
                    checkpoint_summary = self._checkpoint_locked(
                        new_gen, "compaction"
                    )
        finally:
            with self._gen_lock:
                self._compacting = False
        duration_ms = (time.perf_counter() - started) * 1000.0
        registry = self._metrics()
        registry.counter(
            "repro_serve_compactions_total",
            help="Online compactions completed by the serving daemon.",
        ).inc()
        registry.histogram(
            "repro_serve_compaction_ms",
            help="Wall-clock duration of online compactions.",
        ).observe(duration_ms)
        self._publish_generation_gauges()
        clone_io = self._last_compaction_io
        self._tracer().record(
            "serve.compact",
            duration_ms,
            from_generation=old.gen_id,
            to_generation=new_gen.gen_id,
            dead_tuples_dropped=dead_before,
            live_tuples=len(new_gen.table),
        )
        summary = {
            "from_generation": old.gen_id,
            "to_generation": new_gen.gen_id,
            "dead_tuples_dropped": dead_before,
            "live_tuples": len(new_gen.table),
            "duration_ms": round(duration_ms, 3),
        }
        if clone_io is not None:
            summary["clone_io"] = {
                "bytes_read": clone_io.bytes_read,
                "bytes_written": clone_io.bytes_written,
                "io_time_ms": round(clone_io.io_time_ms, 3),
            }
        if checkpoint_summary is not None:
            summary["checkpoint"] = checkpoint_summary
        return summary

    def maybe_compact(self, beta: float) -> bool:
        """Compact iff the deleted fraction has reached β; True if it ran."""
        if beta <= 0:
            raise ValueError("cleaning trigger threshold β must be positive")
        if self.deleted_fraction >= beta:
            self.compact()
            return True
        return False

    def _clone_and_rebuild(self, old: Generation) -> Generation:
        """A rebuilt copy of *old* on a fresh backend; *old* is untouched.

        All clone/rebuild I/O — the bulk source reads and the fresh
        generation's writes — runs inside an ``accounting_scope`` on both
        backends, charging a private :class:`DiskStats` instead of the
        global counters concurrent queries are measured against.
        """
        src = old.disk
        new_disk = simulated_backend(getattr(src, "params", None))
        clone_stats = DiskStats()
        with src.accounting_scope(clone_stats), new_disk.accounting_scope(
            clone_stats
        ):
            for file_name in src.list_files():
                size = src.size(file_name)
                new_disk.create(file_name)
                if size:
                    new_disk.append(file_name, src.read(file_name, 0, size))
            table = SparseWideTable.attach(new_disk, self.table_name)
            index = IVAFile.attach(table, old.index.config)
            system = MaintainedSystem(
                table, [index], registry=self.registry, tracer=self.tracer
            )
            system.rebuild()
        self._last_compaction_io = clone_stats
        self._metrics().counter(
            "repro_serve_compaction_io_bytes_total",
            help="Bytes moved by compaction clone/rebuild (isolated scope).",
        ).inc(clone_stats.bytes_read + clone_stats.bytes_written)
        return Generation(old.gen_id + 1, new_disk, table, index, system)

    # -------------------------------------------------------------- gauges

    def _publish_generation_gauges(self) -> None:
        registry = self._metrics()
        with self._gen_lock:
            gen_id = self._current.gen_id
            version = self._current.visible_version
        registry.gauge(
            "repro_serve_generation",
            help="Current serving generation id (bumped by compaction).",
        ).set(gen_id)
        registry.gauge(
            "repro_serve_snapshot_version",
            help="Committed index version new snapshots pin.",
        ).set(version)

    def _publish_pin_gauge_locked(self) -> None:
        # Called with _gen_lock held; counts pins across all generations
        # (readers may still hold pre-compaction generations).
        self._metrics().gauge(
            "repro_serve_pinned_readers",
            help="Reader snapshots currently pinned.",
        ).set(self._pinned)
