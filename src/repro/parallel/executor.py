"""The parallel filter/refine executor (Algorithm 1, sharded).

Execution model
---------------

The filter phase is split into tid-range shards (:mod:`.shards`); a thread
pool scans them concurrently.  Each worker keeps a **local**
:class:`~repro.core.pool.ResultPool` that absorbs exact-distance shortcuts
without any lock traffic, prunes against both its local pool and a shared
monotonically-tightening global bound, and pushes surviving candidates
onto a bounded queue.  The calling thread is the single refiner: it drains
the queue — overlapping table-file random reads with the ongoing scan —
re-checks candidacy against the global pool, fetches and inserts.  When a
shard finishes, its local pool is merged into the global pool and the
shared bound tightens, so late shards inherit every earlier shard's
pruning power (the bound-tightening feedback hook).

Determinism
-----------

Results are bit-identical to the sequential path.  The pool's final
contents are the k smallest entries under the total order ``(distance,
tid)`` — a pure function of the inserted multiset (see
:mod:`repro.core.pool`) — and no true top-k member is ever pruned: bounds
only tighten, estimates never exceed actual distances, and every candidacy
check is tie-aware on tid.  Workers may refine *more* tuples than the
sequential scan (their bound lags the global pool), so cost counters can
differ; answers cannot.

Accounting
----------

Shards are assigned to workers statically — contiguous chunks, round
lengths differing by at most one — so the modeled latency is deterministic
and a worker's shards are adjacent tid ranges (its I/O channel continues
sequentially across its own shard boundaries).

Reports model the critical path, the convention the distributed layer
already uses: the filter phase costs its setup (attribute-list reads plus
the — normally cache-served — shard plan) plus the **slowest worker**
(modeled I/O summed over the worker's shards from a thread-local meter,
CPU via ``time.thread_time``, which is robust to GIL interleaving);
refine costs are the refiner thread's own meters.  Each worker scans
through its own disk I/O channel — the multi-queue-device model — so
concurrent sequential streams do not charge artificial inter-stream
seeks.

Observability
-------------

Every search emits through :mod:`repro.obs`: ``parallel.shard_scan`` and
``parallel.merge`` spans under the ``query`` span, per-worker shard-scan
histograms, a candidate-queue high-water gauge, and fallback counters.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import (
    FAIL_MODES,
    REFINE_BATCH,
    BoundEvaluator,
    QueryResult,
    SearchReport,
    observe_search,
    trace_phases,
)
from repro.core.iva_file import DELETED_PTR, IVAFile
from repro.core.kernel import BLOCK_TUPLES, KernelCache, QueryKernel
from repro.core.pool import ResultPool
from repro.errors import DeadlineExceeded, ParallelError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.profile import ProfileCollector
from repro.obs.trace import Span, Tracer, get_tracer
from repro.parallel.config import ExecutorConfig
from repro.parallel.shards import ShardPlanner, ShardRange
from repro.query import Query


class ParallelExecutionError(ParallelError):
    """The worker pool failed to start or a shard died mid-scan.

    Engines catch this and fall back to the sequential path when
    ``ExecutorConfig.fallback`` is set.  When a shard died, the failing
    shard's context rides along: ``shard`` (its index), ``worker`` (the
    thread label), ``tid_range`` (the tids it covered), and the original
    worker exception as ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: Optional[int] = None,
        worker: Optional[str] = None,
        tid_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.worker = worker
        self.tid_range = tid_range


@dataclass
class ParallelSearchReport(SearchReport):
    """A :class:`SearchReport` plus the parallel execution breakdown."""

    #: Worker threads the pool ran with.
    workers: int = 0
    #: Shards the scan was split into.
    shards: int = 0
    #: Modeled I/O of the planning pass charged to this query (0 when the
    #: plan was served from cache).
    planning_io_ms: float = 0.0
    #: Per-shard modeled scan I/O milliseconds (shard order).
    shard_io_ms: List[float] = field(default_factory=list)
    #: Per-shard scan CPU seconds (``time.thread_time`` per worker).
    shard_cpu_s: List[float] = field(default_factory=list)
    #: Local-pool entries admitted into the global pool at merge time.
    merged_candidates: int = 0
    #: High-water mark of the bounded candidate queue.
    max_queue_depth: int = 0


class SharedBound:
    """A monotonically tightening ``(distance, tid)`` pruning bound.

    Workers read it lock-free (a single attribute load is atomic under the
    GIL); :meth:`tighten` takes a lock only to keep updates monotone.
    ``None`` means the global pool is not yet full — nothing can be pruned.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value: Optional[Tuple[float, int]] = None
        self._lock = threading.Lock()

    def get(self) -> Optional[Tuple[float, int]]:
        """The current bound, or None while the global pool is not full."""
        return self._value

    def tighten(self, bound: Tuple[float, int]) -> None:
        """Lower the bound; looser values than the current one are ignored."""
        with self._lock:
            current = self._value
            if current is None or bound < current:
                self._value = bound


@dataclass
class _ShardStats:
    """What one worker hands back alongside its local pools."""

    shard: int
    worker: str = ""
    tuples: int = 0
    exact_shortcuts: List[int] = field(default_factory=list)
    io_ms: float = 0.0
    pages: int = 0
    cpu_s: float = 0.0
    error: Optional[BaseException] = None
    #: Vector-list segments decoded columnar (v3 kernel shards only).
    segments: int = 0
    #: The scan loop saw the abort flag and stopped early.  In degrade
    #: mode nothing but a deadline cut sets abort, so ``aborted`` there
    #: means "cut by the deadline" and the shard's tail was not scanned.
    aborted: bool = False


@dataclass
class _ShardDone:
    """Queue sentinel: a shard finished (or died — see ``stats.error``)."""

    stats: _ShardStats
    local_pools: List[ResultPool]
    #: Shard-local profile collectors (one per query), present only when
    #: the run profiles; absorbed into the per-query masters at merge time.
    profiles: Optional[List[ProfileCollector]] = None


@dataclass
class _QueryCtx:
    """Per-query state shared between the refiner and the workers."""

    query: Query
    evaluator: BoundEvaluator
    shared: SharedBound
    #: Compiled filter kernel, set when the run uses the v3 kernel; one
    #: compiled artifact per query, shared by ALL shard
    #: workers (the lazily-growing lookup tables are filled with values
    #: from pure functions, so concurrent memoisation is benign — two
    #: threads can only ever write the same entry).
    kernel: Optional[QueryKernel] = None


@dataclass
class _RunResult:
    """Everything :meth:`ParallelScanExecutor.run` measured."""

    pools: List[ResultPool]
    workers: int = 0
    shards: int = 0
    planning_io_ms: float = 0.0
    shard_stats: List[_ShardStats] = field(default_factory=list)
    tuples_scanned: int = 0
    exact_shortcuts: List[int] = field(default_factory=list)
    table_accesses: List[int] = field(default_factory=list)
    refine_io_ms: float = 0.0
    refine_cpu_s: float = 0.0
    merge_cpu_s: float = 0.0
    setup_cpu_s: float = 0.0
    merged_candidates: int = 0
    max_queue_depth: int = 0
    #: Vector-list segments decoded columnar across all shards (v3 only).
    segments_total: int = 0
    #: Degradation account (``fail_mode="degrade"`` only): shards whose
    #: scan could not be recovered, and the tid ranges they covered.
    degraded: bool = False
    lost_shards: List[int] = field(default_factory=list)
    lost_tid_ranges: List[Tuple[int, int]] = field(default_factory=list)
    recovered_shards: int = 0
    #: The run's deadline expired; aborted shards are accounted lost.
    deadline_hit: bool = False
    #: Per-query master profile collectors (profiled runs only).
    profiles: Optional[List[ProfileCollector]] = None


class ParallelScanExecutor:
    """Runs one or many queries' Algorithm 1 over a sharded scan.

    One instance per (table, index) pair; it owns the shard-plan cache, so
    keep it across searches (the engines do).  ``run`` is not reentrant —
    one search at a time per executor.
    """

    def __init__(
        self,
        table,
        index: IVAFile,
        config: ExecutorConfig,
        planner: Optional[ShardPlanner] = None,
    ) -> None:
        self.table = table
        self.index = index
        self.config = config
        #: *planner* lets long-lived callers (the serving daemon) share one
        #: plan cache across per-request executors; attached indexes have
        #: no sync directory, so a fresh planner would pay a charged plan
        #: walk per request.
        self.planner = planner if planner is not None else ShardPlanner(index)
        # Run-scoped state (``run`` is not reentrant): the tracer and the
        # query span workers attach to, and the profiling configuration.
        self._run_tracer: Tracer = get_tracer()
        self._run_parent: Optional[Span] = None
        self._run_profile: bool = False
        self._run_position: Optional[Dict[int, int]] = None
        self._run_profiles: Optional[List[ProfileCollector]] = None
        self._run_kernel: str = "scalar"

    # ------------------------------------------------------------------ run

    def run(
        self,
        queries: Sequence[Query],
        k: int,
        dist: DistanceFunction,
        *,
        skip_exact: bool = True,
        kernel: str = "scalar",
        fail_mode: str = "raise",
        tracer: Optional[Tracer] = None,
        parent_span: Optional[Span] = None,
        profile: bool = False,
        deadline: Optional[float] = None,
        end_element: Optional[int] = None,
        kernel_cache: Optional[KernelCache] = None,
    ) -> _RunResult:
        """Execute the sharded scan; raises :class:`ParallelExecutionError`
        when the pool cannot start or a worker dies.

        *deadline* (absolute ``time.perf_counter()``) cuts the run short:
        workers abort at the next tuple/block boundary, candidates already
        enqueued are still refined (never a silently-wrong full answer),
        and aborted shards are accounted as lost tid ranges.  In
        ``"raise"`` mode an expired deadline raises
        :class:`~repro.errors.DeadlineExceeded` instead.  *end_element*
        bounds the scan to a snapshot watermark; *kernel_cache* supplies a
        shared compiled-term cache for the v3 kernel.

        *kernel* selects the filter strategy: ``"scalar"`` walks every
        scanner tuple by tuple; ``"v3"`` compiles one :class:`QueryKernel`
        per query up front — sharing gram sets, masks and lookup tables
        through one :class:`KernelCache` across every query *and* every
        shard worker — then shard workers decode whole segments columnar
        (``decode_segment``/``evaluate_segments``) block-at-a-time and the
        refiner batches its table reads by page.  Answers are bit-identical
        in both modes.

        *fail_mode* picks the shard-failure policy: ``"raise"`` aborts
        the run on the first dead shard (sequential-fallback semantics);
        ``"degrade"`` walks the recovery ladder — retry the shard, then
        re-scan it sequentially without the kernel, and only then record
        it lost — and always returns a result, flagged ``degraded`` with
        the lost tid ranges when a shard could not be saved.

        *tracer*/*parent_span* propagate span context into the shard
        workers: each shard scan runs inside a live ``parallel.shard_scan``
        span attached under *parent_span* (the caller's open ``query``
        span), so traces show the true query tree instead of orphan roots.
        *profile* gives every shard worker per-query
        :class:`ProfileCollector`\\ s, merged into ``result.profiles``.
        """
        if fail_mode not in FAIL_MODES:
            raise ParallelError(
                f"fail_mode must be one of {FAIL_MODES}, got {fail_mode!r}"
            )
        attr_ids = tuple(sorted({t.attr.attr_id for q in queries for t in q.terms}))
        position = {attr_id: i for i, attr_id in enumerate(attr_ids)}
        if len(queries) == 1 and attr_ids == queries[0].attribute_ids():
            position_map = None  # payloads align 1:1 with the query's terms
        else:
            position_map = position
        self._run_tracer = tracer if tracer is not None else get_tracer()
        self._run_parent = parent_span
        self._run_profile = profile
        self._run_position = position_map
        self._run_profiles = (
            [ProfileCollector.for_query(q, position_map) for q in queries]
            if profile
            else None
        )
        self._run_kernel = kernel

        result = _RunResult(pools=[ResultPool(k) for _ in queries])
        result.exact_shortcuts = [0] * len(queries)
        result.table_accesses = [0] * len(queries)
        disk = self.table.disk

        # Per-query setup: Algorithm 1's attribute-list reads plus the
        # (possibly cached) shard plan.  Charged to the filter phase.
        setup_cpu0 = time.thread_time()
        with disk.metered() as setup_meter:
            self.index.read_attr_elements(attr_ids)
            visible = self.index.tuple_elements
            if end_element is not None:
                visible = min(visible, end_element)
            shard_count = self.config.shard_count(visible)
            shards = self.planner.plan(attr_ids, shard_count, end_element)
        result.planning_io_ms = setup_meter.io_ms
        result.setup_cpu_s = time.thread_time() - setup_cpu0
        result.shards = len(shards)
        workers = min(self.config.effective_workers(), len(shards))
        result.workers = workers

        contexts = [
            _QueryCtx(
                query=query,
                evaluator=BoundEvaluator(self.index, query, dist, position_map),
                shared=SharedBound(),
            )
            for query in queries
        ]
        if kernel == "v3":
            compile_cpu0 = time.thread_time()
            shared_terms = kernel_cache if kernel_cache is not None else KernelCache()
            for ctx in contexts:
                ctx.kernel = QueryKernel.compile(
                    self.index, ctx.query, dist, position_map, cache=shared_terms
                )
            # Compilation happens once on the caller, before any worker
            # starts; charge it to the query's setup cost.
            result.setup_cpu_s += time.thread_time() - compile_cpu0
        out_queue: "queue_module.Queue" = queue_module.Queue(
            maxsize=self.config.queue_depth
        )
        abort = threading.Event()

        try:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-parallel"
            )
        except Exception as exc:  # pool failed to start
            raise ParallelExecutionError(f"worker pool failed to start: {exc}") from exc

        # Static contiguous assignment: worker w gets shards
        # [w·chunk, …) — deterministic critical path, adjacent tid ranges.
        chunks: List[List[ShardRange]] = []
        base, extra = divmod(len(shards), workers)
        cursor = 0
        for w in range(workers):
            size = base + (1 if w < extra else 0)
            chunks.append(shards[cursor : cursor + size])
            cursor += size

        # Tids already refined per query — maintained only in degrade
        # mode, where a recovered shard's re-scan may re-emit candidates
        # the failed scan already delivered (a duplicate insert would
        # corrupt the top-k multiset).
        seen: Optional[List[set]] = (
            [set() for _ in queries] if fail_mode == "degrade" else None
        )
        records: Dict[int, object] = {}
        try:
            try:
                for w, chunk in enumerate(chunks):
                    pool.submit(
                        self._run_worker,
                        w,
                        chunk,
                        attr_ids,
                        contexts,
                        k,
                        dist,
                        skip_exact,
                        out_queue,
                        abort,
                    )
            except Exception as exc:
                abort.set()
                raise ParallelExecutionError(
                    f"worker pool rejected shard submission: {exc}"
                ) from exc
            failures = self._refine_loop(
                contexts,
                dist,
                skip_exact,
                out_queue,
                abort,
                result,
                records,
                seen,
                fail_mode,
                deadline,
            )
        finally:
            abort.set()
            pool.shutdown(wait=True)

        aborted = [s for s in result.shard_stats if s.aborted]
        if result.deadline_hit and not aborted and not failures:
            # The deadline fired after every shard had already delivered:
            # the answer is complete, so don't degrade it.
            result.deadline_hit = False
        if result.deadline_hit:
            if fail_mode == "raise":
                raise DeadlineExceeded(
                    f"parallel scan cut short by deadline "
                    f"({len(aborted)} shards aborted, "
                    f"{len(failures)} shard errors pending)"
                )
            # Degrade: aborted shards' unscanned tails — and any shards
            # that died outright — are accounted lost without walking the
            # recovery ladder (re-scanning against a blown budget only
            # makes the overrun worse).  The whole-shard tid range is a
            # conservative overcount of what was actually missed.
            by_index = {shard.index: shard for shard in shards}
            result.degraded = True
            for stats in aborted:
                result.lost_shards.append(stats.shard)
                result.lost_tid_ranges.append(
                    self._shard_tid_range(by_index.get(stats.shard))
                )
            for failure in failures:
                result.lost_shards.append(failure.shard)
                result.lost_tid_ranges.append(
                    self._shard_tid_range(by_index.get(failure.shard))
                )
            result.lost_shards.sort()
        elif failures:
            by_index = {shard.index: shard for shard in shards}
            if fail_mode == "raise":
                failure = failures[0]
                tid_range = self._shard_tid_range(by_index.get(failure.shard))
                raise ParallelExecutionError(
                    f"shard {failure.shard} failed on worker {failure.worker} "
                    f"(tids {tid_range[0]}..{tid_range[1]}): {failure.error}",
                    shard=failure.shard,
                    worker=failure.worker,
                    tid_range=tid_range,
                ) from failure.error
            self._recover_shards(
                failures,
                by_index,
                attr_ids,
                contexts,
                k,
                dist,
                skip_exact,
                result,
                records,
                seen,
            )
        result.profiles = self._run_profiles
        return result

    # -------------------------------------------------------------- workers

    def _run_worker(
        self,
        worker_idx: int,
        shard_chunk: List[ShardRange],
        attr_ids: Tuple[int, ...],
        contexts: List[_QueryCtx],
        k: int,
        dist: DistanceFunction,
        skip_exact: bool,
        out_queue: "queue_module.Queue",
        abort: threading.Event,
    ) -> None:
        """Scan this worker's contiguous shard chunk, one shard at a time.

        Per-shard granularity is kept so each finished shard's local pool
        merges (and tightens the shared bound) while the worker's next
        shard is still scanning.
        """
        label = f"w{worker_idx}"
        for shard in shard_chunk:
            self._scan_shard(
                shard, label, attr_ids, contexts, k, dist, skip_exact, out_queue, abort
            )

    def _scan_shard(
        self,
        shard: ShardRange,
        worker: str,
        attr_ids: Tuple[int, ...],
        contexts: List[_QueryCtx],
        k: int,
        dist: DistanceFunction,
        skip_exact: bool,
        out_queue: "queue_module.Queue",
        abort: threading.Event,
    ) -> None:
        """Scan one shard; runs on a worker thread.

        The scan body executes inside a live ``parallel.shard_scan`` span
        attached under the run's ``query`` span (see
        :meth:`~repro.obs.trace.Tracer.attach`), so worker spans — and any
        ``disk.read``/resilience spans they open — nest in the query tree
        instead of becoming orphan roots on the worker's fresh stack.

        Always enqueues a :class:`_ShardDone` sentinel last — the refiner
        counts sentinels to know the queue is fully drained (FIFO order
        guarantees every candidate this worker produced precedes it).
        """
        stats = _ShardStats(
            shard=shard.index,
            worker=worker,
            exact_shortcuts=[0] * len(contexts),
        )
        local_pools = [ResultPool(k) for _ in contexts]
        collectors: Optional[List[ProfileCollector]] = None
        if self._run_profile:
            collectors = [
                ProfileCollector.for_query(ctx.query, self._run_position)
                for ctx in contexts
            ]
        tracer = self._run_tracer
        try:
            with tracer.attach(self._run_parent):
                with tracer.span(
                    "parallel.shard_scan", shard=shard.index, worker=worker
                ) as span:
                    self._scan_shard_body(
                        shard,
                        worker,
                        attr_ids,
                        contexts,
                        dist,
                        skip_exact,
                        out_queue,
                        abort,
                        stats,
                        local_pools,
                        collectors,
                    )
                    span.attrs["io_ms"] = stats.io_ms
                    span.attrs["tuples"] = stats.tuples
                    span.attrs["cpu_ms"] = stats.cpu_s * 1000.0
        except BaseException as exc:  # noqa: BLE001 - handed to the refiner
            stats.error = exc
        finally:
            out_queue.put(
                _ShardDone(stats=stats, local_pools=local_pools, profiles=collectors)
            )

    def _scan_shard_body(
        self,
        shard: ShardRange,
        worker: str,
        attr_ids: Tuple[int, ...],
        contexts: List[_QueryCtx],
        dist: DistanceFunction,
        skip_exact: bool,
        out_queue: "queue_module.Queue",
        abort: threading.Event,
        stats: _ShardStats,
        local_pools: List[ResultPool],
        collectors: Optional[List[ProfileCollector]],
    ) -> None:
        """The metered scan loop of one shard (scalar or v3 kernel)."""
        disk = self.table.disk
        batch = len(contexts) > 1
        block = contexts[0].kernel is not None if contexts else False
        with disk.io_channel(f"parallel-{worker}"), disk.metered() as meter:
            cpu0 = time.thread_time()
            scanners = [
                self.index.make_scanner(attr_id, start=shard.checkpoints[attr_id])
                for attr_id in attr_ids
            ]
            if block:
                self._scan_shard_blocks(
                    shard,
                    scanners,
                    contexts,
                    skip_exact,
                    out_queue,
                    abort,
                    stats,
                    local_pools,
                    collectors,
                )
            else:
                for tid, ptr in self.index.tuples.scan_range(
                    shard.start_element, shard.end_element
                ):
                    if abort.is_set():
                        stats.aborted = True
                        break
                    payloads = [scanner.move_to(tid) for scanner in scanners]
                    if collectors is not None:
                        for collector in collectors:
                            collector.on_payloads(payloads)
                    if ptr == DELETED_PTR:
                        continue
                    stats.tuples += 1
                    cache: Optional[dict] = {} if batch else None
                    for qi, ctx in enumerate(contexts):
                        diffs, exact = ctx.evaluator.evaluate(payloads, cache)
                        estimated = dist.combine_bounds(ctx.query, diffs)
                        if exact and skip_exact:
                            local_pools[qi].insert(tid, estimated)
                            stats.exact_shortcuts[qi] += 1
                            if collectors is not None:
                                collectors[qi].on_exact()
                            continue
                        bound = ctx.shared.get()
                        if bound is not None and not (estimated, tid) < bound:
                            if collectors is not None:
                                collectors[qi].on_pruned()
                            continue
                        if not local_pools[qi].is_candidate(estimated, tid):
                            if collectors is not None:
                                collectors[qi].on_pruned()
                            continue
                        if collectors is not None:
                            collectors[qi].on_candidate()
                        out_queue.put((qi, tid, estimated))
            stats.cpu_s = time.thread_time() - cpu0
        stats.io_ms = meter.io_ms
        stats.pages = meter.pages

    def _scan_shard_blocks(
        self,
        shard: ShardRange,
        scanners: List,
        contexts: List[_QueryCtx],
        skip_exact: bool,
        out_queue: "queue_module.Queue",
        abort: threading.Event,
        stats: _ShardStats,
        local_pools: List[ResultPool],
        collectors: Optional[List[ProfileCollector]] = None,
    ) -> None:
        """v3-kernel shard scan: same decisions, block-at-a-time decode.

        Per-tuple decisions run in the scalar path's exact order (tid
        outer, query inner), so the candidate stream and pool evolution
        match; only the decode/evaluate granularity differs.
        """
        batch = len(contexts) > 1
        for tids, ptrs in self.index.tuples.scan_range_blocks(
            shard.start_element, shard.end_element, BLOCK_TUPLES
        ):
            if abort.is_set():
                stats.aborted = True
                break
            count = len(tids)
            block_cache: Optional[dict] = {} if batch else None
            segments = [scanner.decode_segment(tids) for scanner in scanners]
            stats.segments += len(segments)
            if collectors is not None:
                for collector in collectors:
                    collector.on_segments(segments, count)
            evaluated = [
                ctx.kernel.evaluate_segments(segments, count, block_cache)
                for ctx in contexts
            ]
            for i in range(count):
                if ptrs[i] == DELETED_PTR:
                    continue
                tid = tids[i]
                stats.tuples += 1
                for qi, ctx in enumerate(contexts):
                    estimated = evaluated[qi][0][i]
                    exact = evaluated[qi][1][i]
                    if exact and skip_exact:
                        local_pools[qi].insert(tid, estimated)
                        stats.exact_shortcuts[qi] += 1
                        if collectors is not None:
                            collectors[qi].on_exact()
                        continue
                    bound = ctx.shared.get()
                    if bound is not None and not (estimated, tid) < bound:
                        if collectors is not None:
                            collectors[qi].on_pruned()
                        continue
                    if not local_pools[qi].is_candidate(estimated, tid):
                        if collectors is not None:
                            collectors[qi].on_pruned()
                        continue
                    if collectors is not None:
                        collectors[qi].on_candidate()
                    out_queue.put((qi, tid, estimated))

    # -------------------------------------------------------------- refiner

    def _refine_loop(
        self,
        contexts: List[_QueryCtx],
        dist: DistanceFunction,
        skip_exact: bool,
        out_queue: "queue_module.Queue",
        abort: threading.Event,
        result: _RunResult,
        records: Dict[int, object],
        seen: Optional[List[set]],
        fail_mode: str,
        deadline: Optional[float] = None,
    ) -> List[_ShardStats]:
        """Drain candidates and sentinels; runs on the calling thread.

        Returns the stats of every shard that died.  In ``"raise"`` mode
        the first death aborts the siblings and the rest of the queue is
        merely drained; in ``"degrade"`` mode siblings keep scanning and
        merging normally so recovery only has to re-cover the dead shards.

        The refiner also enforces *deadline*: it waits on the queue with a
        bounded timeout so it wakes even when no candidates flow, and on
        expiry flips the abort flag.  Candidates already enqueued are still
        refined — they came from scanned ranges, so refining them can only
        improve the partial answer.

        Under the v3 kernel the refiner drains candidates greedily into
        batches of up to :data:`~repro.core.engine.REFINE_BATCH` and sorts
        each batch by the candidates' base-table file offsets before
        fetching, so random table reads issue in page order.  Sentinels met
        mid-drain merge immediately — tightening the bound *earlier* than
        strict FIFO order would only prunes more, and every fetch re-checks
        candidacy, so the answer multiset is unchanged.
        """
        pools = result.pools
        pending = result.shards
        failures: List[_ShardStats] = []
        batched = self._run_kernel == "v3"
        locate = self.table.locate

        def handle_done(item: _ShardDone) -> None:
            nonlocal pending
            pending -= 1
            if item.stats.error is not None:
                failures.append(item.stats)
                if fail_mode == "raise":
                    abort.set()
                return
            if failures and fail_mode == "raise":
                return  # draining after a sibling shard died
            result.shard_stats.append(item.stats)
            result.tuples_scanned += item.stats.tuples
            result.segments_total += item.stats.segments
            if self._run_profiles is not None and item.profiles is not None:
                for qi, shard_profile in enumerate(item.profiles):
                    self._run_profiles[qi].absorb(shard_profile)
            merge_cpu0 = time.thread_time()
            for qi, local in enumerate(item.local_pools):
                result.exact_shortcuts[qi] += item.stats.exact_shortcuts[qi]
                result.merged_candidates += pools[qi].merge_from(local)
                self._tighten(contexts[qi], pools[qi])
            result.merge_cpu_s += time.thread_time() - merge_cpu0

        while pending:
            if deadline is not None and not result.deadline_hit:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    result.deadline_hit = True
                    abort.set()
                    item = out_queue.get()
                else:
                    try:
                        item = out_queue.get(timeout=remaining)
                    except queue_module.Empty:
                        continue  # re-check the deadline and wait again
            else:
                item = out_queue.get()
            depth = out_queue.qsize()
            if depth > result.max_queue_depth:
                result.max_queue_depth = depth
            if isinstance(item, _ShardDone):
                handle_done(item)
                continue
            if failures and fail_mode == "raise":
                continue
            if not batched:
                qi, tid, estimated = item
                self._refine_candidate(
                    qi, tid, estimated, contexts, dist, result, records, seen
                )
                continue
            # v3: drain greedily without blocking, then fetch page-ordered.
            batch_items: List[Tuple[int, int, float]] = [item]
            while len(batch_items) < REFINE_BATCH:
                try:
                    extra = out_queue.get_nowait()
                except queue_module.Empty:
                    break
                if isinstance(extra, _ShardDone):
                    handle_done(extra)
                    continue
                if failures and fail_mode == "raise":
                    continue
                batch_items.append(extra)
            batch_items.sort(key=lambda entry: locate(entry[1])[0])
            for qi, tid, estimated in batch_items:
                self._refine_candidate(
                    qi, tid, estimated, contexts, dist, result, records, seen
                )
        result.shard_stats.sort(key=lambda s: s.shard)
        failures.sort(key=lambda s: s.shard)
        return failures

    def _refine_candidate(
        self,
        qi: int,
        tid: int,
        estimated: float,
        contexts: List[_QueryCtx],
        dist: DistanceFunction,
        result: _RunResult,
        records: Dict[int, object],
        seen: Optional[List[set]],
    ) -> None:
        """Re-check candidacy, fetch the tuple (cached), insert, tighten."""
        pool = result.pools[qi]
        profiles = self._run_profiles
        if seen is not None and tid in seen[qi]:
            if profiles is not None:
                profiles[qi].on_dedup_skipped()
            return
        if not pool.is_candidate(estimated, tid):
            if profiles is not None:
                profiles[qi].on_late_pruned()
            return
        cpu0 = time.thread_time()
        record = records.get(tid)
        if record is None:
            with self.table.disk.metered() as meter:
                record = self.table.read(tid)
            records[tid] = record
            result.refine_io_ms += meter.io_ms
        actual = dist.actual(contexts[qi].query, record)
        pool.insert(tid, actual)
        self._tighten(contexts[qi], pool)
        result.refine_cpu_s += time.thread_time() - cpu0
        result.table_accesses[qi] += 1
        if profiles is not None:
            profiles[qi].on_refined(estimated, actual)
        if seen is not None:
            seen[qi].add(tid)

    @staticmethod
    def _tighten(ctx: _QueryCtx, pool: ResultPool) -> None:
        if pool.is_full():
            worst = pool.worst()
            if worst is not None:
                ctx.shared.tighten(worst)

    # ------------------------------------------------------------- recovery

    def _recover_shards(
        self,
        failures: List[_ShardStats],
        by_index: Dict[int, ShardRange],
        attr_ids: Tuple[int, ...],
        contexts: List[_QueryCtx],
        k: int,
        dist: DistanceFunction,
        skip_exact: bool,
        result: _RunResult,
        records: Dict[int, object],
        seen: Optional[List[set]],
    ) -> None:
        """The degrade-mode ladder: retry → sequential re-scan → lost.

        Runs inline on the calling thread after every surviving shard has
        merged, so recovered shards inherit the fully tightened bound.
        """
        tracer = get_tracer()
        for failure in failures:
            shard = by_index.get(failure.shard)
            wall0 = time.perf_counter()
            outcome = "retried"
            ok = shard is not None and self._retry_shard(
                shard, attr_ids, contexts, k, dist, skip_exact, result, records, seen
            )
            if not ok and shard is not None:
                outcome = "sequential"
                ok = self._rescan_shard_sequential(
                    shard, attr_ids, contexts, dist, skip_exact, result, records, seen
                )
            if ok:
                result.recovered_shards += 1
            else:
                outcome = "lost"
                result.degraded = True
                result.lost_shards.append(failure.shard)
                result.lost_tid_ranges.append(self._shard_tid_range(shard))
            tracer.record(
                "resilience.shard_fallback",
                (time.perf_counter() - wall0) * 1000.0,
                shard=failure.shard,
                worker=failure.worker,
                outcome=outcome,
                error=type(failure.error).__name__ if failure.error else "",
            )

    def _retry_shard(
        self,
        shard: ShardRange,
        attr_ids: Tuple[int, ...],
        contexts: List[_QueryCtx],
        k: int,
        dist: DistanceFunction,
        skip_exact: bool,
        result: _RunResult,
        records: Dict[int, object],
        seen: Optional[List[set]],
    ) -> bool:
        """Re-run the shard's normal scan once (same kernel), inline.

        Uses an unbounded private queue — there is no concurrent refiner
        to drain it — and applies candidates only if the scan finished
        cleanly, so a second failure leaves no partial state behind.
        """
        retry_queue: "queue_module.Queue" = queue_module.Queue()
        self._scan_shard(
            shard,
            "retry",
            attr_ids,
            contexts,
            k,
            dist,
            skip_exact,
            retry_queue,
            threading.Event(),
        )
        items: List[Tuple[int, int, float]] = []
        done: Optional[_ShardDone] = None
        while True:
            item = retry_queue.get_nowait()
            if isinstance(item, _ShardDone):
                done = item
                break
            items.append(item)
        if done is None or done.stats.error is not None:
            return False
        if self._run_profiles is not None and done.profiles is not None:
            for qi, shard_profile in enumerate(done.profiles):
                self._run_profiles[qi].absorb(shard_profile)
        for qi, tid, estimated in items:
            self._refine_candidate(
                qi, tid, estimated, contexts, dist, result, records, seen
            )
        result.shard_stats.append(done.stats)
        result.shard_stats.sort(key=lambda s: s.shard)
        result.tuples_scanned += done.stats.tuples
        result.segments_total += done.stats.segments
        for qi, local in enumerate(done.local_pools):
            result.exact_shortcuts[qi] += done.stats.exact_shortcuts[qi]
            result.merged_candidates += result.pools[qi].merge_from(local)
            self._tighten(contexts[qi], result.pools[qi])
        return True

    def _rescan_shard_sequential(
        self,
        shard: ShardRange,
        attr_ids: Tuple[int, ...],
        contexts: List[_QueryCtx],
        dist: DistanceFunction,
        skip_exact: bool,
        result: _RunResult,
        records: Dict[int, object],
        seen: Optional[List[set]],
    ) -> bool:
        """Last resort before declaring the shard lost: a plain scalar
        re-scan with fresh scanners and inline refinement — a different
        code path than the failed one (no kernel, no queue, no worker
        thread), in case those were implicated.
        """
        batch = len(contexts) > 1
        profiles = self._run_profiles
        try:
            scanners = [
                self.index.make_scanner(attr_id, start=shard.checkpoints[attr_id])
                for attr_id in attr_ids
            ]
            for tid, ptr in self.index.tuples.scan_range(
                shard.start_element, shard.end_element
            ):
                payloads = [scanner.move_to(tid) for scanner in scanners]
                if profiles is not None:
                    for profile in profiles:
                        profile.on_payloads(payloads)
                if ptr == DELETED_PTR:
                    continue
                result.tuples_scanned += 1
                cache: Optional[dict] = {} if batch else None
                for qi, ctx in enumerate(contexts):
                    diffs, exact = ctx.evaluator.evaluate(payloads, cache)
                    estimated = dist.combine_bounds(ctx.query, diffs)
                    if exact and skip_exact:
                        result.pools[qi].insert(tid, estimated)
                        result.exact_shortcuts[qi] += 1
                        self._tighten(ctx, result.pools[qi])
                        if profiles is not None:
                            profiles[qi].on_exact()
                        continue
                    # The re-scan has no local pool to prune against;
                    # every non-exact tuple goes straight to the refiner,
                    # which late-prunes or deduplicates it.
                    if profiles is not None:
                        profiles[qi].on_candidate()
                    self._refine_candidate(
                        qi, tid, estimated, contexts, dist, result, records, seen
                    )
            return True
        except Exception:
            return False

    def _shard_tid_range(self, shard: Optional[ShardRange]) -> Tuple[int, int]:
        """Inclusive (first, last) tids a shard covered; (-1, -1) unknown."""
        if shard is None or shard.start_element >= shard.end_element:
            return (-1, -1)
        try:
            tids = self.index.tuples.element_tids()
        except Exception:
            return (-1, -1)
        if shard.start_element >= len(tids):
            return (-1, -1)
        last = min(shard.end_element, len(tids)) - 1
        return (tids[shard.start_element], tids[last])


# ------------------------------------------------------------------ facades


def _runner_for(engine_like, index: IVAFile, config: ExecutorConfig) -> ParallelScanExecutor:
    """The engine's cached executor (rebuilt if index/config changed)."""
    runner = getattr(engine_like, "_parallel_runner", None)
    if (
        runner is None
        or runner.index is not index
        or runner.config is not config
        or runner.table is not engine_like.table
    ):
        runner = ParallelScanExecutor(
            engine_like.table,
            index,
            config,
            planner=getattr(engine_like, "shard_planner", None),
        )
        engine_like._parallel_runner = runner
    return runner


def _emit_parallel_obs(
    registry: MetricsRegistry,
    tracer: Tracer,
    engine_name: str,
    run: _RunResult,
) -> None:
    """Spans + metrics for one parallel run (called inside the query span).

    ``parallel.shard_scan`` spans are no longer synthesized here: shard
    workers open them live (attached under the query span) so the trace
    shows the real tree; this hook only lands the aggregate metrics.
    """
    labels = {"engine": engine_name}
    for stats in run.shard_stats:
        registry.histogram(
            "repro_parallel_shard_scan_ms",
            labels={"engine": engine_name, "worker": stats.worker},
            help="Modeled per-shard scan time (I/O + CPU) by worker thread.",
        ).observe(stats.io_ms + stats.cpu_s * 1000.0)
    tracer.record(
        "parallel.merge",
        run.merge_cpu_s * 1000.0,
        shards=run.shards,
        admitted=run.merged_candidates,
    )
    registry.counter(
        "repro_parallel_searches_total",
        labels=labels,
        help="Searches executed by the parallel scan executor.",
    ).inc()
    if run.segments_total:
        registry.counter(
            "repro_kernel_segments_total",
            labels=labels,
            help="Vector-list segments decoded columnar by the v3 kernel.",
        ).inc(run.segments_total)
    registry.gauge(
        "repro_parallel_queue_depth",
        labels=labels,
        help="Candidate-queue high-water mark of the last parallel search.",
    ).set(run.max_queue_depth)
    registry.histogram(
        "repro_parallel_merge_ms",
        labels=labels,
        help="CPU time merging shard-local pools into the global pool.",
    ).observe(run.merge_cpu_s * 1000.0)


def _shard_rows(run: _RunResult) -> List[dict]:
    """Per-shard attribution rows for the EXPLAIN ANALYZE artifact."""
    return [
        {
            "shard": stats.shard,
            "worker": stats.worker,
            "tuples": stats.tuples,
            "io_ms": stats.io_ms,
            "cpu_ms": stats.cpu_s * 1000.0,
        }
        for stats in run.shard_stats
    ]


def _fill_report(report: ParallelSearchReport, run: _RunResult) -> None:
    """Critical-path cost model: filter = setup + slowest worker.

    A worker runs its shards serially, so its cost is the *sum* over its
    shards; workers run concurrently, so the phase costs the maximum.
    """
    per_worker_io: Dict[str, float] = {}
    per_worker_cpu: Dict[str, float] = {}
    for stats in run.shard_stats:
        per_worker_io[stats.worker] = per_worker_io.get(stats.worker, 0.0) + stats.io_ms
        per_worker_cpu[stats.worker] = (
            per_worker_cpu.get(stats.worker, 0.0) + stats.cpu_s
        )
    report.workers = run.workers
    report.shards = run.shards
    report.planning_io_ms = run.planning_io_ms
    report.shard_io_ms = [s.io_ms for s in run.shard_stats]
    report.shard_cpu_s = [s.cpu_s for s in run.shard_stats]
    report.merged_candidates = run.merged_candidates
    report.max_queue_depth = run.max_queue_depth
    report.degraded = run.degraded
    report.deadline_hit = run.deadline_hit
    report.lost_shards = list(run.lost_shards)
    report.lost_tid_ranges = list(run.lost_tid_ranges)
    report.filter_io_ms = run.planning_io_ms + max(per_worker_io.values(), default=0.0)
    report.filter_wall_s = (
        run.setup_cpu_s
        + run.merge_cpu_s
        + max(per_worker_cpu.values(), default=0.0)
    )
    report.refine_io_ms = run.refine_io_ms
    report.refine_wall_s = run.refine_cpu_s


def parallel_search(
    engine,
    query: Query,
    k: int = 10,
    distance: Optional[DistanceFunction] = None,
    deadline: Optional[float] = None,
) -> SearchReport:
    """One query through the sharded executor; the engine's parallel path.

    Falls through to the engine's sequential loop (without touching the
    fallback counter) when the planner decides the table is too small to
    shard.  Raises :class:`ParallelExecutionError` on pool failure.
    """
    config: ExecutorConfig = engine.executor
    dist = distance or engine.distance
    runner = _runner_for(engine, engine.index, config)
    if config.shard_count(engine.index.tuple_elements) <= 1:
        return engine._sequential_search(query, k, distance, deadline=deadline)

    registry = engine._registry()
    tracer = engine._tracer()
    report = ParallelSearchReport()
    with tracer.span(
        "query",
        engine=engine.name,
        k=k,
        attr_ids=list(query.attribute_ids()),
        parallel=True,
    ) as span:
        run = runner.run(
            [query],
            k,
            dist,
            skip_exact=engine.skip_exact,
            kernel=getattr(engine, "kernel", "scalar"),
            fail_mode=getattr(engine, "fail_mode", "raise"),
            tracer=tracer,
            parent_span=span,
            profile=getattr(engine, "profile", False),
            deadline=deadline,
            end_element=getattr(engine, "scan_end_element", None),
            kernel_cache=getattr(engine, "kernel_cache", None),
        )
        report.tuples_scanned = run.tuples_scanned
        report.exact_shortcuts = run.exact_shortcuts[0]
        report.table_accesses = run.table_accesses[0]
        _fill_report(report, run)
        report.results = [
            QueryResult(tid=entry.tid, distance=entry.distance)
            for entry in run.pools[0].results()
        ]
        if run.profiles is not None:
            report.profile = run.profiles[0].build(
                report,
                query=query,
                index=engine.index,
                engine=engine.name,
                kernel=getattr(engine, "kernel", "scalar"),
                fail_mode=getattr(engine, "fail_mode", "raise"),
                metric=getattr(dist.metric, "name", ""),
                k=k,
                parallel=True,
                workers=run.workers,
                shards=run.shards,
                shard_rows=_shard_rows(run),
            )
        _emit_parallel_obs(registry, tracer, engine.name, run)
        trace_phases(tracer, span, report)
        span.attrs["workers"] = run.workers
        span.attrs["shards"] = run.shards
    observe_search(registry, engine.name, report)
    return report


def parallel_search_batch(
    batch_engine,
    queries: Sequence[Query],
    k: int = 10,
    distance: Optional[DistanceFunction] = None,
    deadline: Optional[float] = None,
) -> List[SearchReport]:
    """A batch of queries through one sharded shared scan.

    Mirrors the sequential batch engine's cost attribution: shared costs
    (the scan, planning, deduplicated fetches) land on the first report;
    per-query counters stay exact.  Returns None-equivalent fallthrough to
    the sequential batch loop when the table is too small to shard.
    """
    config: ExecutorConfig = batch_engine.executor
    dist = distance or batch_engine.distance
    runner = _runner_for(batch_engine, batch_engine.index, config)
    if config.shard_count(batch_engine.index.tuple_elements) <= 1:
        return batch_engine._sequential_search_batch(
            queries, k, distance, deadline=deadline
        )

    registry = batch_engine._registry()
    tracer = batch_engine._tracer()
    with tracer.span(
        "query_batch",
        engine=batch_engine.name,
        k=k,
        queries=len(queries),
        parallel=True,
    ) as span:
        run = runner.run(
            list(queries),
            k,
            dist,
            skip_exact=True,
            kernel=getattr(batch_engine, "kernel", "scalar"),
            fail_mode=getattr(batch_engine, "fail_mode", "raise"),
            tracer=tracer,
            parent_span=span,
            profile=getattr(batch_engine, "profile", False),
            deadline=deadline,
            end_element=getattr(batch_engine, "scan_end_element", None),
            kernel_cache=getattr(batch_engine, "kernel_cache", None),
        )
        reports: List[SearchReport] = []
        for qi, pool in enumerate(run.pools):
            report: SearchReport
            if qi == 0:
                report = ParallelSearchReport()
                _fill_report(report, run)
            else:
                report = SearchReport()
            # A lost shard is lost for every query in the batch.
            report.degraded = run.degraded
            report.deadline_hit = run.deadline_hit
            report.lost_shards = list(run.lost_shards)
            report.lost_tid_ranges = list(run.lost_tid_ranges)
            report.tuples_scanned = run.tuples_scanned
            report.exact_shortcuts = run.exact_shortcuts[qi]
            report.table_accesses = run.table_accesses[qi]
            report.results = [
                QueryResult(tid=entry.tid, distance=entry.distance)
                for entry in pool.results()
            ]
            if run.profiles is not None:
                report.profile = run.profiles[qi].build(
                    report,
                    query=queries[qi],
                    index=batch_engine.index,
                    engine=batch_engine.name,
                    kernel=getattr(batch_engine, "kernel", "scalar"),
                    fail_mode=getattr(batch_engine, "fail_mode", "raise"),
                    metric=getattr(dist.metric, "name", ""),
                    k=k,
                    parallel=True,
                    workers=run.workers,
                    shards=run.shards,
                    shard_rows=_shard_rows(run) if qi == 0 else None,
                )
            reports.append(report)
        _emit_parallel_obs(registry, tracer, batch_engine.name, run)
        span.attrs["workers"] = run.workers
        span.attrs["shards"] = run.shards
    return reports
