"""Per-query EXPLAIN ANALYZE: the paper's evaluation, one query at a time.

The paper's argument (Sec. V) is a funnel: the filter phase scans every
tuple-list element, the approximation-vector bounds prune almost all of
them, and the refine phase random-accesses the table file only for the
survivors — 1.5%–22% as often as SII (Fig. 8), which is where the win in
Figs. 9–15 comes from.  The aggregate counters in :mod:`repro.obs.metrics`
show that funnel summed over a whole run; this module reproduces it for
*one* query, as a structured artifact:

* the candidate funnel — tuples scanned → exact shortcuts → bound-pruned →
  candidates → refined → results (plus the parallel refiner's late-pruned
  and deduplicated counts);
* per-attribute scan statistics — vector-list entries probed and how many
  were ndf, with each attribute's list layout and codec;
* lower-bound tightness — mean bound vs. mean true distance over the
  refined tuples, the quality measure behind the pruning rate;
* per-block prune counts when the v3 kernel ran;
* phase/shard time attribution and degradation annotations.

A :class:`ProfileCollector` rides along with one scan; engines allocate it
only when profiling is requested, and every hot-loop hook is guarded by a
single ``is not None`` check, so the profiled-off overhead is one local
load per tuple.  ``collector.build(report, ...)`` turns the counts into a
:class:`QueryProfile`, exposed as ``SearchReport.profile`` and rendered by
``repro query --explain-analyze``.

Invariants (asserted in the test suite): ``tuples_scanned == exact +
bound_pruned + candidates`` — every scanned live tuple takes exactly one
decision — and on the sequential path ``candidates == refined`` (the
parallel refiner additionally re-checks, so ``candidates == refined +
late_pruned + dedup_skipped`` there).  The funnel totals equal the
existing :class:`~repro.core.engine.SearchReport` counters exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "AttributeProfile",
    "QueryProfile",
    "ProfileCollector",
]


@dataclass
class AttributeProfile:
    """One queried attribute's share of the filter scan."""

    attr_id: int
    name: str = ""
    #: ``"text"`` or ``"numeric"``.
    kind: str = ""
    #: Vector-list layout (``TYPE_I`` … ``TYPE_IV``), when known.
    list_type: str = ""
    #: Wire codec of the attribute's vector list, when known.
    codec: str = ""
    #: Vector-list entries probed with a defined approximation vector.
    defined: int = 0
    #: Entries probed that were ndf (no defined value for the tuple).
    ndf: int = 0

    @property
    def entries_scanned(self) -> int:
        """Total vector-list entries probed for this attribute."""
        return self.defined + self.ndf

    def to_dict(self) -> dict:
        return {
            "attr_id": self.attr_id,
            "name": self.name,
            "kind": self.kind,
            "list_type": self.list_type,
            "codec": self.codec,
            "entries_scanned": self.entries_scanned,
            "defined": self.defined,
            "ndf": self.ndf,
        }


@dataclass
class QueryProfile:
    """The structured EXPLAIN ANALYZE artifact of one search."""

    # ---- provenance
    engine: str = ""
    kernel: str = "scalar"
    fail_mode: str = "raise"
    metric: str = ""
    k: int = 0
    parallel: bool = False
    workers: int = 0
    shards: int = 0

    # ---- candidate funnel (paper Fig. 8: accesses to the table file)
    tuples_scanned: int = 0
    exact_shortcuts: int = 0
    bound_pruned: int = 0
    candidates: int = 0
    #: Parallel refiner only: candidates whose estimate no longer beat the
    #: global pool by the time the refiner re-checked them.
    late_pruned: int = 0
    #: Parallel degrade mode only: candidates skipped because the tuple
    #: was already refined (shard-recovery re-scans re-emit candidates).
    dedup_skipped: int = 0
    refined: int = 0
    results: int = 0

    # ---- per-attribute scan
    attributes: List[AttributeProfile] = field(default_factory=list)

    # ---- lower-bound tightness over the refined tuples
    bound_sum: float = 0.0
    actual_sum: float = 0.0
    slack_max: float = 0.0

    # ---- v3 kernel
    blocks: int = 0
    block_pruned: List[int] = field(default_factory=list)

    # ---- phase times (modeled I/O + measured wall, like the report)
    filter_io_ms: float = 0.0
    filter_wall_ms: float = 0.0
    refine_io_ms: float = 0.0
    refine_wall_ms: float = 0.0
    planning_io_ms: float = 0.0
    query_time_ms: float = 0.0

    # ---- parallel shard attribution
    shard_rows: List[dict] = field(default_factory=list)

    # ---- degradation
    degraded: bool = False
    lost_shards: List[int] = field(default_factory=list)
    lost_tid_ranges: List[Tuple[int, int]] = field(default_factory=list)

    # ------------------------------------------------------------- derived

    @property
    def prune_rate(self) -> float:
        """Fraction of scanned tuples the bounds eliminated."""
        if self.tuples_scanned == 0:
            return 0.0
        return self.bound_pruned / self.tuples_scanned

    @property
    def access_rate(self) -> float:
        """Refined fraction of the scan — the paper's Fig. 8 ratio."""
        if self.tuples_scanned == 0:
            return 0.0
        return self.refined / self.tuples_scanned

    @property
    def mean_bound(self) -> float:
        return self.bound_sum / self.refined if self.refined else 0.0

    @property
    def mean_actual(self) -> float:
        return self.actual_sum / self.refined if self.refined else 0.0

    @property
    def mean_slack(self) -> float:
        """Mean (actual − bound) over refined tuples; 0 means exact bounds."""
        return self.mean_actual - self.mean_bound

    @property
    def tightness(self) -> float:
        """mean bound / mean actual in [0, 1]; 1.0 means perfect bounds."""
        if self.refined == 0 or self.actual_sum == 0.0:
            return 0.0
        return self.bound_sum / self.actual_sum

    # ------------------------------------------------------------ renderers

    def to_dict(self) -> dict:
        """JSON-able representation (``--explain-analyze --format json``)."""
        out = {
            "engine": self.engine,
            "kernel": self.kernel,
            "fail_mode": self.fail_mode,
            "metric": self.metric,
            "k": self.k,
            "parallel": self.parallel,
            "funnel": {
                "tuples_scanned": self.tuples_scanned,
                "exact_shortcuts": self.exact_shortcuts,
                "bound_pruned": self.bound_pruned,
                "candidates": self.candidates,
                "late_pruned": self.late_pruned,
                "dedup_skipped": self.dedup_skipped,
                "refined": self.refined,
                "results": self.results,
                "prune_rate": self.prune_rate,
                "access_rate": self.access_rate,
            },
            "attributes": [attr.to_dict() for attr in self.attributes],
            "tightness": {
                "refined": self.refined,
                "mean_bound": self.mean_bound,
                "mean_actual": self.mean_actual,
                "mean_slack": self.mean_slack,
                "max_slack": self.slack_max,
                "tightness": self.tightness,
            },
            "phases": {
                "filter_io_ms": self.filter_io_ms,
                "filter_wall_ms": self.filter_wall_ms,
                "refine_io_ms": self.refine_io_ms,
                "refine_wall_ms": self.refine_wall_ms,
                "planning_io_ms": self.planning_io_ms,
                "query_time_ms": self.query_time_ms,
            },
        }
        if self.kernel == "v3":
            out["blocks"] = {
                "count": self.blocks,
                "pruned_per_block": list(self.block_pruned),
            }
        if self.parallel:
            out["workers"] = self.workers
            out["shards"] = self.shards
            out["shard_rows"] = list(self.shard_rows)
        if self.degraded:
            out["degraded"] = True
            out["lost_shards"] = list(self.lost_shards)
            out["lost_tid_ranges"] = [list(r) for r in self.lost_tid_ranges]
        return out

    def format(self) -> str:
        """The human-readable EXPLAIN ANALYZE block."""
        lines: List[str] = []
        head = (
            f"EXPLAIN ANALYZE  engine={self.engine}  kernel={self.kernel}  "
            f"fail_mode={self.fail_mode}  k={self.k}"
        )
        if self.metric:
            head += f"  metric={self.metric}"
        if self.parallel:
            head += f"  parallel({self.workers} workers, {self.shards} shards)"
        lines.append(head)

        scanned = self.tuples_scanned

        def pct(count: int) -> str:
            if scanned == 0:
                return ""
            return f"  ({100.0 * count / scanned:.1f}%)"

        lines.append("candidate funnel")
        lines.append(f"  tuples scanned   {scanned:>10}")
        lines.append(
            f"  exact shortcuts  {self.exact_shortcuts:>10}{pct(self.exact_shortcuts)}"
        )
        lines.append(
            f"  bound-pruned     {self.bound_pruned:>10}{pct(self.bound_pruned)}"
        )
        lines.append(f"  candidates       {self.candidates:>10}{pct(self.candidates)}")
        if self.late_pruned:
            lines.append(
                f"  late-pruned      {self.late_pruned:>10}  (refiner re-check)"
            )
        if self.dedup_skipped:
            lines.append(
                f"  deduplicated     {self.dedup_skipped:>10}  (recovery re-scan)"
            )
        lines.append(
            f"  refined          {self.refined:>10}{pct(self.refined)}"
            "  <- table-file random accesses"
        )
        lines.append(f"  results          {self.results:>10}")

        if self.attributes:
            lines.append("per-attribute scan")
            name_w = max(len(a.name or str(a.attr_id)) for a in self.attributes)
            name_w = max(name_w, len("attribute"))
            lines.append(
                f"  {'attribute':<{name_w}}  {'kind':<7}  {'layout':<8}  "
                f"{'codec':<10}  {'entries':>9}  {'defined':>9}  {'ndf':>9}"
            )
            for attr in self.attributes:
                lines.append(
                    f"  {attr.name or attr.attr_id:<{name_w}}  {attr.kind:<7}  "
                    f"{attr.list_type:<8}  {attr.codec:<10}  "
                    f"{attr.entries_scanned:>9}  {attr.defined:>9}  {attr.ndf:>9}"
                )

        if self.refined:
            lines.append("lower-bound tightness (refined tuples)")
            lines.append(
                f"  mean bound {self.mean_bound:.3f}  mean actual "
                f"{self.mean_actual:.3f}  mean slack {self.mean_slack:.3f}  "
                f"max slack {self.slack_max:.3f}  tightness {self.tightness:.3f}"
            )

        if self.kernel == "v3" and self.blocks:
            pruned = self.block_pruned or [0]
            lines.append(
                f"v3 kernel: {self.blocks} blocks, pruned/block "
                f"min {min(pruned)}  mean {sum(pruned) / len(pruned):.1f}  "
                f"max {max(pruned)}"
            )

        lines.append("phase times (modeled I/O + measured wall)")
        lines.append(
            f"  filter  io {self.filter_io_ms:.1f} ms  wall "
            f"{self.filter_wall_ms:.2f} ms"
        )
        lines.append(
            f"  refine  io {self.refine_io_ms:.1f} ms  wall "
            f"{self.refine_wall_ms:.2f} ms"
        )
        if self.parallel:
            lines.append(f"  planning io {self.planning_io_ms:.1f} ms")
        lines.append(f"  total   {self.query_time_ms:.1f} ms modeled")

        if self.shard_rows:
            lines.append("shards")
            lines.append(
                f"  {'shard':>5}  {'worker':<8}  {'tuples':>8}  "
                f"{'io_ms':>9}  {'cpu_ms':>9}"
            )
            for row in self.shard_rows:
                lines.append(
                    f"  {row.get('shard', ''):>5}  {str(row.get('worker', '')):<8}  "
                    f"{row.get('tuples', 0):>8}  {row.get('io_ms', 0.0):>9.1f}  "
                    f"{row.get('cpu_ms', 0.0):>9.2f}"
                )

        if self.degraded:
            lines.append(
                f"DEGRADED: lost shards {self.lost_shards} covering tid "
                f"ranges {self.lost_tid_ranges}; funnel counts are best-effort"
            )
        return "\n".join(lines)


class ProfileCollector:
    """Accumulates one query's funnel/attribute/tightness counts.

    One collector follows one query through one scan.  The parallel
    executor gives each shard worker its own collector (no shared mutable
    state on the hot path) and :meth:`absorb`\\ s them into a per-query
    master on the refiner thread.

    Every hook is O(1) (``on_payloads``/``on_segments`` are O(terms)) and the
    engines call them only when profiling is on.
    """

    __slots__ = (
        "attr_ids",
        "slots",
        "defined",
        "ndf",
        "exact",
        "pruned",
        "candidates",
        "refined",
        "late_pruned",
        "dedup_skipped",
        "blocks",
        "block_pruned",
        "bound_sum",
        "actual_sum",
        "slack_max",
    )

    def __init__(self, attr_ids: Sequence[int], slots: Sequence[int]) -> None:
        self.attr_ids = list(attr_ids)
        #: Index of each queried attribute in the scan's payload row — the
        #: same mapping :class:`~repro.core.engine.BoundEvaluator` uses, so
        #: union scans (batch/parallel) probe the right columns.
        self.slots = list(slots)
        n = len(self.attr_ids)
        self.defined = [0] * n
        self.ndf = [0] * n
        self.exact = 0
        self.pruned = 0
        self.candidates = 0
        self.refined = 0
        self.late_pruned = 0
        self.dedup_skipped = 0
        self.blocks = 0
        self.block_pruned: List[int] = []
        self.bound_sum = 0.0
        self.actual_sum = 0.0
        self.slack_max = 0.0

    @classmethod
    def for_query(
        cls, query, position: Optional[Mapping[int, int]] = None
    ) -> "ProfileCollector":
        """A collector for *query*; *position* maps attr id → payload slot
        for union scans (None = payloads align 1:1 with the terms)."""
        attr_ids = [term.attr.attr_id for term in query.terms]
        if position is None:
            slots = list(range(len(attr_ids)))
        else:
            slots = [position[attr_id] for attr_id in attr_ids]
        return cls(attr_ids, slots)

    # ------------------------------------------------------------ scan side

    def on_payloads(self, payloads: Sequence[object]) -> None:
        """One tuple's payload row was decoded (scalar path)."""
        defined = self.defined
        ndf = self.ndf
        for i, slot in enumerate(self.slots):
            if payloads[slot] is None:
                ndf[i] += 1
            else:
                defined[i] += 1

    def on_segments(self, segments: Sequence[object], count: int) -> None:
        """One block of *count* columnar segments was decoded (v3 path).

        Each segment knows how many of its *count* tuples store a defined
        value, so the per-attribute defined/ndf tallies match the scalar
        probe exactly.
        """
        self.blocks += 1
        self.block_pruned.append(0)
        for i, slot in enumerate(self.slots):
            defined = segments[slot].defined_count(count)
            self.defined[i] += defined
            self.ndf[i] += count - defined

    # -------------------------------------------------------- decision side

    def on_exact(self) -> None:
        self.exact += 1

    def on_pruned(self) -> None:
        self.pruned += 1
        if self.block_pruned:
            self.block_pruned[-1] += 1

    def on_candidate(self) -> None:
        self.candidates += 1

    def on_late_pruned(self) -> None:
        self.late_pruned += 1

    def on_dedup_skipped(self) -> None:
        self.dedup_skipped += 1

    def on_refined(self, estimated: float, actual: float) -> None:
        self.refined += 1
        self.bound_sum += estimated
        self.actual_sum += actual
        slack = actual - estimated
        if slack > self.slack_max:
            self.slack_max = slack

    # ------------------------------------------------------------ reduction

    @property
    def scanned(self) -> int:
        """Live tuples that took a funnel decision."""
        return self.exact + self.pruned + self.candidates

    def absorb(self, other: "ProfileCollector") -> None:
        """Merge a shard-local collector for the same query into this one."""
        for i in range(len(self.defined)):
            self.defined[i] += other.defined[i]
            self.ndf[i] += other.ndf[i]
        self.exact += other.exact
        self.pruned += other.pruned
        self.candidates += other.candidates
        self.refined += other.refined
        self.late_pruned += other.late_pruned
        self.dedup_skipped += other.dedup_skipped
        self.blocks += other.blocks
        self.block_pruned.extend(other.block_pruned)
        self.bound_sum += other.bound_sum
        self.actual_sum += other.actual_sum
        if other.slack_max > self.slack_max:
            self.slack_max = other.slack_max

    def build(
        self,
        report,
        *,
        query=None,
        index=None,
        engine: str = "",
        kernel: str = "scalar",
        fail_mode: str = "raise",
        metric: str = "",
        k: int = 0,
        parallel: bool = False,
        workers: int = 0,
        shards: int = 0,
        shard_rows: Optional[List[dict]] = None,
    ) -> QueryProfile:
        """Bake the counts plus the finished *report* into a profile."""
        profile = QueryProfile(
            engine=engine,
            kernel=kernel,
            fail_mode=fail_mode,
            metric=metric,
            k=k,
            parallel=parallel,
            workers=workers,
            shards=shards,
            tuples_scanned=report.tuples_scanned,
            exact_shortcuts=self.exact,
            bound_pruned=self.pruned,
            candidates=self.candidates,
            late_pruned=self.late_pruned,
            dedup_skipped=self.dedup_skipped,
            refined=self.refined,
            results=len(report.results),
            bound_sum=self.bound_sum,
            actual_sum=self.actual_sum,
            slack_max=self.slack_max,
            blocks=self.blocks,
            block_pruned=list(self.block_pruned),
            filter_io_ms=report.filter_io_ms,
            filter_wall_ms=report.filter_wall_s * 1000.0,
            refine_io_ms=report.refine_io_ms,
            refine_wall_ms=report.refine_wall_s * 1000.0,
            planning_io_ms=getattr(report, "planning_io_ms", 0.0),
            query_time_ms=report.query_time_ms,
            shard_rows=list(shard_rows or []),
            degraded=report.degraded,
            lost_shards=list(report.lost_shards),
            lost_tid_ranges=list(report.lost_tid_ranges),
        )
        for i, attr_id in enumerate(self.attr_ids):
            attr = AttributeProfile(
                attr_id=attr_id, defined=self.defined[i], ndf=self.ndf[i]
            )
            if query is not None:
                term = query.terms[i]
                attr.name = term.attr.name
                attr.kind = "text" if term.attr.is_text else "numeric"
            if index is not None:
                entry = index.entry(attr_id)
                if entry is not None:
                    attr.list_type = entry.list_type.name
                    attr.codec = entry.codec
            profile.attributes.append(attr)
        return profile
