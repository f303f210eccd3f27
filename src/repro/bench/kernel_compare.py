"""The ``kernel-compare`` sweep: scalar vs. v3 filter kernels.

Races the default query set through the iVA engine with both filter
kernels (:mod:`repro.core.kernel`) over every codec family, one row per
codec, and reports three things:

* **filter-phase latency** — measured wall-clock p50/p95 per query and
  the speedup of v3 over the scalar identity oracle (the kernels decode
  the same index bytes, so the measured wall time is the honest
  comparison);
* **table accesses per query** — the refine rows each kernel needs: the
  scalar oracle bounds text with Eq. 3 and refines interleaved with the
  scan (Algorithm 1); v3 adds the length filter and refines best-first
  after the scan.  This is the bound-and-order ablation; the counts are
  deterministic, unlike the wall times;
* **answer identity** — every codec's v3 and scalar runs must return
  *bit-identical* ``(tid, distance)`` lists for every query.  Both
  kernels' bounds are lower bounds (Prop. 3.3's no-false-negative
  contract), so any divergence is a bug, not a tolerance; the CLI turns
  it into a hard failure.

Exposed as ``repro bench kernel-compare`` and as
:func:`kernel_compare_sweep` for the suite/tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import percentile
from repro.bench.harness import DEFAULTS, Environment, QuerySetStats, run_query_set
from repro.bench.reporting import emit_table
from repro.codec import CODEC_NAMES


@dataclass(frozen=True)
class KernelRun:
    """Per-kernel measurements for one codec."""

    codec: str
    scalar: QuerySetStats
    v3: QuerySetStats
    #: True when both kernels returned the sweep-wide baseline's exact
    #: (tid, distance) lists for every query.
    answers_identical: bool

    def _filter_wall_ms(self, stats: QuerySetStats) -> List[float]:
        return [r.filter_wall_s * 1000.0 for r in stats.reports]

    def filter_p50_ms(self, kernel: str) -> float:
        """Median measured filter wall time per query, in ms."""
        return percentile(self._filter_wall_ms(getattr(self, kernel)), 50.0)

    def filter_p95_ms(self, kernel: str) -> float:
        """95th-percentile measured filter wall time per query, in ms."""
        return percentile(self._filter_wall_ms(getattr(self, kernel)), 95.0)

    def qps(self, kernel: str) -> float:
        """Measured queries per second over the whole set."""
        stats: QuerySetStats = getattr(self, kernel)
        return len(stats.reports) / stats.wall_s if stats.wall_s else 0.0

    def accesses_per_query(self, kernel: str) -> float:
        """Mean table-file accesses (refined rows) per query."""
        reports = getattr(self, kernel).reports
        return sum(r.table_accesses for r in reports) / len(reports)

    @property
    def filter_speedup(self) -> float:
        """Mean scalar filter wall time over mean v3 filter wall time."""
        scalar = sum(self._filter_wall_ms(self.scalar))
        v3 = sum(self._filter_wall_ms(self.v3))
        return scalar / v3 if v3 else 0.0


def _answers(stats: QuerySetStats) -> List[List[Tuple[int, float]]]:
    return [[(r.tid, r.distance) for r in report.results] for report in stats.reports]


def kernel_compare_sweep(
    env: Environment,
    codecs: Optional[Sequence[str]] = None,
    values_per_query: int = DEFAULTS.values_per_query,
    k: int = DEFAULTS.k,
) -> List[KernelRun]:
    """Race the kernels on every codec; verify answers."""

    def compute() -> List[KernelRun]:
        names = tuple(codecs) if codecs is not None else CODEC_NAMES
        query_set = env.query_set(values_per_query)
        runs: List[KernelRun] = []
        baseline: Optional[List[List[Tuple[int, float]]]] = None
        for codec in names:
            index = env.iva_variant(DEFAULTS.alpha, DEFAULTS.n, codec=codec)
            scalar = run_query_set(
                env.iva_engine(index=index, kernel="scalar"),
                query_set,
                k=k,
                label=f"iVA {codec} scalar",
            )
            scalar_answers = _answers(scalar)
            if baseline is None:
                baseline = scalar_answers
            v3 = run_query_set(
                env.iva_engine(index=index, kernel="v3"),
                query_set,
                k=k,
                label=f"iVA {codec} v3",
            )
            runs.append(
                KernelRun(
                    codec=codec,
                    scalar=scalar,
                    v3=v3,
                    answers_identical=scalar_answers == baseline
                    and _answers(v3) == baseline,
                )
            )
        return runs

    key = f"kernel_compare_{tuple(codecs or CODEC_NAMES)}_{values_per_query}_{k}"
    return env.cached(key, compute)


def kernel_rows(sweep: Sequence[KernelRun]) -> list:
    """Table rows: one per codec."""
    rows = []
    for run in sweep:
        rows.append(
            [
                run.codec,
                round(run.filter_p50_ms("scalar"), 2),
                round(run.filter_p95_ms("scalar"), 2),
                round(run.filter_p50_ms("v3"), 2),
                round(run.filter_p95_ms("v3"), 2),
                round(run.filter_speedup, 2),
                round(run.qps("scalar"), 1),
                round(run.qps("v3"), 1),
                round(run.accesses_per_query("scalar"), 1),
                round(run.accesses_per_query("v3"), 1),
                "yes" if run.answers_identical else "NO",
            ]
        )
    return rows


KERNEL_HEADERS = [
    "codec",
    "scalar p50 (ms)",
    "scalar p95 (ms)",
    "v3 p50 (ms)",
    "v3 p95 (ms)",
    "filter speedup",
    "scalar QPS",
    "v3 QPS",
    "scalar accesses/query",
    "v3 accesses/query",
    "answers identical",
]


def emit_kernel_compare(sweep: Sequence[KernelRun]) -> str:
    """Print + persist the scalar/v3 kernel comparison table."""
    return emit_table(
        "kernel_compare",
        "Kernel comparison — scalar (Eq. 3, interleaved) vs. v3 (Eq. 3 + "
        "length, best-first): wall-clock and table accesses per query",
        KERNEL_HEADERS,
        kernel_rows(sweep),
    )
