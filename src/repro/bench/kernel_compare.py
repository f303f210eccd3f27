"""The ``kernel-compare`` sweep: scalar vs. v3 filter kernels.

Races the default query set through the iVA engine with every filter
kernel (:mod:`repro.core.kernel`) over every codec family and the
requested worker counts, and reports two things:

* **filter-phase latency** — measured wall-clock p50/p95 per query and
  the scalar/v3 speedup (the kernels change CPU work only, so the modeled
  index I/O is identical by construction and the measured wall time is
  the honest comparison);
* **answer identity** — every (codec, workers, kernel) combination must
  return *bit-identical* ``(tid, distance)`` lists for every query.  The
  kernel's lookup tables are built from the exact scalar routines
  (Prop. 3.3's no-false-negative bounds included), so any divergence is
  a bug, not a tolerance; the CLI turns it into a hard failure.

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
from repro.core.kernel import KERNEL_MODES
from repro.parallel import ExecutorConfig

#: Default worker counts for the sweep (1 = sequential engine).
KERNEL_WORKER_COUNTS: Tuple[int, ...] = (1,)


@dataclass(frozen=True)
class KernelRun:
    """Per-kernel measurements for one (codec, workers) setup."""

    codec: str
    workers: int
    scalar: QuerySetStats
    v3: QuerySetStats
    #: True when every kernel returned the sweep-wide baseline's exact
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
    worker_counts: Sequence[int] = KERNEL_WORKER_COUNTS,
    values_per_query: int = DEFAULTS.values_per_query,
    k: int = DEFAULTS.k,
) -> List[KernelRun]:
    """Race the kernels across codecs × worker counts; verify answers."""

    def compute() -> List[KernelRun]:
        names = tuple(codecs) if codecs is not None else CODEC_NAMES
        query_set = env.query_set(values_per_query)
        runs: List[KernelRun] = []
        baseline: Optional[List[List[Tuple[int, float]]]] = None
        for codec in names:
            index = env.iva_variant(DEFAULTS.alpha, DEFAULTS.n, codec=codec)
            for workers in worker_counts:
                executor = (
                    ExecutorConfig(workers=workers) if workers > 1 else None
                )
                stats = {}
                for kernel in KERNEL_MODES:
                    stats[kernel] = run_query_set(
                        env.iva_engine(index=index, executor=executor, kernel=kernel),
                        query_set,
                        k=k,
                        label=f"iVA {codec} x{workers} {kernel}",
                    )
                scalar_answers = _answers(stats["scalar"])
                if baseline is None:
                    baseline = scalar_answers
                identical = scalar_answers == baseline and all(
                    _answers(stats[kernel]) == baseline
                    for kernel in KERNEL_MODES
                    if kernel != "scalar"
                )
                runs.append(
                    KernelRun(
                        codec=codec,
                        workers=workers,
                        scalar=stats["scalar"],
                        v3=stats["v3"],
                        answers_identical=identical,
                    )
                )
        return runs

    key = (
        f"kernel_compare_{tuple(codecs or CODEC_NAMES)}"
        f"_{tuple(worker_counts)}_{values_per_query}_{k}"
    )
    return env.cached(key, compute)


def kernel_rows(sweep: Sequence[KernelRun]) -> list:
    """Table rows: one per (codec, workers) pair."""
    rows = []
    for run in sweep:
        rows.append(
            [
                run.codec,
                run.workers,
                round(run.filter_p50_ms("scalar"), 2),
                round(run.filter_p95_ms("scalar"), 2),
                round(run.filter_p50_ms("v3"), 2),
                round(run.filter_p95_ms("v3"), 2),
                round(run.filter_speedup, 2),
                round(run.qps("scalar"), 1),
                round(run.qps("v3"), 1),
                "yes" if run.answers_identical else "NO",
            ]
        )
    return rows


KERNEL_HEADERS = [
    "codec",
    "workers",
    "scalar p50 (ms)",
    "scalar p95 (ms)",
    "v3 p50 (ms)",
    "v3 p95 (ms)",
    "filter speedup",
    "scalar QPS",
    "v3 QPS",
    "answers identical",
]


def emit_kernel_compare(sweep: Sequence[KernelRun]) -> str:
    """Print + persist the scalar/v3 kernel comparison table."""
    return emit_table(
        "kernel_compare",
        "Kernel comparison — scalar vs. v3 filter, wall-clock per query",
        KERNEL_HEADERS,
        kernel_rows(sweep),
    )
