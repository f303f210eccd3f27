"""The ``fault-sweep`` chaos harness: never silently wrong under faults.

Builds a full stack per codec — simulated disk, deterministic fault
injection, CRC32C frame verification, bounded retries (see
:mod:`repro.resilience`) — and sweeps seeded fault-injection rates over
the same query set with ``fail_mode="degrade"``, once with the v3 kernel
and once with the scalar oracle.  Every query's outcome is classified:

* **matched** — the ``(tid, distance)`` list equals the fault-free
  baseline exactly (transient faults absorbed by retries);
* **degraded** — the report says so: the scan was cut and the caller was
  told which tid range went missing;
* **errored** — the query raised a :class:`~repro.errors.ReproError`
  (persistent damage the stack refused to paper over);
* **silently wrong** — none of the above and the answer differs.  The
  acceptance bar is zero of these at every rate.

At rate 0 the sweep additionally requires bit-identical answers and a
clean :func:`repro.storage.fsck.check_all` pass on both codecs.

Exposed as ``repro bench fault-sweep`` and as :func:`fault_sweep` for the
smoke/CI scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.reporting import emit_table
from repro.codec import CODEC_NAMES
from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAConfig, IVAFile
from repro.core.kernel import KERNEL_MODES
from repro.data.generator import DatasetConfig, DatasetGenerator
from repro.data.workload import WorkloadGenerator
from repro.errors import ReproError
from repro.query import Query
from repro.resilience import (
    ChecksummedBackend,
    FaultInjectingBackend,
    FaultPlan,
    FaultRule,
    ResilientBackend,
    RetryPolicy,
)
from repro.storage import SparseWideTable, simulated_backend
from repro.storage.fsck import check_all

#: Chaos runs use a small dataset: the point is fault coverage, not scale.
CHAOS_DATASET = DatasetConfig(
    num_tuples=800,
    num_attributes=60,
    mean_attrs_per_tuple=8.0,
    seed=42,
)

#: Queries per (codec, kernel) combination.
CHAOS_QUERIES = 8


@dataclass(frozen=True)
class FaultSweepRun:
    """One (codec, kernel, rate) cell of the sweep."""

    codec: str
    kernel: str
    rate: float
    queries: int
    matched: int
    degraded: int
    errored: int
    silently_wrong: int
    faults_injected: int
    retries: int
    #: Only evaluated at rate 0: did fsck come back clean?  None elsewhere.
    fsck_clean: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """The acceptance bar for this cell."""
        return self.silently_wrong == 0 and self.fsck_clean is not False


def _rules_for(rate: float) -> Tuple[FaultRule, ...]:
    """The sweep's fault mix at one injection rate.

    Transient bit flips on vector lists (the retry layer's job), rarer
    persistent read errors (the degradation ladder's job), and latency
    spikes (correctness-neutral, keeps the latency path exercised).
    """
    if rate <= 0:
        return ()
    return (
        FaultRule(kind="bit_flip", rate=rate, files=(".v",), transient=True),
        FaultRule(
            kind="read_error", rate=rate / 4, files=(".v",), transient=False
        ),
        FaultRule(kind="latency", rate=rate, files=(".v",), latency_ms=2.0),
    )


def _answers(engine: IVAEngine, queries: Sequence[Query], k: int):
    out = []
    for query in queries:
        report = engine.search(query, k=k)
        out.append(([(r.tid, r.distance) for r in report.results], report))
    return out


def fault_sweep(
    rates: Sequence[float] = (0.0, 0.02, 0.1),
    seed: int = 13,
    k: int = 10,
    values_per_query: int = 3,
    codecs: Optional[Sequence[str]] = None,
    kernels: Optional[Sequence[str]] = None,
    dataset: Optional[DatasetConfig] = None,
    queries_per_combo: int = CHAOS_QUERIES,
) -> List[FaultSweepRun]:
    """Run the chaos sweep; one row per (codec, kernel, rate)."""
    runs: List[FaultSweepRun] = []
    for codec in tuple(codecs) if codecs is not None else CODEC_NAMES:
        plan = FaultPlan(seed=seed)
        inner = simulated_backend()
        faults = FaultInjectingBackend(inner, plan)
        backend = ResilientBackend(
            ChecksummedBackend(faults), RetryPolicy(attempts=3)
        )
        table = SparseWideTable(backend)
        DatasetGenerator(dataset or CHAOS_DATASET).populate(table)
        index = IVAFile.build(table, IVAConfig(codec=codec))
        backend.publish_metrics(label="chaos")
        workload = WorkloadGenerator(table, seed=seed)
        queries = [
            workload.sample_query(values_per_query)
            for _ in range(queries_per_combo)
        ]
        for kernel in tuple(kernels) if kernels is not None else KERNEL_MODES:
            engine = IVAEngine(table, index, kernel=kernel, fail_mode="degrade")
            plan.disarm()
            baseline = [answer for answer, _ in _answers(engine, queries, k)]
            for rate in rates:
                plan.rules = _rules_for(rate)
                faults.reset()
                injected_before = faults.injected_total
                retries_before = backend.retries
                plan.arm()
                matched = degraded = errored = wrong = 0
                try:
                    for qi, query in enumerate(queries):
                        try:
                            report = engine.search(query, k=k)
                        except ReproError:
                            errored += 1
                            continue
                        if report.degraded:
                            degraded += 1
                        elif [
                            (r.tid, r.distance) for r in report.results
                        ] == baseline[qi]:
                            matched += 1
                        else:
                            wrong += 1
                finally:
                    plan.disarm()
                fsck_clean = None
                if rate == 0:
                    fsck_clean = not check_all(table, index)
                runs.append(
                    FaultSweepRun(
                        codec=codec,
                        kernel=kernel,
                        rate=rate,
                        queries=len(queries),
                        matched=matched,
                        degraded=degraded,
                        errored=errored,
                        silently_wrong=wrong,
                        faults_injected=faults.injected_total - injected_before,
                        retries=backend.retries - retries_before,
                        fsck_clean=fsck_clean,
                    )
                )
    return runs


FAULT_HEADERS = [
    "codec",
    "kernel",
    "rate",
    "queries",
    "matched",
    "degraded",
    "errored",
    "faults injected",
    "retries",
    "verdict",
]


def fault_rows(runs: Sequence[FaultSweepRun]) -> list:
    """Table rows, one per sweep cell; verdict last for the CI gates."""
    rows = []
    for run in runs:
        rows.append(
            [
                run.codec,
                run.kernel,
                f"{run.rate:g}",
                run.queries,
                run.matched,
                run.degraded,
                run.errored,
                run.faults_injected,
                run.retries,
                "ok" if run.ok else "WRONG",
            ]
        )
    return rows


def emit_fault_sweep(runs: Sequence[FaultSweepRun]) -> str:
    """Print + persist the chaos-sweep table."""
    return emit_table(
        "fault_sweep",
        "Fault sweep — query outcomes per codec/kernel under injected faults",
        FAULT_HEADERS,
        fault_rows(runs),
    )
