#!/usr/bin/env python
"""Smoke-check the filter kernels: scalar and v3 answers match.

Builds a small synthetic table, indexes it once per registered codec
family, and cross-checks that the v3 kernel's top-k answers are
bit-identical to the scalar filter's on every path the kernel is wired
through:

* the sequential engine at 1 worker (page-batched refine);
* the parallel executor at 4 workers (compiled kernel shared across the
  shard threads; page-batched refiner);
* the batch engine (one compiled artifact shared across the batch).

The kernels' lookup tables are built from the exact scalar bound
routines, so any divergence — including on ndf tuples and clamped
out-of-domain numeric values — is a correctness bug, not a tolerance.

Exit status 0 on success, 1 on any problem, so it can gate `make smoke`.
"""

from __future__ import annotations

import sys

WORKERS = 4
QUERIES = 12
K = 10
KERNELS = ("v3",)


def main() -> int:
    from repro.codec import CODEC_NAMES
    from repro.core.batch import BatchIVAEngine
    from repro.core.engine import IVAEngine
    from repro.core.iva_file import IVAConfig, IVAFile
    from repro.data.generator import DatasetConfig, DatasetGenerator
    from repro.data.workload import WorkloadGenerator
    from repro.parallel import ExecutorConfig
    from repro.storage import SparseWideTable, simulated_backend

    table = SparseWideTable(simulated_backend())
    DatasetGenerator(
        DatasetConfig(
            num_tuples=600, num_attributes=50, mean_attrs_per_tuple=7.0, seed=19
        )
    ).populate(table)
    workload = WorkloadGenerator(table, seed=29)
    queries = [
        workload.sample_query(arity) for arity in (1, 2, 3) for _ in range(QUERIES // 3)
    ]

    def answers(engine) -> list:
        return [
            [(r.tid, r.distance) for r in engine.search(q, k=K).results]
            for q in queries
        ]

    problems = []
    checked = 0
    for codec in CODEC_NAMES:
        index = IVAFile.build(
            table, IVAConfig(name=f"kernel_smoke_{codec}", codec=codec)
        )
        baseline = answers(IVAEngine(table, index, kernel="scalar"))
        for kernel in KERNELS:
            paths = {
                "sequential": IVAEngine(table, index, kernel=kernel),
                f"parallel x{WORKERS}": IVAEngine(
                    table,
                    index,
                    kernel=kernel,
                    executor=ExecutorConfig(workers=WORKERS),
                ),
            }
            for label, engine in paths.items():
                checked += 1
                if answers(engine) != baseline:
                    problems.append(
                        f"{codec}: {kernel} {label} answers differ from scalar"
                    )
            batch = BatchIVAEngine(table, index, kernel=kernel)
            batch_answers = [
                [(r.tid, r.distance) for r in report.results]
                for report in batch.search_batch(queries, k=K)
            ]
            checked += 1
            if batch_answers != baseline:
                problems.append(
                    f"{codec}: {kernel} batch answers differ from scalar"
                )

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        f"kernel smoke OK: {len(CODEC_NAMES)} codecs x {len(queries)} queries, "
        f"{' and '.join(KERNELS)} == scalar on {checked} engine paths "
        f"(sequential, x{WORKERS} parallel, batch)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
