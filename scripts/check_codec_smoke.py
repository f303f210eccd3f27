#!/usr/bin/env python
"""Smoke-check the codec seam: one index per family, identical answers.

Builds a small synthetic table, indexes it once per registered codec
family at the default α and at α = 1.0, and cross-checks:

* every codec's v3 top-k answers, single-query and batched, are
  bit-identical to its scalar oracle's, and to ``raw``'s;
* ``fsck`` reports every index clean (codec wire-format checks included);
* the ``compressed`` family actually shrinks the vector lists.

Exit status 0 on success, 1 on any problem, so it can gate `make smoke`.
"""

from __future__ import annotations

import sys

QUERIES = 12
K = 10
#: Relative numeric vector length of the second index per codec: 8-byte codes.
WIDE_ALPHA = 1.0


def main() -> int:
    from repro.codec import CODEC_NAMES
    from repro.core.engine import IVAEngine
    from repro.core.iva_file import IVAConfig, IVAFile
    from repro.data.generator import DatasetConfig, DatasetGenerator
    from repro.data.workload import WorkloadGenerator
    from repro.storage import SparseWideTable, simulated_backend
    from repro.storage.fsck import check_index

    table = SparseWideTable(simulated_backend())
    DatasetGenerator(
        DatasetConfig(
            num_tuples=600, num_attributes=50, mean_attrs_per_tuple=7.0, seed=19
        )
    ).populate(table)
    workload = WorkloadGenerator(table, seed=23)
    queries = [workload.sample_query(arity) for arity in (1, 2, 3) for _ in range(QUERIES // 3)]

    def answers(engine) -> list:
        return [
            [(r.tid, r.distance) for r in engine.search(q, k=K).results]
            for q in queries
        ]

    problems = []
    alphas = (IVAConfig.alpha, WIDE_ALPHA)
    vector_bytes = {}
    for alpha in alphas:
        by_codec = {}
        for codec in CODEC_NAMES:
            label = f"{codec} α={alpha}"
            index = IVAFile.build(
                table, IVAConfig(name=f"smoke_{codec}_{alpha}", codec=codec, alpha=alpha)
            )
            if alpha == IVAConfig.alpha:
                vector_bytes[codec] = sum(e.list_size for e in index.entries())
            for finding in check_index(index):
                problems.append(f"fsck[{label}]: {finding}")
            oracle = answers(IVAEngine(table, index, kernel="scalar"))
            paths = {
                "v3": answers(IVAEngine(table, index)),
                "batch": [
                    [(r.tid, r.distance) for r in report.results]
                    for report in IVAEngine(table, index).search_batch(queries, k=K)
                ],
            }
            for path, got in paths.items():
                if got != oracle:
                    problems.append(f"{label}: {path} answers differ from scalar")
            by_codec[codec] = oracle
        baseline = by_codec[CODEC_NAMES[0]]
        for codec in CODEC_NAMES[1:]:
            if by_codec[codec] != baseline:
                problems.append(
                    f"{codec} α={alpha}: answers differ from {CODEC_NAMES[0]}"
                )

    raw_bytes = vector_bytes.get("raw", 0)
    compressed_bytes = vector_bytes.get("compressed", 0)
    if raw_bytes and compressed_bytes >= raw_bytes:
        problems.append(
            f"compressed vector lists ({compressed_bytes}) not smaller "
            f"than raw ({raw_bytes})"
        )

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    reduction = 1 - compressed_bytes / raw_bytes if raw_bytes else 0.0
    print(
        f"codec smoke OK: {len(CODEC_NAMES)} codecs x {len(alphas)} alphas x "
        f"{len(queries)} queries identical (scalar, v3, batch), fsck clean, "
        f"compressed saves {reduction:.1%} of vector-list bytes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
