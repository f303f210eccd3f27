#!/usr/bin/env python
"""Smoke-check the filter kernels: v3 answers match the scalar oracle.

Builds a small synthetic table, indexes it once per registered codec
family at the default α and once at α = 1.0 (8-byte numeric codes, too
wide for the columnar decoders: v3 decodes them through the scanners'
``move_to`` walk), and cross-checks that the v3 kernel's top-k answers
are bit-identical to the scalar oracle's (``IVAEngine(kernel="scalar")``)
on every path v3 runs:

* the single-query engine (two-phase: best-first refine after the scan);
* the batch path, `IVAEngine.search_batch` (one compiled artifact shared
  across the batch).

v3's text bound adds the length filter to the scalar oracle's Eq. 3 and
refines best-first, so per query it must also refine no more rows than
the oracle: v3 ``table_accesses`` <= scalar ``table_accesses``.

The kernels' lookup tables are built from the exact scalar bound
routines (text: the larger of Eq. 3 and the length filter, both lower
bounds), so any divergence — including on ndf tuples and clamped
out-of-domain numeric values — is a correctness bug, not a tolerance.

It also guards the refine kernel: every returned distance is recomputed
from the tuple's full row with the DP ``edit_distance`` (the reference
the bit-parallel refine distance and the projected row decode must
reproduce) and must match exactly.

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
    from repro.metrics.distance import DistanceFunction, numeric_difference
    from repro.metrics.edit_distance import edit_distance
    from repro.model.values import is_ndf
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

    def answers(reports) -> tuple:
        """(per-query answers, per-query table accesses)."""
        reports = list(reports)
        return (
            [[(r.tid, r.distance) for r in report.results] for report in reports],
            [report.table_accesses for report in reports],
        )

    def searched(engine):
        return answers(engine.search(q, k=K) for q in queries)

    dist = DistanceFunction()

    def reference_distance(query, tid) -> float:
        """D(T, Q) from the full row, text terms by the DP edit distance."""
        record = table.read(tid)
        weighted = []
        for term in query.terms:
            value = record.value(term.attr.attr_id)
            if not term.attr.is_text:
                diff = numeric_difference(float(term.value), value, dist.ndf_penalty)
            elif is_ndf(value):
                diff = dist.ndf_penalty
            else:
                diff = float(min(edit_distance(str(term.value), s) for s in value))
            weighted.append(dist.weight(term.attr.attr_id, query) * diff)
        return dist.metric.combine(weighted)

    problems = []
    checked = 0
    v3_accesses = {"scalar": 0, "sequential": 0, "batch": 0}
    distances_checked = 0

    def check_distances(label, got) -> None:
        nonlocal distances_checked
        for query, results in zip(queries, got):
            for tid, distance in results:
                distances_checked += 1
                expected = reference_distance(query, tid)
                if distance != expected:
                    problems.append(
                        f"{label}: tid {tid} distance {distance!r} != DP "
                        f"full-row distance {expected!r}"
                    )
    alphas = (IVAConfig.alpha, WIDE_ALPHA)
    for codec, alpha in [(c, a) for c in CODEC_NAMES for a in alphas]:
        label_index = f"{codec} α={alpha}"
        config = IVAConfig(
            name=f"kernel_smoke_{codec}_{alpha}", codec=codec, alpha=alpha
        )
        index = IVAFile.build(table, config)
        oracle = IVAEngine(table, index, kernel="scalar")
        baseline, baseline_accesses = searched(oracle)
        paths = {
            "sequential": searched(IVAEngine(table, index)),
            "batch": answers(IVAEngine(table, index).search_batch(queries, k=K)),
        }
        for label, (got, accesses) in paths.items():
            checked += 1
            check_distances(f"{label_index}: v3 {label}", got)
            if got != baseline:
                problems.append(
                    f"{label_index}: v3 {label} answers differ from scalar"
                )
            for qi, (v3, scalar) in enumerate(zip(accesses, baseline_accesses)):
                if v3 > scalar:
                    problems.append(
                        f"{label_index}: v3 {label} query {qi} refined {v3} "
                        f"rows, more than the scalar oracle's {scalar}"
                    )
            v3_accesses[label] += sum(accesses)
        v3_accesses["scalar"] += sum(baseline_accesses)

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        f"kernel smoke OK: {len(CODEC_NAMES)} codecs x {len(alphas)} alphas x "
        f"{len(queries)} queries, "
        f"v3 == scalar oracle on {checked} engine paths (single-query, batch); "
        f"{distances_checked} "
        f"returned distances == DP edit distance over the full row; "
        f"table accesses v3 {v3_accesses['sequential']} (batch "
        f"{v3_accesses['batch']}) <= scalar {v3_accesses['scalar']} per query"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
