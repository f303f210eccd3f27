#!/usr/bin/env python
"""Smoke-check the filter kernels: v3 answers match the scalar oracle.

Builds a small synthetic table, indexes it once per registered codec
family at each α of ``ALPHAS`` (2-, 3-, 5- and 8-byte numeric codes,
which every scanner decodes to uint64 segments; 8-byte codes reach past
2^63), and cross-checks that the v3 kernel's top-k answers
are bit-identical to the scalar oracle's (``IVAEngine(kernel="scalar")``)
on every path v3 runs:

* the single-query engine (two-phase: best-first refine after the scan);
* the batch path, `IVAEngine.search_batch` (one compiled artifact shared
  across the batch).

v3's text bound adds the length filter to the scalar oracle's Eq. 3 and
refines best-first, so per query it must also refine no more rows than
the oracle: v3 ``table_accesses`` <= scalar ``table_accesses``.

The 600-tuple table fits in one default v3 block, so both v3 paths also
run with the engine's block size patched to ``SMALL_BLOCK`` tuples: the
answers and per-query ``table_accesses`` must equal the default block
size's, so a bug at a block boundary cannot hide behind a one-block table.

The size chooser picks few Type II/III text lists on this table, so a
forced-layout pass indexes it once more per codec with every text list
forced to Type I, II and then III (``TextListSizes.best`` patched at
build), and runs every check above on each.

The kernels' lookup tables are built from the exact scalar bound
routines (text: the larger of Eq. 3 and the length filter, both lower
bounds), so any divergence — including on ndf tuples and clamped
out-of-domain numeric values — is a correctness bug, not a tolerance.

It also guards the refine kernel, twice over.  Every returned distance
on every path is recomputed from the tuple's full row with the DP
``edit_distance`` (the reference the bit-parallel refine distance, its
per-run memo and the projected row decode must reproduce) and must
match exactly; this covers the tuples that reach the answer without a
refine (every queried attribute ndf, pooled from the filter), which
make up the answers of two extra queries whose value no defined cell
comes near.  And the
distance of every row refined on every path, whether or not it makes
the top-k, must equal the same DP distance, so a refine bug that leaves
the answers unchanged still fails.

Exit status 0 on success, 1 on any problem, so it can gate `make smoke`.
"""

from __future__ import annotations

import functools
import sys
from unittest import mock

QUERIES = 12
K = 10
#: Relative vector lengths indexed per codec: 2-, 3-, 5- and 8-byte codes.
ALPHAS = (0.2, 0.3, 0.6, 1.0)
#: v3 block size of the second run of each path: the table spans ten blocks.
SMALL_BLOCK = 64


def main() -> int:
    from repro.codec import CODEC_NAMES
    from repro.core import engine as engine_module
    from repro.core.engine import IVAEngine
    from repro.core.iva_file import IVAConfig, IVAFile
    from repro.core.vector_lists import ListType, TextListSizes
    from repro.data.generator import DatasetConfig, DatasetGenerator
    from repro.data.workload import WorkloadGenerator
    from repro.metrics.distance import DistanceFunction, numeric_difference
    from repro.metrics.edit_distance import edit_distance
    from repro.model.values import is_ndf
    from repro.query import Query
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
    # Two queries no defined value comes near: every tuple that leaves the
    # queried attribute ndf scores the penalty and beats them, so the
    # answers are tuples pooled from the filter without a refine.
    queries += [
        Query.from_dict(table.catalog, {table.catalog.numeric_attributes()[0].name: 1e6}),
        Query.from_dict(table.catalog, {table.catalog.text_attributes()[0].name: "z" * 64}),
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
    #: (query index, tid, distance) of every refined row, in refine order.
    refined = []
    query_index = {id(query): qi for qi, query in enumerate(queries)}
    actual = DistanceFunction.actual

    def recording_actual(self, query, record, plan=None):
        distance = actual(self, query, record, plan)
        refined.append((query_index[id(query)], record.tid, distance))
        return distance

    @functools.lru_cache(maxsize=None)
    def reference_distance(qi, tid) -> float:
        """D(T, Q) from the full row, text terms by the DP edit distance."""
        query = queries[qi]
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
    refined_checked = 0

    def check_distances(label, got) -> None:
        """Every returned ``(tid, distance)`` against the DP distance."""
        nonlocal distances_checked
        for qi, results in enumerate(got):
            for tid, distance in results:
                distances_checked += 1
                expected = reference_distance(qi, tid)
                if distance != expected:
                    problems.append(
                        f"{label}: query {qi} tid {tid} returned distance "
                        f"{distance!r} != DP full-row distance {expected!r}"
                    )

    def check_refined(label) -> None:
        """Every row refined since the last call against the DP distance."""
        nonlocal refined_checked
        if not refined:
            problems.append(f"{label}: refined no row")
        for qi, tid, distance in refined:
            refined_checked += 1
            expected = reference_distance(qi, tid)
            if distance != expected:
                problems.append(
                    f"{label}: query {qi} tid {tid} refined distance "
                    f"{distance!r} != DP full-row distance {expected!r}"
                )
        refined.clear()

    recording = mock.patch.object(DistanceFunction, "actual", recording_actual)
    forced_layouts = (ListType.TYPE_I, ListType.TYPE_II, ListType.TYPE_III)
    cases = [
        (
            f"{codec} α={alpha}",
            IVAConfig(name=f"kernel_smoke_{codec}_{alpha}", codec=codec, alpha=alpha),
            None,
        )
        for codec in CODEC_NAMES
        for alpha in ALPHAS
    ] + [
        (
            f"{codec} forced {forced.name}",
            IVAConfig(name=f"kernel_smoke_{codec}_{forced.name}", codec=codec),
            forced,
        )
        for codec in CODEC_NAMES
        for forced in forced_layouts
    ]
    for label_index, config, forced in cases:
        if forced is None:
            index = IVAFile.build(table, config)
        else:
            best = mock.patch.object(TextListSizes, "best", lambda self: forced)
            with best:
                index = IVAFile.build(table, config)
            layouts = {e.list_type for e in index.entries() if e.attr.is_text}
            if layouts != {forced}:
                problems.append(f"{label_index}: text lists built as {layouts}")
        oracle = IVAEngine(table, index, kernel="scalar")
        with recording:
            baseline, baseline_accesses = searched(oracle)
        check_refined(f"{label_index}: scalar")
        check_distances(f"{label_index}: scalar", baseline)

        def v3_paths(label):
            with recording:
                sequential = searched(IVAEngine(table, index))
            check_refined(f"{label_index}: v3 sequential{label}")
            with recording:
                batch = IVAEngine(table, index).search_batch(queries, k=K)
            check_refined(f"{label_index}: v3 batch{label}")
            return {"sequential": sequential, "batch": answers(batch)}

        paths = v3_paths("")
        with mock.patch.object(engine_module, "BLOCK_TUPLES", SMALL_BLOCK):
            small = v3_paths(f" at {SMALL_BLOCK}-tuple blocks")
        for label, result in small.items():
            if result != paths[label]:
                problems.append(
                    f"{label_index}: v3 {label} with {SMALL_BLOCK}-tuple "
                    "blocks differs from the default block size in answers "
                    "or table accesses"
                )
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
        f"kernel smoke OK: {len(CODEC_NAMES)} codecs x ({len(ALPHAS)} alphas + "
        f"{len(forced_layouts)} forced text layouts) x {len(queries)} queries, "
        f"v3 == scalar oracle on {checked} engine paths (single-query, batch), "
        f"unchanged at {SMALL_BLOCK}-tuple blocks; "
        f"{distances_checked} returned and {refined_checked} refined rows' "
        f"distances == DP edit distance over the full row; "
        f"table accesses v3 {v3_accesses['sequential']} (batch "
        f"{v3_accesses['batch']}) <= scalar {v3_accesses['scalar']} per query"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
