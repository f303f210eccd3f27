#!/usr/bin/env python
"""Smoke-check the telemetry pipeline against a tiny benchmark run.

Runs a scaled-down bench environment (300 tuples), emits a result table —
which writes the registry snapshot to ``<name>.metrics.json`` exactly as
every real benchmark does — then loads that JSON back and fails if any
expected metric family is missing, empty, or carries a non-finite value.

Exit status 0 on success, 1 on any problem, so it can gate `make smoke`.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

#: Metric families a query benchmark must always produce.
REQUIRED_COUNTERS = (
    "repro_queries_total",
    "repro_tuples_scanned_total",
    "repro_table_accesses_total",
)
REQUIRED_HISTOGRAMS = (
    "repro_query_time_ms",
    "repro_filter_time_ms",
    "repro_refine_time_ms",
)
REQUIRED_GAUGES = (
    "repro_disk_bytes_read",
    "repro_disk_io_time_ms",
    "repro_cache_hit_rate",
)


def _finite(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _names(snapshot: dict, kind: str) -> set:
    return {inst["name"] for inst in snapshot.get(kind, ())}


def check_snapshot(snapshot: dict) -> list:
    """Return a list of problem strings (empty means healthy)."""
    problems = []
    for kind, required in (
        ("counters", REQUIRED_COUNTERS),
        ("histograms", REQUIRED_HISTOGRAMS),
        ("gauges", REQUIRED_GAUGES),
    ):
        present = _names(snapshot, kind)
        for name in required:
            if name not in present:
                problems.append(f"missing {kind[:-1]} {name!r}")
    for counter in snapshot.get("counters", ()):
        if not _finite(counter["value"]) or counter["value"] < 0:
            problems.append(f"counter {counter['name']!r} = {counter['value']!r}")
    for gauge in snapshot.get("gauges", ()):
        if not _finite(gauge["value"]):
            problems.append(f"gauge {gauge['name']!r} = {gauge['value']!r}")
    for hist in snapshot.get("histograms", ()):
        if hist["count"] < 0 or not _finite(hist["sum"]):
            problems.append(f"histogram {hist['name']!r} sum = {hist['sum']!r}")
        if hist["name"] in REQUIRED_HISTOGRAMS and hist["count"] == 0:
            problems.append(f"histogram {hist['name']!r} has no observations")
        for key in ("p50", "p95", "p99"):
            value = hist.get(key)
            if value is not None and not _finite(value):
                problems.append(f"histogram {hist['name']!r} {key} = {value!r}")
    return problems


def check_codec_sidecar(snapshot: dict, csv_rows: list) -> list:
    """Validate the ``codec-compare`` sweep's emitted artifacts.

    The metrics snapshot must carry the bytes-saved counter for at least
    one non-raw codec, and every CSV row must report identical answers —
    a compressed index that answers differently is a correctness bug the
    smoke gate has to catch.
    """
    problems = check_snapshot(snapshot)
    saved = [
        c
        for c in snapshot.get("counters", ())
        if c["name"] == "repro_codec_bytes_saved_total"
    ]
    if not saved:
        problems.append("missing counter 'repro_codec_bytes_saved_total'")
    elif not any(c["value"] > 0 for c in saved):
        problems.append("repro_codec_bytes_saved_total never incremented")
    if len(csv_rows) < 2:
        problems.append(f"codec-compare emitted {len(csv_rows)} codec rows, want >= 2")
    for row in csv_rows:
        if row and row[-1] != "yes":
            problems.append(f"codec {row[0]!r} answers differ from raw")
    return problems


def check_kernel_sidecar(snapshot: dict, csv_rows: list) -> list:
    """Validate the ``kernel-compare`` sweep's emitted artifacts.

    The v3 runs must have actually exercised the compiled kernel (the
    compile, block and segment counters incremented), and every CSV row
    must report answers identical to the scalar filter — a v3 kernel that
    diverges is a correctness bug the smoke gate has to catch.
    """
    problems = check_snapshot(snapshot)
    for name in (
        "repro_kernel_compiles_total",
        "repro_kernel_blocks_total",
        "repro_kernel_segments_total",
    ):
        values = [c["value"] for c in snapshot.get("counters", ()) if c["name"] == name]
        if not values:
            problems.append(f"missing counter {name!r}")
        elif not any(v > 0 for v in values):
            problems.append(f"{name} never incremented")
    if len(csv_rows) < 2:
        problems.append(f"kernel-compare emitted {len(csv_rows)} rows, want >= 2")
    for row in csv_rows:
        if row and row[-1] != "yes":
            problems.append(
                f"kernel run {row[0]!r} x{row[1]} answers differ between kernels"
            )
    return problems


def check_fault_sidecar(snapshot: dict, csv_rows: list) -> list:
    """Validate the ``fault-sweep`` chaos harness's emitted artifacts.

    The snapshot must show faults were actually injected (a vacuously
    clean sweep proves nothing), and every CSV row's verdict must be
    ``ok`` — a single silently-wrong answer under faults is the exact
    failure mode the resilience stack exists to prevent.
    """
    problems = check_snapshot(snapshot)
    injected = [
        c["value"]
        for c in snapshot.get("counters", ())
        if c["name"] == "repro_faults_injected_total"
    ]
    if not injected:
        problems.append("missing counter 'repro_faults_injected_total'")
    elif not any(v > 0 for v in injected):
        problems.append("repro_faults_injected_total never incremented")
    if len(csv_rows) < 4:
        problems.append(f"fault-sweep emitted {len(csv_rows)} rows, want >= 4")
    for row in csv_rows:
        if row and row[-1] != "ok":
            problems.append(
                f"fault-sweep cell {row[0]!r}/{row[1]!r}@{row[2]} "
                f"produced silently-wrong answers"
            )
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        os.environ["REPRO_BENCH_RESULTS"] = tmp

        from repro.bench.codec_compare import codec_compare_sweep, emit_codec_compare
        from repro.bench.harness import build_environment, run_query_set
        from repro.bench.reporting import emit_table
        from repro.data import DatasetConfig
        from repro.obs.metrics import get_registry

        get_registry().reset()
        env = build_environment(
            dataset=DatasetConfig(num_tuples=300, num_attributes=40, seed=7)
        )
        stats = run_query_set(env.iva_engine(), env.query_set(3), k=10)
        emit_table(
            "smoke_metrics",
            "Smoke: tiny bench run",
            ["engine", "mean query ms"],
            [[stats.engine, stats.mean_query_time_ms]],
        )

        path = os.path.join(tmp, "smoke_metrics.metrics.json")
        if not os.path.exists(path):
            print(f"FAIL: bench did not emit {path}", file=sys.stderr)
            return 1
        with open(path, encoding="utf-8") as fh:
            snapshot = json.load(fh)

        emit_codec_compare(codec_compare_sweep(env))
        codec_json = os.path.join(tmp, "codec_compare.metrics.json")
        codec_csv = os.path.join(tmp, "codec_compare.csv")
        if not os.path.exists(codec_json) or not os.path.exists(codec_csv):
            print("FAIL: codec-compare did not emit its sidecar", file=sys.stderr)
            return 1
        with open(codec_json, encoding="utf-8") as fh:
            codec_snapshot = json.load(fh)
        import csv as csv_module

        with open(codec_csv, encoding="utf-8", newline="") as fh:
            codec_rows = list(csv_module.reader(fh))[1:]  # drop the header

        from repro.bench.kernel_compare import (
            emit_kernel_compare,
            kernel_compare_sweep,
        )

        emit_kernel_compare(kernel_compare_sweep(env))
        kernel_json = os.path.join(tmp, "kernel_compare.metrics.json")
        kernel_csv = os.path.join(tmp, "kernel_compare.csv")
        if not os.path.exists(kernel_json) or not os.path.exists(kernel_csv):
            print("FAIL: kernel-compare did not emit its sidecar", file=sys.stderr)
            return 1
        with open(kernel_json, encoding="utf-8") as fh:
            kernel_snapshot = json.load(fh)
        with open(kernel_csv, encoding="utf-8", newline="") as fh:
            kernel_rows = list(csv_module.reader(fh))[1:]  # drop the header

        from repro.bench.fault_sweep import emit_fault_sweep, fault_sweep

        emit_fault_sweep(
            fault_sweep(
                rates=(0.0, 0.1),
                seed=31,
                k=10,
                queries_per_combo=4,
                dataset=DatasetConfig(
                    num_tuples=250,
                    num_attributes=40,
                    mean_attrs_per_tuple=6.0,
                    seed=13,
                ),
            )
        )
        fault_json = os.path.join(tmp, "fault_sweep.metrics.json")
        fault_csv = os.path.join(tmp, "fault_sweep.csv")
        if not os.path.exists(fault_json) or not os.path.exists(fault_csv):
            print("FAIL: fault-sweep did not emit its sidecar", file=sys.stderr)
            return 1
        with open(fault_json, encoding="utf-8") as fh:
            fault_snapshot = json.load(fh)
        with open(fault_csv, encoding="utf-8", newline="") as fh:
            fault_rows = list(csv_module.reader(fh))[1:]  # drop the header

    problems = (
        check_snapshot(snapshot)
        + check_codec_sidecar(codec_snapshot, codec_rows)
        + check_kernel_sidecar(kernel_snapshot, kernel_rows)
        + check_fault_sidecar(fault_snapshot, fault_rows)
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    counters = len(snapshot["counters"])
    histograms = len(snapshot["histograms"])
    gauges = len(snapshot["gauges"])
    print(
        f"metrics OK: {counters} counters, {gauges} gauges, "
        f"{histograms} histograms, all finite; codec-compare sidecar OK "
        f"({len(codec_rows)} codecs, answers identical); kernel-compare "
        f"sidecar OK ({len(kernel_rows)} runs, v3 == scalar); "
        f"fault-sweep sidecar OK ({len(fault_rows)} cells, none silently wrong)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
