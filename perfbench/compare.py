"""Compare two sets of result files: ``run.py compare BASE NEW``.

BASE and NEW are result files written by ``run.py`` (under
``.perfbench/results/``) or directories of them.  Runs are grouped by
workload and trace mode; each side's median per metric is compared.

* A NEW run that was not correct, or a NEW side that failed a larger
  share of its attempted operations than BASE, fails the comparison.
* End-to-end metrics are judged against their ``bound`` in
  ``BENCHMARK.json``: a median worse than the base by more than the bound
  is a regression.
* ``modeled.*`` metrics are the paper's cost-model counts.  They repeat
  exactly only when requests run one after another on an unchanged
  index, so they are compared on ``unique_reads`` alone, run by run for
  each seed both sides ran: any difference is drift.

Exit code 0 when nothing failed, regressed or drifted, 1 otherwise, 2 on
bad input.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.stats import median

ROOT = Path(__file__).resolve().parent.parent
#: The only workload whose ``modeled.*`` counts must repeat exactly.
MODELED_WORKLOAD = "unique_reads"


def load_results(source: Path) -> Dict[Tuple[str, int], List[dict]]:
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    grouped: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for path in files:
        record = json.loads(path.read_text())
        grouped[(record["workload"], record["trace"])].append(record)
    return grouped


def medians(records: List[dict]) -> Dict[str, float]:
    values: Dict[str, List[float]] = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[name].append(metric["value"])
    return {name: median(v) for name, v in values.items()}


def failure_share(records: List[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def judge(name: str, base: float, new: float, bounds: Dict[str, dict]) -> str:
    spec = bounds.get(name)
    if spec is None or base == 0:
        return "info"
    worse = (new - base) / base if spec["better"] == "lower" else (base - new) / base
    return "REGRESSED" if worse > spec["bound"] else "ok"


def modeled_drift(base: List[dict], new: List[dict]) -> List[str]:
    """``modeled.*`` differences between runs of the same seed on both sides."""
    def by_seed(records):
        return {r["stamp"]["seeds"]["workload"]: r["metrics"] for r in records}

    old_runs, new_runs = by_seed(base), by_seed(new)
    common = sorted(set(old_runs) & set(new_runs))
    if not common:
        print("  modeled.*: no seed was run on both sides; not compared")
    drift = []
    for seed in common:
        for name, metric in sorted(old_runs[seed].items()):
            if name.startswith("modeled.") and new_runs[seed][name]["value"] != metric["value"]:
                drift.append(f"seed {seed} {name}: {metric['value']} -> {new_runs[seed][name]['value']}")
    return drift


def compare_group(base: List[dict], new: List[dict], bounds: Dict[str, dict]) -> bool:
    """Print one workload's verdicts; True when it failed."""
    failed = False
    wrong = [r["stamp"]["seeds"]["workload"] for r in new if not r["correct"]]
    if wrong:
        print(f"  FAILED: NEW runs with wrong answers or failed checks (seeds {wrong})")
        failed = True
    before, after = failure_share(base), failure_share(new)
    if after > before:
        print(f"  FAILED: NEW failed {after:.2%} of its operations, BASE {before:.2%}")
        failed = True
    old_m, new_m = medians(base), medians(new)
    for name in sorted(set(old_m) & set(new_m)):
        if name.startswith("modeled."):
            continue
        was, now = old_m[name], new_m[name]
        delta = (now - was) / was * 100.0 if was else float("nan")
        verdict = judge(name, was, now, bounds)
        failed |= verdict == "REGRESSED"
        print(f"  {name:28s} {was:14.4f} -> {now:14.4f}  {delta:+8.2f}%  {verdict}")
    return failed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE NEW  (result files or directories)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = (load_results(Path(arg)) for arg in argv)
    if not base or not new:
        print("error: no result files found", file=sys.stderr)
        return 2
    failed = False
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        if key not in base or key not in new:
            print(f"{workload} (trace {trace}): only on one side; skipped")
            continue
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, {len(new[key])} new runs")
        failed |= compare_group(base[key], new[key], bounds)
        if workload == MODELED_WORKLOAD and trace:
            drift = modeled_drift(base[key], new[key])
            for line in drift:
                print(f"  DRIFT {line}")
            failed |= bool(drift)
    return 1 if failed else 0
