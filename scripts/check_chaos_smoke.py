#!/usr/bin/env python
"""Smoke-check the resilience stack: faults in, never silently wrong.

Runs a miniature fault sweep (both codec families, both filter kernels)
through the full ``retry -> checksum -> fault-injection`` backend stack
and asserts the load-bearing chaos invariant:

* at rate 0 every query matches the fault-free baseline bit-for-bit and
  ``fsck`` (checksum verification included) reports the index clean;
* at the top rate faults are actually injected (the harness is not
  vacuously green) and every query either matches exactly or is
  *explicitly* degraded/errored — zero silently-wrong answers.

Exit status 0 on success, 1 on any problem, so it can gate `make smoke`.
"""

from __future__ import annotations

import sys

RATES = (0.0, 0.05)
#: Fault sites are a pure hash of (seed, file, offset, length), so which
#: reads draw a fault at the top rate depends on the exact list bytes;
#: two seeds keep the sweep from going vacuous when a layout change moves
#: them (seed 31 alone draws none on the columnar raw text blocks).
SEEDS = (31, 32)
K = 10


def main() -> int:
    from repro.bench.fault_sweep import fault_sweep
    from repro.data.generator import DatasetConfig

    runs = [
        run
        for seed in SEEDS
        for run in fault_sweep(
            rates=RATES,
            seed=seed,
            k=K,
            queries_per_combo=4,
            dataset=DatasetConfig(
                num_tuples=250, num_attributes=40, mean_attrs_per_tuple=6.0, seed=13
            ),
        )
    ]

    problems = []
    top_rate = max(RATES)
    injected_at_top = 0
    for run in runs:
        cell = f"{run.codec}/{run.kernel}@{run.rate}"
        if run.silently_wrong:
            problems.append(
                f"{cell}: {run.silently_wrong} silently wrong answer(s)"
            )
        if run.rate == 0.0:
            if run.matched != run.queries:
                problems.append(
                    f"{cell}: only {run.matched}/{run.queries} matched "
                    f"with no faults armed"
                )
            if run.fsck_clean is not True:
                problems.append(f"{cell}: fsck not clean on checksummed stack")
            if run.faults_injected:
                problems.append(
                    f"{cell}: {run.faults_injected} fault(s) fired while disarmed"
                )
        if run.rate == top_rate:
            injected_at_top += run.faults_injected

    if injected_at_top == 0:
        problems.append(
            f"no faults injected at rate {top_rate} — the sweep is vacuous"
        )

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    combos = sorted({(r.codec, r.kernel) for r in runs})
    degraded = sum(r.degraded for r in runs)
    errored = sum(r.errored for r in runs)
    print(
        f"chaos smoke OK: {len(SEEDS)} seeds x {len(combos)} codec/kernel combos "
        f"x {len(RATES)} rates, {injected_at_top} faults injected at rate {top_rate}, "
        f"0 silently wrong ({degraded} degraded, {errored} errored, "
        f"rest exact), rate-0 fsck clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
