"""End-to-end serving benchmark for ``repro serve``.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see :mod:`perfbench.run` and ``BENCHMARK.json``.
"""
