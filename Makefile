# Convenience targets for the iVA-file reproduction.

.PHONY: install test test-all smoke check-docs bench experiments examples clean

install:
	pip install -e .

test:
	pytest tests/

# Validate doc links and CLI examples against the real argparse tree.
check-docs:
	PYTHONPATH=src python scripts/check_docs.py

# Tier-1 suite, docs validation, metrics sanity check on a tiny bench run,
# a codec cross-check (one index per wire format, identical answers), a
# kernel cross-check (v3 filter == scalar filter on every path), a
# chaos cross-check (injected faults never produce silently-wrong answers),
# the perf-regression sentinel (deterministic bench counters vs. committed
# baselines), the obs-catalog gate (emitted metric/span names == docs), the
# serving gate (daemon boot + query/cache/compact/deadline round-trip over
# real HTTP), and the crash gate (journaled kill-point sweep: every
# acknowledged write survives a crash at every kill site, torn tails are
# quarantined, and recovery is deterministic).
smoke: check-docs
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src python scripts/check_bench_metrics.py
	PYTHONPATH=src python scripts/check_codec_smoke.py
	PYTHONPATH=src python scripts/check_kernel_smoke.py
	PYTHONPATH=src python scripts/check_chaos_smoke.py
	PYTHONPATH=src python scripts/check_bench_regression.py
	PYTHONPATH=src python scripts/check_obs_catalog.py
	PYTHONPATH=src python scripts/check_serve_smoke.py
	PYTHONPATH=src python scripts/check_crash_smoke.py

bench:
	pytest benchmarks/ --benchmark-only

# Regenerate EXPERIMENTS.md from a fresh benchmark run.
experiments: bench
	sh scripts/build_experiments_md.sh

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf bench_results .pytest_cache build src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
