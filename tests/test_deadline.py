"""Per-query deadline budgets: graceful degradation, never silent lies.

The contract under test (``deadline_s`` on every engine):

* ``fail_mode="degrade"`` — an expired budget returns the partial answer
  explicitly flagged ``degraded=True``/``deadline_hit=True`` with the
  unscanned tid ranges reported; the answer is the exact top-k over the
  live tuples the scan got through (a cut answer may be incomplete, never
  wrong);
* ``fail_mode="raise"`` — the same expiry raises
  :class:`~repro.errors.DeadlineExceeded`;
* a generous budget changes nothing: answers stay bit-identical to the
  brute-force ground truth and the report is not degraded;
* ``repro_degraded_queries_total`` and ``repro_deadline_exceeded_total``
  both advance on a cut.
"""

from __future__ import annotations

import itertools

import pytest

from tests.helpers import assert_topk_matches_bruteforce, brute_force_topk
from repro.core import engine as engine_module
from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAFile
from repro.data.workload import WorkloadGenerator
from repro.errors import DeadlineExceeded
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry

#: A budget that has always already expired when the first check runs.
EXPIRED = 1e-9
#: A budget no test query on the small dataset can plausibly exhaust.
GENEROUS = 60.0


@pytest.fixture(scope="module")
def indexed(small_dataset):
    return small_dataset, IVAFile.build(small_dataset)


@pytest.fixture(scope="module")
def queries(indexed):
    table, _ = indexed
    workload = WorkloadGenerator(table, seed=23)
    return [workload.sample_query(3) for _ in range(4)]


def _true_distance(table, query, tid, distance=None):
    dist = distance or DistanceFunction()
    return dist.actual(query, table.read(tid))


# ------------------------------------------------------------- degrade mode


@pytest.mark.parametrize("kernel", ["scalar", "v3"])
def test_sequential_expired_deadline_degrades(indexed, queries, kernel):
    table, index = indexed
    registry = MetricsRegistry()
    engine = IVAEngine(
        table, index, registry=registry, kernel=kernel, fail_mode="degrade"
    )
    report = engine.search(queries[0], k=5, deadline_s=EXPIRED)
    assert report.degraded is True
    assert report.deadline_hit is True
    # The sequential path cannot know where the cut scan would have ended.
    assert report.lost_tid_ranges
    assert report.lost_tid_ranges[-1][1] == -1
    # Partial, never wrong: each returned distance is the true distance.
    for result in report.results:
        assert result.distance == pytest.approx(
            _true_distance(table, queries[0], result.tid, engine.distance)
        )
    assert (
        registry.counter("repro_degraded_queries_total", labels={"engine": "iVA"}).value
        == 1
    )
    assert (
        registry.counter(
            "repro_deadline_exceeded_total", labels={"engine": "iVA"}
        ).value
        == 1
    )


def test_batch_expired_deadline_flags_every_report(indexed, queries):
    table, index = indexed
    registry = MetricsRegistry()
    engine = IVAEngine(table, index, registry=registry, fail_mode="degrade")
    reports = engine.search_batch(queries, k=5, deadline_s=EXPIRED)
    assert len(reports) == len(queries)
    for report in reports:
        assert report.degraded is True
        assert report.deadline_hit is True
        assert report.lost_tid_ranges


def _cut_after(monkeypatch, checks: int) -> None:
    """Expire the deadline at the *checks*-th check (one per v3 block, one
    per tuple on the scalar walk), as a budget running out mid-scan.

    v3 blocks shrink to 64 tuples so the small table spans several.
    """
    monkeypatch.setattr(engine_module, "BLOCK_TUPLES", 64)
    calls = itertools.count(1)

    def check(deadline, last_tid):
        if next(calls) >= checks:
            raise DeadlineExceeded(f"deadline expired after tid {last_tid}")

    monkeypatch.setattr(engine_module, "check_deadline", check)


@pytest.mark.parametrize("kernel, checks", [("scalar", 120), ("v3", 2)])
def test_cut_mid_scan_is_the_exact_topk_of_the_scanned_prefix(
    indexed, queries, monkeypatch, kernel, checks
):
    """A budget that runs out mid-scan still refines what the scan found
    (best-first under v3): the degraded answer is the exact top-k over the
    live tuples up to the last scanned tid."""
    table, index = indexed
    engine = IVAEngine(table, index, kernel=kernel, fail_mode="degrade")
    for query in queries:
        _cut_after(monkeypatch, checks)
        report = engine.search(query, k=5)
        assert report.degraded and report.deadline_hit
        [(first_lost, end)] = report.lost_tid_ranges
        assert end == -1 and first_lost > 0
        expected = brute_force_topk(
            table, query, 5, engine.distance, last_tid=first_lost - 1
        )
        assert expected
        assert [(r.tid, r.distance) for r in report.results] == expected


def test_batch_cut_mid_scan_is_the_exact_topk_of_the_scanned_prefix(
    indexed, queries, monkeypatch
):
    table, index = indexed
    engine = IVAEngine(table, index, fail_mode="degrade")
    _cut_after(monkeypatch, 2)
    reports = engine.search_batch(queries, k=5)
    for query, report in zip(queries, reports):
        [(first_lost, _)] = report.lost_tid_ranges
        expected = brute_force_topk(
            table, query, 5, engine.distance, last_tid=first_lost - 1
        )
        assert [(r.tid, r.distance) for r in report.results] == expected


# --------------------------------------------------------------- raise mode


def test_sequential_expired_deadline_raises(indexed, queries):
    table, index = indexed
    engine = IVAEngine(table, index, fail_mode="raise")
    with pytest.raises(DeadlineExceeded):
        engine.search(queries[0], k=5, deadline_s=EXPIRED)


def test_batch_expired_deadline_raises(indexed, queries):
    table, index = indexed
    engine = IVAEngine(table, index, fail_mode="raise")
    with pytest.raises(DeadlineExceeded):
        engine.search_batch(queries, k=5, deadline_s=EXPIRED)


# --------------------------------------------------- generous budget: no-op


@pytest.mark.parametrize("kernel", ["v3", "scalar"])
def test_generous_deadline_is_invisible(indexed, queries, kernel):
    table, index = indexed
    engine = IVAEngine(table, index, kernel=kernel, fail_mode="degrade")
    for query in queries:
        assert_topk_matches_bruteforce(engine, table, query, k=5)
        report = engine.search(query, k=5, deadline_s=GENEROUS)
        assert report.degraded is False
        assert report.deadline_hit is False


def test_generous_deadline_batch_is_invisible(indexed, queries):
    table, index = indexed
    engine = IVAEngine(table, index, fail_mode="degrade")
    reports = engine.search_batch(queries, k=5, deadline_s=GENEROUS)
    baseline = engine.search_batch(queries, k=5)
    for with_deadline, without in zip(reports, baseline):
        assert with_deadline.deadline_hit is False
        assert [(r.tid, r.distance) for r in with_deadline.results] == [
            (r.tid, r.distance) for r in without.results
        ]
