"""Per-query deadline budgets: graceful degradation, never silent lies.

The contract under test (``deadline_s`` on every engine):

* ``fail_mode="degrade"`` — an expired budget returns the partial answer
  explicitly flagged ``degraded=True``/``deadline_hit=True`` with the
  unscanned tid ranges reported, and every returned result's distance is
  the tuple's *true* distance (a cut answer may be incomplete, never
  wrong);
* ``fail_mode="raise"`` — the same expiry raises
  :class:`~repro.errors.DeadlineExceeded`;
* a generous budget changes nothing: answers stay bit-identical to the
  brute-force ground truth and the report is not degraded;
* ``repro_degraded_queries_total`` and ``repro_deadline_exceeded_total``
  both advance on a cut.
"""

from __future__ import annotations

import pytest

from tests.helpers import assert_topk_matches_bruteforce
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
