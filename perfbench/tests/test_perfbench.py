"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import threading

import pytest

from perfbench import loadgen
from perfbench.stats import median, percentile


def test_percentile_known_input():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 0) == 15
    assert percentile(values, 100) == 50
    assert percentile(values, 50) == 35
    assert percentile(values, 40) == pytest.approx(29.0)
    assert percentile(list(range(1, 101)), 95) == pytest.approx(95.05)
    assert median([3, 1, 2, 4]) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)


class FakeClock:
    """A manual clock: ``sleep`` advances it; sends take scripted time."""

    def __init__(self) -> None:
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self) -> float:
        with self.lock:
            return self.now

    def sleep(self, seconds: float) -> None:
        with self.lock:
            self.now += seconds


def test_open_loop_times_from_due_time_through_a_stall():
    clock = FakeClock()
    service = {0: 1.0}  # the first request stalls the fake server for 1 s

    def send(i):
        clock.sleep(service.get(i, 0.001))
        return 200, {"i": i}

    outcomes = loadgen.open_loop(
        send, list(range(10)), rate=10.0, duration_s=1.0, workers=1,
        clock=clock, sleep=clock.sleep,
    )
    assert [o.request for o in outcomes] == list(range(10))
    first, later = outcomes[0], outcomes[1:]
    assert first.lateness_ms == pytest.approx(0.0, abs=1e-6)
    assert first.latency_ms == pytest.approx(1000.0, abs=1e-3)
    # Every later request was due while the server stalled: it is sent late
    # and its latency counts from the due time, not from the send.
    for o in later:
        assert o.lateness_ms > 0
        assert o.latency_ms == pytest.approx(o.lateness_ms + 1.0, abs=1e-3)
    assert later[0].latency_ms == pytest.approx(1000.0 - 100.0 + 1.0, abs=1e-3)


def test_closed_loop_times_from_send():
    clock = FakeClock()

    def send(i):
        clock.sleep(0.25)
        return 200, None

    outcomes = loadgen.closed_loop(send, iter(range(100)), 1.0, clock=clock)
    assert len(outcomes) == 4
    assert all(o.latency_ms == pytest.approx(250.0) and o.lateness_ms == 0 for o in outcomes)


def test_closed_loop_step_between_requests_is_not_timed():
    clock = FakeClock()

    def send(i):
        clock.sleep(0.25)
        return 200, None

    outcomes = loadgen.closed_loop(send, iter(range(100)), 2.0, clock=clock, between=lambda: clock.sleep(1.0))
    assert len(outcomes) == 2
    assert all(o.latency_ms == pytest.approx(250.0) for o in outcomes)


def test_host_speed_factor_comes_from_samples_near_the_interval():
    from perfbench import hostspeed

    clock = FakeClock()
    # (interpreter ms, array ms) per unit run: three fast samples, five slow.
    units = iter([(0.5, 0.5)] * 9 + [(1.5, 0.5)] * 15)
    cal = hostspeed.Calibrator(every_s=0.5, clock=clock, unit=lambda: next(units))
    for _ in range(8):
        cal.maybe_sample()
        clock.sleep(0.5 if len(cal.times) < 3 else 1.5)
    assert len(cal.times) == 8
    assert cal.unit_ms == [1.0] * 3 + [2.0] * 5
    assert cal.python_ms == [0.5] * 3 + [1.5] * 5
    ref, ref_python = hostspeed.REFERENCE_MS, hostspeed.REFERENCE_PYTHON_MS
    # An interval in the slow phase is scaled by slow samples only.
    assert cal.unit_ms[cal.near(5.5, 7.0)] == [2.0] * 5
    assert cal.factor(7.0, 7.2) == pytest.approx(ref / 2.0)
    assert cal.factor(7.0, 7.2, interpreter=True) == pytest.approx(ref_python / 1.5)
    # With too few samples near, the nearest ones are added until MIN_NEAR.
    assert cal.unit_ms[cal.near(0.0, 0.1)] == [1.0, 1.0, 1.0, 2.0, 2.0]
    assert cal.factor(0.0, 0.1) == pytest.approx(ref / 1.0)
    assert cal.factor(0.0, 0.1, interpreter=True) == pytest.approx(ref_python / 0.5)
    # A sample younger than every_s is not repeated.
    again = hostspeed.Calibrator(every_s=0.5, clock=clock, unit=lambda: (1.0, 0.0))
    again.maybe_sample()
    clock.sleep(0.1)
    again.maybe_sample()
    assert len(again.times) == 1


def test_transport_errors_are_recorded_as_failed_attempts():
    clock = FakeClock()

    def send(i):
        clock.sleep(0.01)
        if i % 3 == 1:
            raise ConnectionResetError("peer went away")
        return 200, {"i": i}

    opened = loadgen.open_loop(
        send, list(range(9)), rate=10.0, duration_s=0.9, workers=2,
        clock=clock, sleep=clock.sleep,
    )
    closed = loadgen.closed_loop(send, iter(range(9)), 10.0, clock=clock)
    for outcomes in (opened, closed):
        assert [o.request for o in outcomes] == list(range(9))
        assert [(o.status, o.body) for o in outcomes if o.request % 3 == 1] == [(0, None)] * 3
        assert all(o.status == 200 for o in outcomes if o.request % 3 != 1)


def _record(workload, seed, correct=True, failed=0, trace=0, **metrics):
    return {
        "workload": workload, "trace": trace, "correct": correct,
        "attempted": 100, "failed": failed,
        "stamp": {"seeds": {"workload": seed}},
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }


def _compare(tmp_path, base, new):
    from perfbench import compare

    for side, records in (("base", base), ("new", new)):
        (tmp_path / side).mkdir(parents=True)
        for n, record in enumerate(records):
            (tmp_path / side / f"{n}.json").write_text(json.dumps(record))
    return compare.main([str(tmp_path / "base"), str(tmp_path / "new")])


def test_compare_fails_on_wrong_answers_and_more_failures(tmp_path):
    base = [_record("unique_reads", s, read_p50_ms=100.0) for s in (1, 2)]
    assert _compare(tmp_path / "same", base, base) == 0
    wrong = [base[0], _record("unique_reads", 2, correct=False, read_p50_ms=100.0)]
    assert _compare(tmp_path / "wrong", base, wrong) == 1
    failing = [base[0], _record("unique_reads", 2, failed=3, read_p50_ms=80.0)]
    assert _compare(tmp_path / "failing", base, failing) == 1
    slower = [_record("unique_reads", s, read_p50_ms=140.0) for s in (1, 2)]
    assert _compare(tmp_path / "slower", base, slower) == 1


def test_compare_checks_modeled_counts_per_seed_on_unique_reads_only(tmp_path):
    base = [_record("unique_reads", s, trace=1, **{"modeled.table_accesses": 10.0 * s}) for s in (1, 2)]
    # Different seed sets: only seed 2 is on both sides, and it repeats.
    other_seeds = [_record("unique_reads", s, trace=1, **{"modeled.table_accesses": 10.0 * s}) for s in (2, 3)]
    assert _compare(tmp_path / "seeds", base, other_seeds) == 0
    drifted = [_record("unique_reads", 1, trace=1, **{"modeled.table_accesses": 11.0})]
    assert _compare(tmp_path / "drift", base, drifted) == 1
    churn = [_record("read_write_churn", 1, trace=1, **{"modeled.table_accesses": v}) for v in (5.0, 7.0)]
    assert _compare(tmp_path / "churn", churn[:1], churn[1:]) == 0


def test_zipf_sampler_is_deterministic_per_seed():
    a = loadgen.ZipfSampler(256, 1.0, seed=5)
    b = loadgen.ZipfSampler(256, 1.0, seed=5)
    c = loadgen.ZipfSampler(256, 1.0, seed=6)
    seq_a = [a.sample() for _ in range(2000)]
    assert seq_a == [b.sample() for _ in range(2000)]
    assert seq_a != [c.sample() for _ in range(2000)]
    assert all(0 <= r < 256 for r in seq_a)
    # Rank 0 is the most popular: about 1/H(256), roughly 16% of draws.
    assert 0.12 < seq_a.count(0) / len(seq_a) < 0.21


@pytest.fixture(scope="module")
def small_snapshot(tmp_path_factory):
    from repro.core.iva_file import IVAConfig, IVAFile
    from repro.data.generator import DatasetConfig, DatasetGenerator
    from repro.storage import SparseWideTable, simulated_backend
    from repro.storage.snapshot import save_disk

    disk = simulated_backend()
    table = SparseWideTable(disk)
    DatasetGenerator(DatasetConfig(num_tuples=300, num_attributes=40, seed=3)).populate(table)
    IVAFile.build(table, IVAConfig(name="iva"))
    path = tmp_path_factory.mktemp("snap") / "db.ivadb"
    save_disk(disk, path)
    return path


def test_oracle_flags_a_corrupted_answer(small_snapshot):
    from perfbench import oracle

    table, index = oracle.open_snapshot(small_snapshot)
    terms = oracle.sample_universe(table, 3)[2]
    expected = oracle.answer_of(oracle.scalar_engine(table, index).search(terms, k=5))
    payload = {
        "results": [{"tid": tid, "distance": dist} for tid, dist in expected],
        "degraded": False,
    }
    assert oracle.check_answer(expected, payload) is None

    swapped = dict(payload, results=list(reversed(payload["results"])))
    assert oracle.check_answer(expected, swapped) is not None
    off = [dict(r) for r in payload["results"]]
    off[-1]["distance"] += 1e-6
    assert oracle.check_answer(expected, dict(payload, results=off)) is not None
    assert oracle.check_answer(expected, dict(payload, results=payload["results"][:-1])) is not None
    assert oracle.check_answer(expected, dict(payload, degraded=True)) is not None
    assert oracle.check_answer(expected, None) is not None


def test_benchmark_json_matches_the_runner():
    from perfbench import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["unique_reads", "read_write_churn"]
    assert set(run.WORKLOADS) == {"unique_reads", "zipf_reads", "read_write_churn"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    whys = " ".join(w["why"] for w in spec["workloads"])
    for fixed in (
        f"SLO {run.SLO_MS:g} ms",
        f"within {run.RECONCILE_SHARE:.0%}",
        f"--beta {run.BETA:g}",
        f"{run.WRITE_SHARE:.0%} update/insert",
    ):
        assert fixed in whys


def test_mirror_replays_writes_like_the_table(small_snapshot):
    from perfbench import oracle

    mirror = oracle.Mirror(small_snapshot)
    live = mirror.table.live_tids()
    values = oracle.record_values(mirror.table, live[0])
    next_tid = mirror.table.next_tid
    assert mirror.update(live[1], values) == next_tid
    assert mirror.insert(values) == next_tid + 1
    assert not mirror.table.is_live(live[1])
