"""The resilience stack: fault injection, checksummed frames, retries,
and query-level graceful degradation.

The invariant under test everywhere: a query under faults either matches
the fault-free answer exactly, or is *explicitly* degraded/errored —
never silently wrong (see ``docs/resilience.md``).
"""

from __future__ import annotations

import itertools

import pytest

from tests.helpers import brute_force_topk
from repro import IVAConfig, IVAEngine, IVAFile, SparseWideTable
from repro.core import engine as engine_module
from repro.core.kernel import QueryKernel
from repro.data.generator import DatasetConfig, DatasetGenerator
from repro.data.workload import WorkloadGenerator
from repro.errors import ChecksumError, StorageError, TransientIOError
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    ChecksummedBackend,
    FaultInjectingBackend,
    FaultPlan,
    FaultRule,
    ResilientBackend,
    RetryPolicy,
    crc32c,
    is_sidecar,
    resilient_stack,
)
from repro.storage import simulated_backend
from repro.storage.fsck import check_all, check_checksums


def _answers(report):
    return [(r.tid, r.distance) for r in report.results]


# ------------------------------------------------------------------ crc32c


class TestCrc32c:
    def test_known_answer_vector(self):
        # The canonical CRC-32C check value (RFC 3720 appendix B.4).
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_all_zero_frame_is_nonzero(self):
        # Castagnoli with pre/post-inversion: zeros do not checksum to 0,
        # so a zeroed-out frame cannot collide with an empty one.
        assert crc32c(b"\x00" * 32) != 0

    def test_incremental_matches_one_shot(self):
        data = bytes(range(256)) * 3
        # crc32c(b, crc=crc32c(a)) == crc32c(a + b) does NOT hold for the
        # finalized form; the API takes a prior *finalized* CRC and the
        # implementation re-inverts, which makes chaining exact:
        assert crc32c(data[100:], crc32c(data[:100])) == crc32c(data)

    def test_single_bit_sensitivity(self):
        data = b"x" * 4096
        flipped = bytearray(data)
        flipped[2048] ^= 0x10
        assert crc32c(bytes(flipped)) != crc32c(data)


# --------------------------------------------------------------- fault plan


class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(StorageError, match="unknown fault kind"):
            FaultRule(kind="gamma_ray", rate=0.5)
        with pytest.raises(StorageError, match="rate"):
            FaultRule(kind="bit_flip", rate=1.5)
        with pytest.raises(StorageError, match="attempts"):
            FaultRule(kind="bit_flip", rate=0.5, attempts=0)

    def test_rule_targeting(self):
        rule = FaultRule(
            kind="bit_flip", rate=1.0, files=(".v",), offset_lo=100, offset_hi=200
        )
        assert rule.matches("db.v3", 150, 8)
        assert rule.matches("db.v3", 90, 20)  # range crosses into window
        assert not rule.matches("db.tuples", 150, 8)  # wrong file
        assert not rule.matches("db.v3", 200, 8)  # past the window
        assert not rule.matches("db.v3", 0, 50)  # before the window

    def test_json_roundtrip_replays_identically(self, tmp_path):
        plan = FaultPlan(
            seed=99,
            rules=(
                FaultRule(kind="bit_flip", rate=0.3, files=(".v",)),
                FaultRule(kind="read_error", rate=0.1, transient=False),
            ),
        )
        path = tmp_path / "plan.json"
        plan.dump(str(path))
        replayed = FaultPlan.load(str(path))
        assert replayed.seed == plan.seed
        assert replayed.rules == plan.rules

    def _fired_sites(self, plan):
        """Which of a fixed probe set fire under *plan* (determinism probe)."""
        inner = simulated_backend()
        inner.create("probe.v1")
        inner.append("probe.v1", bytes(4096))
        backend = FaultInjectingBackend(inner, plan)
        plan.arm()
        outcomes = []
        for offset in range(0, 4096, 64):
            try:
                data = backend.read("probe.v1", offset, 64)
                outcomes.append("flip" if data != bytes(64) else "clean")
            except (TransientIOError, StorageError):
                outcomes.append("error")
        plan.disarm()
        return outcomes

    def test_same_seed_same_faults(self):
        rules = (
            FaultRule(kind="bit_flip", rate=0.25, transient=False),
            FaultRule(kind="read_error", rate=0.1, transient=False),
        )
        a = self._fired_sites(FaultPlan(seed=7, rules=rules))
        b = self._fired_sites(FaultPlan(seed=7, rules=rules))
        assert a == b
        assert "flip" in a and "error" in a and "clean" in a

    def test_different_seed_different_faults(self):
        rules = (FaultRule(kind="bit_flip", rate=0.25, transient=False),)
        a = self._fired_sites(FaultPlan(seed=7, rules=rules))
        b = self._fired_sites(FaultPlan(seed=8, rules=rules))
        assert a != b

    def test_disarmed_plan_is_inert(self):
        inner = simulated_backend()
        inner.create("f.v1")
        inner.append("f.v1", b"abcd")
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="bit_flip", rate=1.0, transient=False),)
        )
        backend = FaultInjectingBackend(inner, plan)
        assert backend.read("f.v1", 0, 4) == b"abcd"
        assert backend.injected_total == 0

    def test_transient_fault_clears_after_attempts(self):
        inner = simulated_backend()
        inner.create("f.v1")
        inner.append("f.v1", b"abcd")
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(kind="read_error", rate=1.0, transient=True, attempts=2),
            ),
        )
        backend = FaultInjectingBackend(inner, plan)
        plan.arm()
        for _ in range(2):
            with pytest.raises(TransientIOError):
                backend.read("f.v1", 0, 4)
        assert backend.read("f.v1", 0, 4) == b"abcd"
        backend.reset()  # history cleared: the site fires again
        with pytest.raises(TransientIOError):
            backend.read("f.v1", 0, 4)

    def test_persistent_fault_never_clears(self):
        inner = simulated_backend()
        inner.create("f.v1")
        inner.append("f.v1", b"abcd")
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="read_error", rate=1.0, transient=False),)
        )
        backend = FaultInjectingBackend(inner, plan)
        plan.arm()
        for _ in range(5):
            with pytest.raises(StorageError):
                backend.read("f.v1", 0, 4)
        assert backend.injected["read_error"] == 5

    def test_torn_write_persists_prefix(self):
        inner = simulated_backend()
        inner.create("f.v1")
        plan = FaultPlan(
            seed=3, rules=(FaultRule(kind="torn_write", rate=1.0),)
        )
        backend = FaultInjectingBackend(inner, plan)
        plan.arm()
        backend.append("f.v1", b"A" * 100)
        plan.disarm()
        assert backend.injected["torn_write"] == 1
        torn = inner.size("f.v1")
        assert 0 <= torn < 100
        assert inner.read("f.v1", 0, torn) == b"A" * torn

    def test_a_metered_context_reenters_through_the_delegate(self):
        """The re-entry contract of ``metered()`` holds through a wrapper:
        one meter sums its windows and leaves out what came between."""
        inner = simulated_backend()
        backend = ChecksummedBackend(
            FaultInjectingBackend(inner, FaultPlan(seed=1, rules=())),
            registry=MetricsRegistry(),
        )
        metered = backend.metered()
        with metered as first:
            backend.charge_latency(1.5)
        backend.charge_latency(100.0)
        with metered as second:
            backend.charge_latency(2.25)
        assert first is second
        assert second.io_ms == 1.5 + 2.25

    def test_metrics_counter_increments(self):
        registry = MetricsRegistry()
        inner = simulated_backend()
        inner.create("f.v1")
        inner.append("f.v1", b"abcd")
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="bit_flip", rate=1.0, transient=False),)
        )
        backend = FaultInjectingBackend(inner, plan, registry=registry)
        plan.arm()
        backend.read("f.v1", 0, 4)
        counter = registry.counter(
            "repro_faults_injected_total", labels={"kind": "bit_flip"}
        )
        assert counter.value == 1

    def test_latency_spike_is_charged_like_a_read(self):
        """The spike reaches every open meter of the reading thread and
        follows its accounting scope, as a page charge does."""
        inner = simulated_backend()
        inner.create("f.v1")
        inner.append("f.v1", b"abcd")
        inner.read("f.v1", 0, 4)  # cached: the read itself costs nothing
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(kind="latency", rate=1.0, latency_ms=50.0, transient=False),
            ),
        )
        backend = FaultInjectingBackend(inner, plan)
        plan.arm()
        before = inner.stats.io_time_ms
        with backend.metered() as outer, backend.metered() as inner_meter:
            backend.read("f.v1", 0, 4)
        assert outer.io_ms == pytest.approx(50.0)
        assert inner_meter.io_ms == pytest.approx(50.0)
        assert inner.stats.io_time_ms - before == pytest.approx(50.0)
        with backend.accounting_scope() as scoped:
            backend.read("f.v1", 0, 4)
        assert scoped.io_time_ms == 50.0
        assert inner.stats.io_time_ms - before == pytest.approx(50.0)


# ---------------------------------------------------------------- checksums


class TestChecksummedBackend:
    def _fresh(self):
        inner = simulated_backend()
        backend = ChecksummedBackend(inner, registry=MetricsRegistry())
        return inner, backend

    def test_roundtrip_and_sidecar(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"hello world")
        assert backend.read("f", 0, 11) == b"hello world"
        assert inner.exists("f.crc")
        assert is_sidecar("f.crc") and not is_sidecar("f")

    def test_detects_bit_flip_below(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"x" * 100)
        raw = bytearray(inner.read("f", 0, 100))
        raw[50] ^= 0x01
        inner.write("f", 0, bytes(raw))  # corrupt *below* the wrapper
        with pytest.raises(ChecksumError, match="frame 0"):
            backend.read("f", 40, 20)

    def test_detects_corruption_in_any_frame(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", bytes(range(256)) * 40)  # 10240 B = 3 frames
        inner.write("f", 5000, b"\xff")  # frame 1
        assert backend.read("f", 0, 4096) == bytes(range(256)) * 16
        with pytest.raises(ChecksumError, match="frame 1"):
            backend.read("f", 4096, 100)

    def test_write_splice_updates_frames(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"a" * 5000)  # frame 0 full, frame 1 partial
        backend.write("f", 4090, b"B" * 20)  # straddles the boundary
        assert backend.read("f", 4090, 20) == b"B" * 20
        assert backend.read("f", 0, 5000)[:4090] == b"a" * 4090

    def test_refuses_to_splice_into_corrupt_frame(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"x" * 4096)
        inner.write("f", 10, b"\x00")
        with pytest.raises(ChecksumError):
            backend.write("f", 100, b"Y")  # would silently bless frame 0

    def test_torn_append_detected_on_reload(self):
        """Power cut mid-append: the sidecar CRC covers bytes that never
        made it; a fresh wrapper poisons the tail and reads fail loudly."""
        inner = simulated_backend()
        plan = FaultPlan(
            seed=3, rules=(FaultRule(kind="torn_write", rate=1.0),)
        )
        faults = FaultInjectingBackend(inner, plan)
        backend = ChecksummedBackend(faults, registry=MetricsRegistry())
        backend.create("f")
        backend.append("f", b"safe" * 10)
        plan.arm()
        backend.append("f", b"torn" * 10)  # prefix persists below
        plan.disarm()
        reopened = ChecksummedBackend(inner, registry=MetricsRegistry())
        with pytest.raises(ChecksumError):
            reopened.read("f", 0, inner.size("f"))
        with pytest.raises(ChecksumError, match="failed verification"):
            reopened.append("f", b"more")

    def test_legacy_file_reads_unverified_then_adopted(self):
        inner = simulated_backend()
        inner.create("old")
        inner.append("old", b"legacy payload")
        backend = ChecksummedBackend(inner, registry=MetricsRegistry())
        assert not backend.tracked("old")
        assert backend.read("old", 0, 14) == b"legacy payload"
        backend.append("old", b"!")  # first write adopts
        assert backend.tracked("old")
        assert inner.exists("old.crc")
        assert backend.read("old", 0, 15) == b"legacy payload!"

    def test_reload_from_sidecar(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"payload" * 1000)
        reopened = ChecksummedBackend(inner, registry=MetricsRegistry())
        assert reopened.tracked("f")
        assert reopened.read("f", 0, 7000) == b"payload" * 1000
        assert reopened.verify_file("f") == []

    def test_verify_file_reports_problems(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"z" * 9000)
        assert backend.verify_file("f") == []
        inner.write("f", 4200, b"\x00\x01")
        problems = backend.verify_file("f")
        assert any("frame 1" in p for p in problems)
        inner.truncate("f", 8000)
        assert any("on disk" in p for p in backend.verify_file("f"))

    def test_rename_carries_checksums(self):
        inner, backend = self._fresh()
        backend.create("a")
        backend.append("a", b"data")
        backend.rename("a", "b")
        assert backend.tracked("b") and not backend.tracked("a")
        assert inner.exists("b.crc") and not inner.exists("a.crc")
        assert backend.read("b", 0, 4) == b"data"

    def test_delete_removes_sidecar(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"data")
        backend.delete("f")
        assert not inner.exists("f") and not inner.exists("f.crc")

    def test_truncate_reblesses_tail(self):
        inner, backend = self._fresh()
        backend.create("f")
        backend.append("f", b"q" * 6000)
        backend.truncate("f", 4500)
        assert backend.verify_file("f") == []
        assert backend.read("f", 0, 4500) == b"q" * 4500

    def test_failure_counter(self):
        registry = MetricsRegistry()
        inner = simulated_backend()
        backend = ChecksummedBackend(inner, registry=registry)
        backend.create("f")
        backend.append("f", b"x" * 10)
        inner.write("f", 0, b"\x00")
        with pytest.raises(ChecksumError):
            backend.read("f", 0, 10)
        assert registry.counter("repro_checksum_failures_total").value == 1


# ------------------------------------------------------------------- retry


class TestRetry:
    def test_policy_validation(self):
        with pytest.raises(StorageError):
            RetryPolicy(attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(StorageError):
            RetryPolicy(base_delay_s=-1.0)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.01, max_delay_s=0.04)
        delays = [policy.delay_for(a, "f", 0) for a in (1, 2, 3, 4)]
        assert delays == [policy.delay_for(a, "f", 0) for a in (1, 2, 3, 4)]
        assert all(0 <= d <= 0.04 * 1.25 for d in delays)

    def test_transient_read_error_recovered(self):
        inner = simulated_backend()
        inner.create("f.v1")
        inner.append("f.v1", b"abcd")
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(kind="read_error", rate=1.0, transient=True, attempts=2),
            ),
        )
        faults = FaultInjectingBackend(inner, plan)
        registry = MetricsRegistry()
        backend = ResilientBackend(
            faults, RetryPolicy(attempts=3), registry=registry
        )
        plan.arm()
        assert backend.read("f.v1", 0, 4) == b"abcd"
        assert backend.retries == 2
        assert registry.counter("repro_storage_retries_total").value == 2

    def test_transient_bit_flip_recovered_through_checksums(self):
        """The canonical save: flip → ChecksumError → retry reads clean."""
        plan = FaultPlan(
            seed=5,
            rules=(
                FaultRule(kind="bit_flip", rate=1.0, transient=True, attempts=1),
            ),
        )
        registry = MetricsRegistry()
        backend = resilient_stack(
            simulated_backend(), plan=plan, registry=registry
        )
        backend.create("f")
        backend.append("f", b"precious" * 8)
        plan.arm()
        assert backend.read("f", 0, 64) == b"precious" * 8
        plan.disarm()
        assert backend.retries >= 1
        assert registry.counter("repro_checksum_failures_total").value >= 1

    def test_persistent_failure_exhausts_budget(self):
        inner = simulated_backend()
        inner.create("f.v1")
        inner.append("f.v1", b"abcd")
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="read_error", rate=1.0, transient=False),)
        )
        faults = FaultInjectingBackend(inner, plan)
        backend = ResilientBackend(faults, RetryPolicy(attempts=3))
        plan.arm()
        with pytest.raises(StorageError):
            backend.read("f.v1", 0, 4)
        # Persistent StorageError is NOT retryable: no retries burned.
        assert backend.retries == 0

    def test_stack_composition_order(self):
        plan = FaultPlan(seed=2)
        stack = resilient_stack(simulated_backend(), plan=plan)
        assert isinstance(stack, ResilientBackend)
        assert isinstance(stack.inner, ChecksummedBackend)
        assert isinstance(stack.inner.inner, FaultInjectingBackend)
        bare = resilient_stack(simulated_backend(), checksums=False)
        assert not isinstance(bare.inner, (ChecksummedBackend, FaultInjectingBackend))


# ------------------------------------------------- full-stack index + fsck


class TestChecksummedIndex:
    @pytest.fixture
    def stack(self):
        plan = FaultPlan(seed=21)
        backend = resilient_stack(
            simulated_backend(), plan=plan, registry=MetricsRegistry()
        )
        table = SparseWideTable(backend)
        DatasetGenerator(
            DatasetConfig(
                num_tuples=200, num_attributes=30, mean_attrs_per_tuple=5.0, seed=17
            )
        ).populate(table)
        index = IVAFile.build(table)
        return plan, backend, table, index

    def test_answers_identical_to_unwrapped(self, stack):
        _, backend, table, index = stack
        plain_disk = simulated_backend()
        plain_table = SparseWideTable(plain_disk)
        DatasetGenerator(
            DatasetConfig(
                num_tuples=200, num_attributes=30, mean_attrs_per_tuple=5.0, seed=17
            )
        ).populate(plain_table)
        plain_index = IVAFile.build(plain_table)
        query = WorkloadGenerator(table, seed=2).sample_query(3)
        wrapped = IVAEngine(table, index).search(query, k=10)
        plain = IVAEngine(plain_table, plain_index).search(query, k=10)
        assert _answers(wrapped) == _answers(plain)

    def test_fsck_clean_and_checksum_findings(self, stack):
        plan, backend, table, index = stack
        assert check_all(table, index) == []
        # Reach under the stack and corrupt a vector list directly.
        inner = backend.inner.inner.inner  # retry → checksum → faults → disk
        victim = index.vector_file(index.entries()[0].attr.attr_id)
        inner.write(victim, 0, b"\xde\xad")
        findings = check_checksums(backend)
        assert any(f.kind == "checksum" and victim in f.location for f in findings)

    def test_persistent_flip_surfaces_never_silent(self, stack):
        """With retries exhausted, the query errors — it does not return
        a wrong answer built from a corrupt signature."""
        plan, backend, table, index = stack
        query = WorkloadGenerator(table, seed=2).sample_query(3)
        baseline = _answers(IVAEngine(table, index).search(query, k=10))
        plan.rules = (
            FaultRule(kind="bit_flip", rate=1.0, files=(".v",), transient=False),
        )
        plan.arm()
        try:
            with pytest.raises((ChecksumError, StorageError)):
                IVAEngine(table, index).search(query, k=10)
        finally:
            plan.disarm()
        assert _answers(IVAEngine(table, index).search(query, k=10)) == baseline


# ------------------------------------------------------------- degradation


class TestDegradedExecution:
    @pytest.fixture(scope="class")
    def indexed(self, small_dataset):
        index = IVAFile.build(small_dataset, IVAConfig(name="degrade"))
        return small_dataset, index

    @pytest.fixture(scope="class")
    def query(self, small_dataset):
        return WorkloadGenerator(small_dataset, seed=41).sample_query(3)

    @staticmethod
    def _failing_blocks(monkeypatch, after: int):
        """Make the v3 filter raise a storage error after *after* blocks.

        Blocks shrink to 64 tuples so the small table spans several and the
        error lands mid-scan.
        """
        monkeypatch.setattr(engine_module, "BLOCK_TUPLES", 64)
        original = QueryKernel.evaluate_segments
        blocks = itertools.count()

        def failing(self, *args, **kwargs):
            if next(blocks) == after:
                raise StorageError("media failure mid-scan")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(QueryKernel, "evaluate_segments", failing)

    def test_v3_engine_degrades_mid_stream(self, indexed, query, monkeypatch):
        """A storage error in the v3 scan reports a partial, explicitly
        degraded answer whose funnel still reconciles."""
        table, index = indexed
        registry = MetricsRegistry()
        self._failing_blocks(monkeypatch, after=1)
        engine = IVAEngine(
            table, index, registry=registry, fail_mode="degrade", profile=True
        )
        report = engine.search(query, k=10)
        assert report.degraded is True
        assert report.deadline_hit is False
        [(lo, hi)] = report.lost_tid_ranges
        assert lo > 0 and hi == -1  # the unscanned tail, through the end
        assert report.results  # a partial answer, not an empty one
        # The survivors of the scanned blocks were still refined,
        # best-first: the exact top-k over the scanned prefix.
        assert [(r.tid, r.distance) for r in report.results] == brute_force_topk(
            table, query, 10, engine.distance, last_tid=lo - 1
        )
        profile = report.profile
        assert profile.tuples_scanned == report.tuples_scanned
        assert profile.tuples_scanned == (
            profile.exact_shortcuts + profile.bound_pruned + profile.candidates
        )
        assert profile.candidates == profile.refined + profile.late_pruned
        assert profile.refined == report.table_accesses
        counter = registry.counter(
            "repro_degraded_queries_total", labels={"engine": "iVA"}
        )
        assert counter.value == 1

    def test_raise_mode_still_raises(self, indexed, query, monkeypatch):
        table, index = indexed
        self._failing_blocks(monkeypatch, after=1)
        engine = IVAEngine(table, index, fail_mode="raise")
        with pytest.raises(StorageError):
            engine.search(query, k=10)

    def test_invalid_fail_mode_rejected(self, indexed):
        from repro.errors import ReproError

        table, index = indexed
        with pytest.raises(ReproError, match="fail_mode"):
            IVAEngine(table, index, fail_mode="panic")

    def test_sequential_engine_degrades_mid_stream(
        self, indexed, query, monkeypatch
    ):
        """A storage error in the single-threaded path reports a partial,
        explicitly degraded answer in degrade mode."""
        table, index = indexed
        # ``_filter`` feeds the scalar walk.
        engine = IVAEngine(table, index, kernel="scalar", fail_mode="degrade")
        original = type(engine)._filter
        state = {"count": 0}

        def flaky(self, *args, **kwargs):
            for item in original(self, *args, **kwargs):
                state["count"] += 1
                if state["count"] == 50:
                    raise StorageError("media failure mid-scan")
                yield item

        monkeypatch.setattr(type(engine), "_filter", flaky)
        report = engine.search(query, k=10)
        assert report.degraded is True
        [(lo, _)] = report.lost_tid_ranges  # the unscanned remainder
        assert [(r.tid, r.distance) for r in report.results] == brute_force_topk(
            table, query, 10, engine.distance, last_tid=lo - 1
        )
        strict = IVAEngine(table, index, kernel="scalar", fail_mode="raise")
        monkeypatch.setattr(type(strict), "_filter", flaky)
        state["count"] = 0
        with pytest.raises(StorageError):
            strict.search(query, k=10)


# -------------------------------------------------------------- fault sweep


class TestFaultSweep:
    def test_small_sweep_never_silently_wrong(self):
        from repro.bench.fault_sweep import fault_sweep

        runs = fault_sweep(
            rates=(0.0, 0.1),
            seed=23,
            k=5,
            queries_per_combo=3,
            codecs=("raw",),
            kernels=("scalar",),
            dataset=DatasetConfig(
                num_tuples=150, num_attributes=25, mean_attrs_per_tuple=5.0, seed=9
            ),
        )
        assert len(runs) == 2
        by_rate = {run.rate: run for run in runs}
        clean = by_rate[0.0]
        assert clean.matched == clean.queries
        assert clean.fsck_clean is True
        assert clean.faults_injected == 0
        faulty = by_rate[0.1]
        assert faulty.silently_wrong == 0
        assert faulty.ok
        assert (
            faulty.matched + faulty.degraded + faulty.errored == faulty.queries
        )
