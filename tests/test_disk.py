"""Unit tests for the simulated disk and its cost model."""

import pytest

from repro.errors import StorageError
from repro.storage.disk import DiskParameters, SimulatedDisk


@pytest.fixture
def disk():
    return SimulatedDisk()


class TestFiles:
    def test_create_read_write_roundtrip(self, disk):
        disk.create("f")
        disk.write("f", 0, b"hello world")
        assert disk.read("f", 0, 5) == b"hello"
        assert disk.read("f", 6, 5) == b"world"
        assert disk.size("f") == 11

    def test_create_existing_fails_without_overwrite(self, disk):
        disk.create("f")
        with pytest.raises(StorageError):
            disk.create("f")
        disk.create("f", overwrite=True)
        assert disk.size("f") == 0

    def test_append_returns_offset(self, disk):
        disk.create("f")
        assert disk.append("f", b"abc") == 0
        assert disk.append("f", b"de") == 3
        assert disk.read("f", 0, 5) == b"abcde"

    def test_read_past_eof_fails(self, disk):
        disk.create("f")
        disk.write("f", 0, b"ab")
        with pytest.raises(StorageError):
            disk.read("f", 0, 3)

    def test_write_hole_fails(self, disk):
        disk.create("f")
        with pytest.raises(StorageError):
            disk.write("f", 10, b"x")

    def test_missing_file_fails(self, disk):
        with pytest.raises(StorageError):
            disk.read("ghost", 0, 1)
        with pytest.raises(StorageError):
            disk.delete("ghost")

    def test_delete(self, disk):
        disk.create("f")
        disk.delete("f")
        assert not disk.exists("f")

    def test_truncate(self, disk):
        disk.create("f")
        disk.write("f", 0, b"abcdef")
        disk.truncate("f", 3)
        assert disk.size("f") == 3
        with pytest.raises(StorageError):
            disk.truncate("f", 10)

    def test_rename_replaces_target(self, disk):
        disk.create("a")
        disk.write("a", 0, b"AAA")
        disk.create("b")
        disk.write("b", 0, b"BBBB")
        disk.rename("a", "b")
        assert not disk.exists("a")
        assert disk.read("b", 0, 3) == b"AAA"
        assert disk.size("b") == 3

    def test_total_bytes_and_listing(self, disk):
        disk.create("a")
        disk.create("b")
        disk.write("a", 0, b"12345")
        disk.write("b", 0, b"12")
        assert disk.total_bytes() == 7
        assert disk.list_files() == ("a", "b")


class TestCostModel:
    def test_sequential_read_charges_one_seek(self):
        params = DiskParameters(page_size=4096, cache_bytes=0)
        disk = SimulatedDisk(params)
        disk.create("f")
        disk.write("f", 0, b"x" * (4096 * 8))
        disk.reset_stats()
        disk.read("f", 0, 4096 * 8)
        assert disk.stats.seeks == 1
        assert disk.stats.pages_read == 8

    def test_random_reads_charge_seeks(self):
        params = DiskParameters(page_size=4096, cache_bytes=0)
        disk = SimulatedDisk(params)
        disk.create("f")
        disk.write("f", 0, b"x" * (4096 * 10))
        disk.create("g")
        disk.write("g", 0, b"y")
        disk.reset_stats()
        disk.read("f", 0, 10)        # cross-file: seek
        disk.read("f", 4096 * 5, 10)  # short forward skip: pass-over, no seek
        disk.read("f", 0, 10)        # backward: seek
        assert disk.stats.seeks == 2

    def test_forward_skip_costs_pass_over_time(self):
        params = DiskParameters(page_size=4096, seek_ms=8.0, cache_bytes=0)
        disk = SimulatedDisk(params)
        disk.create("f")
        disk.write("f", 0, b"x" * (4096 * 400))
        disk.reset_stats()
        disk.read("f", 0, 10)
        before = disk.stats.io_time_ms
        disk.read("f", 4096 * 4, 10)  # skip 3 pages forward
        skip_cost = disk.stats.io_time_ms - before
        expected = 3 * params.transfer_ms_per_page + params.transfer_ms_per_page
        assert skip_cost == pytest.approx(expected)

    def test_long_forward_skip_capped_at_seek(self):
        params = DiskParameters(page_size=4096, seek_ms=8.0, cache_bytes=0)
        disk = SimulatedDisk(params)
        disk.create("f")
        disk.write("f", 0, b"x" * (4096 * 400))
        disk.reset_stats()
        disk.read("f", 0, 10)
        before = disk.stats.io_time_ms
        disk.read("f", 4096 * 399, 10)  # skipping 398 pages would exceed a seek
        skip_cost = disk.stats.io_time_ms - before
        assert skip_cost == pytest.approx(
            params.seek_ms + params.transfer_ms_per_page
        )

    def test_backward_jump_is_a_seek(self):
        params = DiskParameters(page_size=4096, cache_bytes=0)
        disk = SimulatedDisk(params)
        disk.create("f")
        disk.write("f", 0, b"x" * (4096 * 4))
        disk.reset_stats()
        disk.read("f", 4096 * 3, 10)  # head already there after the write
        disk.read("f", 0, 10)  # backward jump: full seek
        assert disk.stats.seeks == 1

    def test_rereading_same_page_is_not_a_seek(self):
        params = DiskParameters(page_size=4096, cache_bytes=0)
        disk = SimulatedDisk(params)
        disk.create("f")
        disk.write("f", 0, b"x" * 4096)
        disk.create("g")
        disk.write("g", 0, b"y" * 4096)  # move the head away from f's page
        disk.reset_stats()
        disk.read("f", 0, 10)
        disk.read("f", 20, 10)  # same page, head already there
        assert disk.stats.seeks == 1
        assert disk.stats.pages_read == 2

    def test_cache_absorbs_repeat_reads(self):
        disk = SimulatedDisk()  # default 10 MB cache
        disk.create("f")
        disk.write("f", 0, b"x" * 4096)
        disk.reset_stats()
        disk.read("f", 0, 100)
        before = disk.stats.io_time_ms
        disk.read("f", 0, 100)
        assert disk.stats.io_time_ms == before
        assert disk.stats.cache_hits >= 1

    def test_warm_file_makes_reads_free(self):
        disk = SimulatedDisk()
        disk.create("f")
        disk.write("f", 0, b"x" * (4096 * 4))
        disk.reset_stats()
        disk.warm_file("f")
        assert disk.stats.io_time_ms == 0.0
        disk.read("f", 0, 4096 * 4)
        assert disk.stats.pages_read == 0

    def test_io_time_matches_model(self):
        params = DiskParameters(
            page_size=4096, seek_ms=10.0, transfer_mb_per_s=40.0, cache_bytes=0
        )
        disk = SimulatedDisk(params)
        disk.create("f")
        disk.write("f", 0, b"x" * 4096)
        disk.create("g")
        disk.write("g", 0, b"y" * 4096)  # move the head away from f's page
        disk.reset_stats()
        disk.read("f", 0, 4096)
        expected = 10.0 + params.transfer_ms_per_page
        assert disk.stats.io_time_ms == pytest.approx(expected)

    def test_bytes_counters(self, disk):
        disk.create("f")
        disk.write("f", 0, b"abc")
        disk.read("f", 0, 2)
        assert disk.stats.bytes_written == 3
        assert disk.stats.bytes_read == 2

    def test_per_file_read_counters(self, disk):
        disk.create("f")
        disk.create("g")
        disk.write("f", 0, b"abc")
        disk.read("f", 0, 1)
        disk.read("f", 1, 1)
        assert disk.stats.per_file_reads["f"] == 2
        assert "g" not in disk.stats.per_file_reads


class TestStats:
    def test_snapshot_diff(self, disk):
        disk.create("f")
        disk.write("f", 0, b"x" * 100)
        before = disk.stats.snapshot()
        disk.read("f", 0, 50)
        delta = disk.stats - before
        assert delta.bytes_read == 50
        assert delta.read_calls == 1
        assert delta.bytes_written == 0

    def test_reset(self, disk):
        disk.create("f")
        disk.write("f", 0, b"x")
        disk.reset_stats()
        assert disk.stats.bytes_written == 0


class TestMeters:
    def _cold_file(self, disk):
        disk.create("f")
        disk.write("f", 0, b"x" * 40000)
        disk.drop_cache()

    def test_nested_meters_see_the_same_charges(self, disk):
        self._cold_file(disk)
        # Fresh stats sum the same charges from zero as the meter does.
        disk.reset_stats()
        with disk.metered() as outer:
            disk.read("f", 0, 10)
            with disk.metered() as inner:
                disk.read("f", 20000, 10)
            disk.read("f", 30000, 10)
        assert inner.pages == 1 and outer.pages == 3
        assert 0 < inner.io_ms < outer.io_ms
        assert outer.io_ms == disk.stats.io_time_ms

    def test_meter_sums_its_own_charges_after_a_large_earlier_charge(self, disk):
        """An interval meter: what was charged before it opened leaves no
        rounding in it, so it reports its own charges exactly."""
        self._cold_file(disk)
        disk.charge_latency(1e9 + 0.1)
        with disk.metered() as meter:
            disk.charge_latency(0.1)
            disk.read("f", 0, 10)
        page_ms = disk.params.seek_ms + disk.params.transfer_ms_per_page
        assert meter.pages == 1
        assert meter.io_ms == 0.1 + page_ms

    def test_a_metered_context_reenters_one_summing_meter(self, disk):
        """Entering one ``metered()`` object again resumes its meter; what
        is charged between the windows stays out of it."""
        self._cold_file(disk)
        metered = disk.metered()
        with metered as first:
            disk.charge_latency(1.5)
        disk.charge_latency(100.0)
        with metered as second:
            disk.charge_latency(2.25)
        assert first is second
        assert second.io_ms == 1.5 + 2.25

    def test_inner_meter_opened_before_any_charge_leaves_outer_open(self, disk):
        """An inner meter equal to the outer one on entry (nothing charged
        yet) must not take the outer meter off the stack on exit."""
        self._cold_file(disk)
        with disk.metered() as outer:
            with disk.metered():
                pass
            disk.read("f", 0, 10)
        assert outer.pages == 1 and outer.io_ms > 0

    def test_meters_are_per_thread(self, disk):
        import threading

        self._cold_file(disk)
        with disk.metered() as meter:
            worker = threading.Thread(target=disk.read, args=("f", 0, 10))
            worker.start()
            worker.join()
        assert meter.pages == 0 and meter.io_ms == 0
        assert disk.stats.pages_read == 1
