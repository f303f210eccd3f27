"""Tests for the real-filesystem disk backend."""

import os
from pathlib import Path

import pytest

from repro import IVAConfig, IVAEngine, IVAFile, SparseWideTable
from repro.errors import StorageError
from repro.storage.hostdisk import HostDisk, _host_name


@pytest.fixture
def disk(tmp_path):
    return HostDisk(tmp_path / "db")


class _HalfWriter:
    """File-object proxy whose write() accepts only half the payload."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, payload):
        self._fh.write(payload[: len(payload) // 2])
        return len(payload) // 2

    def __getattr__(self, item):
        return getattr(self._fh, item)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *args):
        return self._fh.__exit__(*args)


def _install_half_writing_open(monkeypatch):
    """Make writable binary open() calls return half-writing handles."""
    import builtins

    real_open = builtins.open

    def flaky_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if isinstance(mode, str) and "b" in mode and any(c in mode for c in "+aw"):
            return _HalfWriter(fh)
        return fh

    monkeypatch.setattr(builtins, "open", flaky_open)


class TestHostDiskFiles:
    def test_roundtrip(self, disk):
        disk.create("f")
        disk.write("f", 0, b"hello world")
        assert disk.read("f", 6, 5) == b"world"
        assert disk.size("f") == 11

    def test_append(self, disk):
        disk.create("f")
        assert disk.append("f", b"abc") == 0
        assert disk.append("f", b"de") == 3
        assert disk.read("f", 0, 5) == b"abcde"

    def test_create_conflicts(self, disk):
        disk.create("f")
        with pytest.raises(StorageError):
            disk.create("f")
        disk.create("f", overwrite=True)
        assert disk.size("f") == 0

    def test_a_metered_context_reenters_one_meter(self, disk):
        """The backend protocol's re-entry contract: every ``with`` on one
        ``metered()`` object yields the same meter (zero here: a host
        directory models no I/O time)."""
        disk.create("f")
        disk.write("f", 0, b"abcd")
        metered = disk.metered()
        with metered as first:
            disk.read("f", 0, 4)
        with metered as second:
            disk.read("f", 0, 4)
        assert first is second
        assert second.io_ms == 0.0

    def test_nested_accounting_scopes_restore_outer(self, disk):
        """Each scope charges its own stats; closing it restores the outer one."""
        disk.create("f")
        disk.append("f", b"abcdef")
        with disk.accounting_scope() as outer:
            disk.read("f", 0, 1)
            with disk.accounting_scope() as inner:
                disk.read("f", 0, 2)
            disk.read("f", 0, 3)
        disk.read("f", 0, 4)
        assert inner.bytes_read == 2
        assert outer.bytes_read == 1 + 3
        assert disk.stats.bytes_read == 4

    def test_read_past_eof(self, disk):
        disk.create("f")
        disk.append("f", b"ab")
        with pytest.raises(StorageError):
            disk.read("f", 0, 3)

    def test_write_hole_rejected(self, disk):
        disk.create("f")
        with pytest.raises(StorageError):
            disk.write("f", 5, b"x")

    def test_truncate(self, disk):
        disk.create("f")
        disk.append("f", b"abcdef")
        disk.truncate("f", 2)
        assert disk.size("f") == 2
        with pytest.raises(StorageError):
            disk.truncate("f", 10)

    def test_rename_replaces(self, disk):
        disk.create("a")
        disk.append("a", b"A")
        disk.create("b")
        disk.append("b", b"BB")
        disk.rename("a", "b")
        assert not disk.exists("a")
        assert disk.read("b", 0, 1) == b"A"

    def test_failed_rename_keeps_the_old_target(self, disk, monkeypatch):
        disk.create("a")
        disk.append("a", b"A")
        disk.create("b")
        disk.append("b", b"BB")

        def boom(*args, **kwargs):
            raise OSError("injected rename failure")

        monkeypatch.setattr(os, "replace", boom)
        monkeypatch.setattr(os, "rename", boom)
        monkeypatch.setattr(Path, "rename", boom)
        monkeypatch.setattr(Path, "replace", boom)
        with pytest.raises(OSError):
            disk.rename("a", "b")
        monkeypatch.undo()
        assert disk.read("b", 0, 2) == b"BB"
        assert disk.read("a", 0, 1) == b"A"

    def test_delete(self, disk):
        disk.create("f")
        disk.delete("f")
        assert not disk.exists("f")
        with pytest.raises(StorageError):
            disk.read("f", 0, 0)

    def test_odd_names_escaped(self, disk):
        disk.create("table/with:odd name.dat")
        disk.append("table/with:odd name.dat", b"x")
        assert disk.read("table/with:odd name.dat", 0, 1) == b"x"
        assert "/" not in _host_name("table/with:odd name.dat")

    def test_reopen_discovers_files(self, tmp_path):
        first = HostDisk(tmp_path / "db")
        first.create("weird/name")
        first.append("weird/name", b"persist")
        second = HostDisk(tmp_path / "db")
        assert second.exists("weird/name")
        assert second.read("weird/name", 0, 7) == b"persist"

    def test_short_read_names_file_offset_and_counts(self, disk):
        """A read crossing EOF reports expected vs. actual byte counts."""
        disk.create("f")
        disk.append("f", b"abcdef")
        with pytest.raises(StorageError, match=r"short read on 'f'.*offset=4.*expected=8.*actual=2"):
            disk.read("f", 4, 8)

    def test_truncated_file_behind_backends_back(self, tmp_path):
        """Out-of-band truncation (torn write, disk-full) surfaces as a
        short-read StorageError, never as silently fewer bytes."""
        disk = HostDisk(tmp_path / "db")
        disk.create("t")
        disk.append("t", b"x" * 64)
        host_path = tmp_path / "db" / "t"
        with open(host_path, "r+b") as fh:
            fh.truncate(10)  # the backend is not told
        assert disk.read("t", 0, 10) == b"x" * 10
        with pytest.raises(StorageError, match="short read"):
            disk.read("t", 0, 64)
        with pytest.raises(StorageError, match="short read"):
            disk.read("t", 10, 1)

    def test_partial_write_detected(self, disk, monkeypatch):
        """A device accepting fewer bytes than offered is an explicit error."""
        disk.create("f")
        disk.append("f", b"abcd")
        _install_half_writing_open(monkeypatch)
        with pytest.raises(StorageError, match=r"partial write on 'f'.*expected=4.*actual=2"):
            disk.write("f", 0, b"wxyz")

    def test_partial_append_detected(self, disk, monkeypatch):
        disk.create("f")
        _install_half_writing_open(monkeypatch)
        with pytest.raises(StorageError, match=r"partial write on 'f'.*offset=0.*expected=4.*actual=2"):
            disk.append("f", b"abcd")

    def test_stats_counters(self, disk):
        disk.create("f")
        disk.append("f", b"abc")
        disk.read("f", 0, 2)
        assert disk.stats.bytes_written == 3
        assert disk.stats.bytes_read == 2
        disk.reset_stats()
        assert disk.stats.bytes_read == 0


class TestFullStackOnHostDisk:
    def test_table_and_index_work(self, tmp_path):
        disk = HostDisk(tmp_path / "db")
        table = SparseWideTable(disk)
        table.insert({"Type": "Digital Camera", "Company": "Canon", "Price": 230})
        table.insert({"Type": "Digital Camera", "Company": "Cannon", "Price": 230})
        table.insert({"Type": "Music Album", "Artist": "Michael Jackson"})
        index = IVAFile.build(table, IVAConfig(alpha=0.3))
        engine = IVAEngine(table, index)
        report = engine.search({"Company": "Canon"}, k=2)
        assert [r.tid for r in report.results] == [0, 1]

    def test_reopen_across_processes(self, tmp_path):
        disk = HostDisk(tmp_path / "db")
        table = SparseWideTable(disk)
        table.insert({"Name": "alpha", "Rank": 1.0})
        table.insert({"Name": "beta", "Rank": 2.0})
        IVAFile.build(table)
        # "Restart": fresh objects over the same directory.
        disk2 = HostDisk(tmp_path / "db")
        table2 = SparseWideTable.attach(disk2)
        index2 = IVAFile.attach(table2)
        engine = IVAEngine(table2, index2)
        report = engine.search({"Name": "beta"}, k=1)
        assert report.results[0].tid == 1
        assert report.results[0].distance == 0.0
