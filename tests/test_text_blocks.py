"""Raw text vector lists as columnar blocks.

A raw text list is a run of blocks, each holding the paper's element
fields grouped by column (see :func:`repro.core.scan.parse_text_blocks`).
These tests pin:

* a **round trip** (hypothesis): build, append one-element blocks, then
  read every tuple back through ``move_to`` and through ``decode_segment``
  — both must return the entries, for Types I–III, across block
  boundaries, ndf gaps, multi-string values, wide signatures (α = 1.0),
  skip-table jumps and byte-run refills of any size;
* **byte cuts**: a list cut at any byte fails with the same exception
  class on both paths (or ends early on both);
* **corrupt blocks** are refused by the decoders and by fsck;
* an **old index** (interleaved raw text elements, layout version 0) is
  refused at attach with a message to rebuild it.
"""

from __future__ import annotations

import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IVAConfig, IVAFile, SimulatedDisk, SparseWideTable
from repro.codec import codec_for_wire, get_codec
from repro.core import scan, vector_lists
from repro.core.iva_file import _ATTR_ELEMENT
from repro.core.signature import SignatureScheme
from repro.core.vector_lists import ListType, build_text_list, text_list_sizes
from repro.errors import IndexError_, StorageError
from repro.storage.pager import BufferedReader
from repro.storage.snapshot import load_disk, save_disk

RAW = get_codec("raw")
TEXT_LAYOUTS = (ListType.TYPE_I, ListType.TYPE_II, ListType.TYPE_III)

#: Short words plus long runs: at α = 1.0 a string past ~7 characters has
#: a signature wider than one eight-byte word.
WORD = st.text(alphabet=string.ascii_lowercase[:6] + " ", min_size=1, max_size=40)
VALUE = st.one_of(st.none(), st.lists(WORD, min_size=1, max_size=3).map(tuple))


def _reader(payload: bytes) -> BufferedReader:
    disk = SimulatedDisk()
    disk.create("list")
    disk.append("list", payload)
    return BufferedReader(disk, "list", 0)


def _list(list_type, scheme, values, appended, per_block):
    """``(payload, skip table, tids, expected)`` for *values* then *appended*.

    Tuple *i* has tid ``2 * i + 1``; blocks hold *per_block* elements.
    ``expected[i]`` is tuple *i*'s signatures as ``(length, bits)`` pairs,
    or None where it is ndf.
    """
    tids = [2 * i + 1 for i in range(len(values) + len(appended))]
    built = tids[: len(values)]
    entries = [(tid, v) for tid, v in zip(built, values) if v is not None]
    with mock.patch.object(vector_lists, "SKIP_SEGMENT_ELEMENTS", per_block), \
            mock.patch.object(vector_lists, "BLOCK_TUPLES", per_block):
        payload = build_text_list(list_type, scheme, entries, built)
        skip = RAW.skip_table(list_type, True, scheme, entries, built)
        sizes = text_list_sizes(
            sum(scheme.vector_byte_size(s) for _, v in entries for s in v),
            len(entries),
            sum(len(v) for _, v in entries),
            len(built),
        )
    assert len(payload) == getattr(sizes, list_type.name.lower())
    key = -1
    for position, (tid, value) in enumerate(zip(tids[len(values):], appended)):
        tail, key = RAW.append_text(
            list_type, scheme, tid, value, prev_key=key, position=len(values) + position
        )
        payload += tail
    expected = [
        None if v is None else [(s.length, s.bits) for s in map(scheme.encode, v)]
        for v in list(values) + list(appended)
    ]
    return payload, skip, np.array(tids, dtype=np.int64), expected


def _pairs(payload):
    return None if payload is None else [(s.length, s.bits) for s in payload]


def _both_paths(list_type, scheme, payload, skip, tids, block):
    """``(move_to column, decode_segment column)``, or the exception types."""
    outcomes = []
    for columnar in (False, True):
        try:
            scanner = RAW.text_scanner(list_type, _reader(payload), scheme, skip)
            if columnar:
                column = []
                for at in range(0, len(tids), block):
                    column.extend(scanner.decode_segment(tids[at : at + block]).column())
            else:
                column = [_pairs(scanner.move_to(int(tid))) for tid in tids]
            outcomes.append(column)
        except (StorageError, IndexError_) as exc:
            outcomes.append(type(exc))
    return outcomes


class TestRoundTrip:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        values=st.lists(VALUE, min_size=0, max_size=30),
        appended=st.lists(VALUE, max_size=6),
        alpha=st.sampled_from([0.2, 1.0]),
        per_block=st.sampled_from([1, 2, 3, 7, 256]),
        chunk=st.sampled_from([1, 5, 13, None]),
        block=st.integers(1, 9),
        stride=st.integers(2, 5),
    )
    def test_build_append_read_back(
        self, values, appended, alpha, per_block, chunk, block, stride
    ):
        scheme = SignatureScheme(alpha, 2)
        with mock.patch.object(scan._ByteRun, "_CHUNK", chunk or scan._ByteRun._CHUNK):
            for list_type in TEXT_LAYOUTS:
                payload, skip, tids, expected = _list(
                    list_type, scheme, values, appended, per_block
                )
                scalar, columnar = _both_paths(
                    list_type, scheme, payload, skip, tids, block
                )
                assert scalar == expected, list_type
                assert columnar == expected, list_type
                if list_type is ListType.TYPE_III:
                    continue
                # Tid blocks with gaps: the decoder jumps whole segments.
                scanner = RAW.text_scanner(list_type, _reader(payload), scheme, skip)
                for at in range(0, len(tids), block * stride):
                    chunk_tids = tids[at : at + block]
                    got = scanner.decode_segment(chunk_tids).column()
                    assert got == expected[at : at + block], list_type

    def test_skip_table_jumps_land_on_block_heads(self):
        """A tail block decode jumps the reader past whole unread blocks."""
        scheme = SignatureScheme(0.2, 2)
        values = [(f"{i % 7} abc",) if i % 2 else None for i in range(400)]
        for list_type in (ListType.TYPE_I, ListType.TYPE_II):
            payload, skip, tids, expected = _list(list_type, scheme, values, [], 8)
            assert skip is not None and len(skip.offsets) > 10
            with mock.patch.object(scan._ByteRun, "_CHUNK", 13):
                scanner = RAW.text_scanner(list_type, _reader(payload), scheme, skip)
                skips = []
                original = scanner._reader.skip
                scanner._reader.skip = lambda n: (skips.append(n), original(n))[1]
                got = scanner.decode_segment(tids[-3:]).column()
            assert got == expected[-3:]
            assert skips and sum(skips) > len(payload) // 2
            # With the whole list buffered, a jump moves the cursor onto
            # the block head that holds the target tid.
            scanner = RAW.text_scanner(list_type, _reader(payload), scheme, skip)
            for head in (3, 6, 20):
                index = 16 * head + 1  # the first defined tuple of block *head*
                got = scanner.decode_segment(tids[index : index + 1]).column()
                assert got == expected[index : index + 1]

    def test_appended_tail_parses_in_one_pass(self):
        """One-element blocks after inserts are cracked together, not one by one."""
        scheme = SignatureScheme(0.2, 2)
        appended = [(f"w{i}",) for i in range(50)]
        for list_type in TEXT_LAYOUTS:
            payload, skip, tids, expected = _list(list_type, scheme, [], appended, 4)
            parses = []
            real = scan.parse_text_blocks

            def counting(*args, **kwargs):
                blocks = real(*args, **kwargs)
                parses.append(blocks.units)
                return blocks

            with mock.patch.object(scan, "parse_text_blocks", counting):
                scanner = RAW.text_scanner(list_type, _reader(payload), scheme, skip)
                assert scanner.decode_segment(tids).column() == expected
            assert parses == [50]


class TestCutsAndCorruption:
    @pytest.mark.parametrize("chunk", [5, None])
    @pytest.mark.parametrize("list_type", TEXT_LAYOUTS)
    def test_every_byte_cut_fails_alike(self, list_type, chunk):
        """Both paths fail with one exception class at every cut, or agree."""
        scheme = SignatureScheme(0.2, 2)
        values = [
            None if i % 4 == 3 else tuple(f"{w}{i}" for w in ("ab", "cd")[: 1 + i % 2])
            for i in range(14)
        ]
        appended = [("x y",), None, ("zz", "q")]
        payload, skip, tids, expected = _list(list_type, scheme, values, appended, 4)
        seen = set()
        with mock.patch.object(scan._ByteRun, "_CHUNK", chunk or scan._ByteRun._CHUNK):
            for end in range(len(payload) + 1):
                scalar, columnar = _both_paths(
                    list_type, scheme, payload[:end], skip, tids, 3
                )
                assert columnar == scalar, end
                seen.add(scalar if isinstance(scalar, type) else list)
        assert StorageError in seen
        assert list in seen
        if list_type is ListType.TYPE_III:
            assert IndexError_ in seen

    @pytest.mark.parametrize("list_type", TEXT_LAYOUTS)
    def test_inconsistent_block_is_refused(self, list_type):
        """A header whose element count disagrees with its body is an error
        on both paths and an fsck finding — never a garbage decode."""
        scheme = SignatureScheme(0.2, 2)
        values = [("abc", "de"), ("fgh",), None, ("ijk lmn",)] * 3
        payload, skip, tids, _ = _list(list_type, scheme, values, [], 256)
        count, size = scan.TEXT_BLOCK_HEADER.unpack_from(payload)
        for bad_count in (count + 1, count - 1, 60000):
            corrupt = scan.TEXT_BLOCK_HEADER.pack(bad_count, size) + payload[6:]
            scalar, columnar = _both_paths(list_type, scheme, corrupt, skip, tids, 5)
            assert scalar is IndexError_ and columnar is IndexError_
            problems = RAW.check_list(list_type, True, scheme, corrupt, len(tids))
            assert any("corrupt" in problem for problem in problems)
        assert RAW.check_list(list_type, True, scheme, payload, len(tids)) == []


class TestOldIndexRefused:
    def test_layout_version_is_in_the_wire_byte(self):
        assert codec_for_wire(RAW.wire_byte) is RAW
        compressed = get_codec("compressed")
        assert compressed.wire_byte == compressed.code  # unchanged layouts
        assert codec_for_wire(compressed.wire_byte) is compressed
        with pytest.raises(IndexError_, match="rebuild"):
            codec_for_wire(RAW.code)  # version 0: interleaved text elements

    def test_interleaved_raw_index_fails_attach(self, tmp_path):
        table = SparseWideTable(SimulatedDisk())
        for i in range(30):
            table.insert({"T": f"v{i % 4}", "N": float(i)})
        index = IVAFile.build(table, IVAConfig(name="old"))
        disk = index.disk
        # Write the attribute list as the previous layout version did: the
        # raw codec's wire id with no version bits.
        codec_at = 2  # list_type, kind, then the codec byte
        for attr_id in range(len(index.entries())):
            disk.write(
                index.attrs_file, attr_id * _ATTR_ELEMENT.size + codec_at, bytes([0])
            )
        path = tmp_path / "old.ivadb"
        save_disk(disk, path)
        reopened = SparseWideTable.attach(load_disk(path))
        with pytest.raises(IndexError_, match="rebuild the index"):
            IVAFile.attach(reopened, IVAConfig(name="old"))
        # Rebuilding over the same table writes the current layout.
        rebuilt = IVAFile.build(reopened, IVAConfig(name="old"))
        assert IVAFile.attach(reopened, IVAConfig(name="old")).entries()
        assert all(e.codec == "raw" for e in rebuilt.entries())
