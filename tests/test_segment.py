"""Kernel v3 segment decode: columnar output must equal the scalar walk.

Two layers of checks:

* **property tests** (hypothesis) pin ``decode_segment()`` to the scalar
  ``move_to`` walk (the identity oracle), value for value, across both
  codec families and every vector-list layout the chooser emits —
  including ndf-gap columns, multi-string text values, and a truncated
  final block;
* **skip-table tests** cover ``SkipTable.seek_offset`` arithmetic and
  verify a tail-block decode actually jumps over whole segments (and
  still returns the right payloads), columnar and through the
  ``move_to`` adapter alike.

The wide-code (``vector_bytes > 4``) fastpath fallback rides along: one
explicit 8-byte bit-identity check plus the one-time debug log contract.
"""

from __future__ import annotations

import logging
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IVAConfig, IVAFile, SimulatedDisk, SparseWideTable
from repro.codec import CODEC_NAMES
from repro.core import fastpath, scan
from repro.core.kernel import CompiledTextTerm
from repro.core.numeric import NumericQuantizer
from repro.core.scan import (
    SKIP_SEGMENT_ELEMENTS,
    SkipTable,
    VectorListScanner,
)
from repro.core.segment import ColumnSegment, TextSegment
from repro.core.signature import SignatureScheme
from repro.errors import IndexError_, StorageError
from repro.storage.pager import BufferedReader

TEXT = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)

#: One generated row: optional sparse text / dense text / sparse numeric /
#: dense numeric cells.  Dense columns are (nearly) always defined so the
#: chooser picks positional layouts for them; sparse ones get tid-based
#: layouts, so one table exercises Types I–IV at once.
ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), TEXT, st.tuples(TEXT, TEXT)),
        TEXT,
        st.one_of(st.none(), st.floats(0.0, 1000.0, allow_nan=False, width=32)),
        st.floats(0.0, 1000.0, allow_nan=False, width=32),
    ),
    min_size=3,
    max_size=40,
)


def _build(rows):
    table = SparseWideTable(SimulatedDisk())
    for sparse_text, dense_text, sparse_num, dense_num in rows:
        cells = {"DT": dense_text, "DN": dense_num}
        if sparse_text is not None:
            cells["ST"] = sparse_text
        if sparse_num is not None:
            cells["SN"] = sparse_num
        table.insert(cells)
    return table


def _attr_ids(table):
    return [
        table.catalog.require(name).attr_id
        for name in ("ST", "DT", "SN", "DN")
        if table.catalog.get(name) is not None
    ]


def _as_column(payload):
    """A ``move_to`` payload in segment-column form (signatures as pairs)."""
    if type(payload) is list:
        return [(sig.length, sig.bits) for sig in payload]
    return payload


#: Words for the layout table; Dense holds some 60-character values, which
#: are wider than one word at α = 0.2, as nearly every value is at α = 1.0.
WORDS = ["amber", "basalt", "cobalt", "dune", "ember", "fjord", "garnet"]

#: ``_ByteRun`` chunk sizes small enough that count bytes, length bytes,
#: signature bits and tids straddle refills (``None``: the default).
CHUNKS = [1, 5, 13, None]


def _layout_table():
    """90 rows whose raw text lists are Types III (Dense), II (Multi), I (Sparse)."""
    table = SparseWideTable(SimulatedDisk())
    for i in range(90):
        w = WORDS[i % 7]
        v = WORDS[(i * 3) % 5]
        cells = {
            "Dense": f"{w} {i % 11}" if i % 4 else (f"{v} {w} " * 5 + "x", f"{w}{i}")
        }
        if i % 7 == 2:
            cells["Sparse"] = f"{v} {w} " * (1 + i % 9)
        if i % 5 == 1:
            cells["Multi"] = (f"{w}{i % 4}", f"{v} {w} " * (i % 8 + 1), v)
        table.insert(cells)
    return table


@pytest.fixture(scope="module")
def layout_table():
    return _layout_table()


@pytest.fixture
def byte_run_chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(scan._ByteRun, "_CHUNK", request.param)
    return request.param


def _list_scanner(index, attr_id, end=None):
    """A raw scanner over one text list, optionally cut to ``end`` bytes."""
    entry = index.entry(attr_id)
    reader = BufferedReader(index.disk, index.vector_file(attr_id), 0, end=end)
    return entry.codec_impl.text_scanner(entry.list_type, reader, entry.scheme)


def _walk(index, attr_id, tids, block, end=None):
    """``(move_to column, decode_segment column)``, or the exception types."""
    outcomes = []
    for columnar in (False, True):
        try:
            scanner = _list_scanner(index, attr_id, end)
            if columnar:
                column = []
                for at in range(0, len(tids), block):
                    column.extend(scanner.decode_segment(tids[at : at + block]).column())
            else:
                column = [_as_column(scanner.move_to(tid)) for tid in tids]
            outcomes.append(column)
        except (StorageError, IndexError_) as exc:
            outcomes.append(type(exc))
    return outcomes


class TestDecodeSegmentIdentity:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=ROWS, block=st.integers(1, 9))
    def test_segments_match_move_to(self, rows, block):
        """decode_segment ≡ the scalar move_to walk on every layout, both codecs.

        A non-divisor block size leaves a truncated final block, and the
        optional cells leave ndf gaps — both decode paths must agree on
        all of it, value for value (None vs. [] included).
        """
        table = _build(rows)
        for codec in CODEC_NAMES:
            index = IVAFile.build(
                table, IVAConfig(name=f"seg_{codec}", codec=codec)
            )
            attr_ids = _attr_ids(table)
            oracle_scan = index.open_scan(attr_ids)
            oracle = [
                [
                    [_as_column(payload) for payload in column]
                    for column in zip(
                        *(oracle_scan.payloads(tid) for tid in tids)
                    )
                ]
                for tids, _ in oracle_scan.blocks(block)
            ]
            seg_scan = index.open_scan(attr_ids)
            decoded = [
                seg_scan.segment_blocks(list(tids))
                for tids, _ in seg_scan.blocks(block)
            ]
            assert len(oracle) == len(decoded)
            for columns, segments in zip(oracle, decoded):
                assert len(columns) == len(segments)
                for column, segment in zip(columns, segments):
                    assert segment.column() == column

    def test_base_adapter_matches_layout_decoders(self):
        """The base move_to adapter (what a codec without its own
        decode_segment runs) yields the layout decoders' columns."""
        table = _build(
            [(("ab", "cd") if i % 3 else None, f"w{i % 4}", float(i), i / 2.0)
             for i in range(30)]
        )
        for codec in CODEC_NAMES:
            index = IVAFile.build(
                table, IVAConfig(name=f"seg_base_{codec}", codec=codec)
            )
            attr_ids = _attr_ids(table)
            adapted_scan = index.open_scan(attr_ids)
            native_scan = index.open_scan(attr_ids)
            for (tids, _), _ in zip(adapted_scan.blocks(7), native_scan.blocks(7)):
                tids = list(tids)
                adapted = [
                    VectorListScanner.decode_segment(scanner, tids)
                    for scanner in adapted_scan.scanners
                ]
                native = native_scan.segment_blocks(tids)
                for a, b in zip(adapted, native):
                    assert isinstance(a, ColumnSegment)
                    assert a.column() == b.column()

    @pytest.mark.parametrize("alpha", [0.2, 1.0])
    @pytest.mark.parametrize("byte_run_chunk", CHUNKS, indirect=True)
    def test_run_parser_across_refills(self, layout_table, alpha, byte_run_chunk):
        """Raw Types I–III parse runs that tiny refills cut anywhere.

        Every field straddles a refill somewhere at chunk sizes 1, 5 and
        13; wide signatures (α = 1.0, 60-character strings) ride along.
        Columns, defined counts and kernel bounds must equal the scalar
        walk for every block size.
        """
        table = layout_table
        index = IVAFile.build(table, IVAConfig(name=f"run_{alpha}", alpha=alpha))
        attrs = {a.name: a.attr_id for a in table.catalog}
        types = {index.entry(a).list_type.name for a in attrs.values()}
        assert types == {"TYPE_I", "TYPE_II", "TYPE_III"}
        tids = list(range(len(table)))
        term = CompiledTextTerm("amber dune", index.config.n)
        for attr_id in attrs.values():
            scheme = index.entry(attr_id).scheme
            for block in (1, 4, 9, 256):
                oracle, decoded = _walk(index, attr_id, tids, block)
                assert decoded == oracle
                scanner = _list_scanner(index, attr_id)
                for at in range(0, len(tids), block):
                    chunk = tids[at : at + block]
                    segment = scanner.decode_segment(chunk)
                    column = segment.column()
                    assert segment.defined_count(len(chunk)) == sum(
                        1 for payload in column if payload is not None
                    )
                    bounds, defined = term.bound_segment(segment, scheme, len(chunk), 7.0)
                    expected = [0.0] * len(chunk)
                    exact = [True] * len(chunk)
                    term.bound_column(column, scheme, expected, 7.0, exact)
                    assert bounds.tolist() == expected
                    assert defined.tolist() == [not flag for flag in exact]

    @pytest.mark.parametrize("byte_run_chunk", [5, None], indirect=True)
    def test_truncated_lists_fail_like_move_to(self, layout_table, byte_run_chunk):
        """A list cut at any byte fails (or ends) exactly as the scalar walk.

        A short field raises the reader's ``StorageError``; a Type III list
        that runs out of elements raises ``IndexError_``; a tid-based list
        cut at an element boundary just ends early.
        """
        table = layout_table
        index = IVAFile.build(table, IVAConfig(name="run_cut"))
        tids = list(range(len(table)))
        seen = set()
        for attr in table.catalog:
            size = index.disk.size(index.vector_file(attr.attr_id))
            for end in range(size):
                oracle, decoded = _walk(index, attr.attr_id, tids, 7, end=end)
                assert decoded == oracle, (attr.name, end)
                seen.add(oracle if isinstance(oracle, type) else list)
        assert seen == {StorageError, IndexError_, list}

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.sampled_from([0.2, 0.5, 1.0]),
        n=st.sampled_from([2, 3]),
        query=st.text(alphabet="abc", min_size=1, max_size=12),
        values=st.lists(
            st.lists(st.text(alphabet="abc ", min_size=1, max_size=60), max_size=3),
            min_size=1,
            max_size=30,
        ),
        cut=st.integers(0, 30),
    )
    def test_bound_segment_matches_bound_column(self, alpha, n, query, values, cut):
        """Array-wide text bounds ≡ the scalar mask loop, bit for bit.

        Covers wide signatures (α = 1.0, strings past 40 characters),
        multi-string tuples, and a block that slices a longer run (the
        run is bounded once and memoised, then sliced).
        """
        scheme = SignatureScheme(alpha, n)
        slots, lengths, bits = [], [], []
        for slot, strings in enumerate(values):
            for text in strings:
                signature = scheme.encode(text)
                slots.append(slot)
                lengths.append(signature.length)
                bits.append(signature.bits)
        unique = len(set(slots))
        whole = TextSegment.from_pairs(len(values), slots, lengths, bits, unique, scheme)
        cut = min(cut, len(values))
        lo = sum(1 for slot in slots if slot < cut)
        tail = TextSegment(
            len(values) - cut,
            whole.slots[lo:] - cut,
            whole.signatures,
            lo,
            len(slots),
            True,
        )
        term = CompiledTextTerm(query, n)
        for segment in (tail, whole):
            count = segment.count
            column = segment.column()
            expected = [0.0] * count
            exact = [True] * count
            term.bound_column(column, scheme, expected, 3.5, exact)
            bounds, defined = term.bound_segment(segment, scheme, count, 3.5)
            assert bounds.tolist() == expected
            assert defined.tolist() == [not flag for flag in exact]

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=ROWS)
    def test_defined_count_matches_gaps(self, rows):
        """Segment defined counts must agree with the payload column."""
        table = _build(rows)
        index = IVAFile.build(table, IVAConfig(name="seg_counts"))
        attr_ids = _attr_ids(table)
        scan = index.open_scan(attr_ids)
        for tids, _ in scan.blocks(7):
            tids = list(tids)
            for segment in scan.segment_blocks(tids):
                column = segment.column()
                defined = sum(1 for payload in column if payload is not None)
                assert segment.defined_count(len(tids)) == defined


class TestSkipTable:
    def test_seek_offset_arithmetic(self):
        skip = SkipTable(
            first_tids=(0, 100, 200),
            last_tids=(99, 199, 299),
            offsets=(0, 800, 1600),
            end_offset=2400,
        )
        # Target inside segment 1: jump to its start.
        assert skip.seek_offset(150, 0) == 800
        # Target inside segment 0: nothing ahead to skip.
        assert skip.seek_offset(50, 0) is None
        # Target past every fence: jump to the list tail.
        assert skip.seek_offset(1000, 0) == 2400
        # Cursor already at (or past) the jump target: no-op.
        assert skip.seek_offset(150, 800) is None
        assert skip.seek_offset(150, 900) is None
        # Boundary: a target equal to a segment's last tid must land ON
        # that segment, not after it.
        assert skip.seek_offset(199, 0) == 800

    @pytest.fixture
    def long_table(self):
        """Enough defined elements on a *sparse* attribute to fence >1
        segment: the chooser picks the tid-based Type I layout only when
        it is smaller than the positional one, so V is defined on every
        fourth row."""
        table = SparseWideTable(SimulatedDisk())
        rows = (SKIP_SEGMENT_ELEMENTS + 60) * 4
        for i in range(rows):
            cells = {"PAD": "x"}
            if i % 4 == 0:
                cells["V"] = float(i % 251)
            table.insert(cells)
        return table

    def test_raw_index_builds_skip_tables(self, long_table):
        index = IVAFile.build(long_table, IVAConfig(name="skip_raw", codec="raw"))
        attr_id = long_table.catalog.require("V").attr_id
        skip = index._skip_tables.get(attr_id)
        if skip is None:
            pytest.skip("chooser picked a positional layout for V")
        assert len(skip.offsets) >= 2
        assert list(skip.first_tids) == sorted(skip.first_tids)
        assert list(skip.last_tids) == sorted(skip.last_tids)

    def test_tail_block_decode_jumps(self, long_table):
        """Decoding a tail block must skip whole segments, not walk them."""
        index = IVAFile.build(long_table, IVAConfig(name="skip_jump", codec="raw"))
        attr_id = long_table.catalog.require("V").attr_id
        if index._skip_tables.get(attr_id) is None:
            pytest.skip("chooser picked a positional layout for V")
        last_tid = long_table.stats.live_tuples - 1

        scanner = index.make_scanner(attr_id)
        reader = scanner._reader
        jumps = []
        original_skip = reader.skip

        def spying_skip(n):
            jumps.append(n)
            return original_skip(n)

        reader.skip = spying_skip
        segment = scanner.decode_segment([last_tid])
        assert jumps, "tail-block decode never engaged the skip table"
        assert sum(jumps) >= SKIP_SEGMENT_ELEMENTS  # skipped real bytes

        # And the jump changed nothing about the answer.
        scalar = index.make_scanner(attr_id)
        assert segment.column() == [scalar.move_to(last_tid)]

    def test_fallback_decode_jumps_too(self, long_table):
        """The numeric decode adapted from move_to still skips: at α = 0.6
        codes are five bytes wide, too wide for the columnar decoder."""
        index = IVAFile.build(
            long_table, IVAConfig(name="skip_mb", codec="raw", alpha=0.6)
        )
        attr_id = long_table.catalog.require("V").attr_id
        assert index.entry(attr_id).quantizer.vector_bytes == 5
        if index._skip_tables.get(attr_id) is None:
            pytest.skip("chooser picked a positional layout for V")
        last_tid = long_table.stats.live_tuples - 1

        scanner = index.make_scanner(attr_id)
        reader = scanner._reader
        jumps = []
        original_skip = reader.skip
        reader.skip = lambda n: (jumps.append(n), original_skip(n))[1]
        segment = scanner.decode_segment([last_tid])
        assert isinstance(segment, ColumnSegment)
        assert jumps, "the adapted decode never engaged the skip table"

        scalar = index.make_scanner(attr_id)
        assert segment.column() == [scalar.move_to(last_tid)]

    def test_skip_table_survives_append(self, long_table):
        """Appends keep the fences valid: jumps never overshoot new bytes."""
        index = IVAFile.build(long_table, IVAConfig(name="skip_app", codec="raw"))
        attr_id = long_table.catalog.require("V").attr_id
        if index._skip_tables.get(attr_id) is None:
            pytest.skip("chooser picked a positional layout for V")
        cells = long_table.prepare_cells({"V": 42.0, "PAD": "x"})
        tid = long_table.insert_record(cells)
        index.insert(tid, cells)
        assert index._skip_tables.get(attr_id) is not None

        scanner = index.make_scanner(attr_id)
        segment = scanner.decode_segment([tid])
        scalar = index.make_scanner(attr_id)
        assert segment.column() == [scalar.move_to(tid)]


    @pytest.mark.parametrize("byte_run_chunk", [13, None], indirect=True)
    def test_text_decode_jumps_between_blocks(self, byte_run_chunk):
        """Raw text blocks that skip tids jump the run, and still decode right.

        Blocks leave gaps, so each block head finds its pending tid below
        the block: the scanner rewinds to where the scalar walk stands and
        jumps whole segments — inside the buffered run, or past it through
        the reader (a 13-byte chunk keeps the run short).
        """
        table = SparseWideTable(SimulatedDisk())
        rows = (SKIP_SEGMENT_ELEMENTS * 3) * 4
        for i in range(rows):
            cells = {"PAD": "x"}
            if i % 4 == 0:
                cells["One"] = f"v{i % 13} w{i % 7}"
            if i % 8 == 2:
                cells["Two"] = (f"a{i % 5}", f"b{i % 11} c")
            table.insert(cells)
        index = IVAFile.build(table, IVAConfig(name="skip_text", codec="raw"))
        blocks = [list(range(start, start + 9)) for start in range(0, rows - 9, 701)]
        layouts = set()
        jumped = False
        for name in ("One", "Two"):
            attr_id = table.catalog.require(name).attr_id
            if index._skip_tables.get(attr_id) is None:
                continue
            layouts.add(index.entry(attr_id).list_type.name)
            scanner = index.make_scanner(attr_id)
            scalar = index.make_scanner(attr_id)
            skips = []
            original_skip = scanner._reader.skip
            scanner._reader.skip = lambda n: (skips.append(n), original_skip(n))[1]
            for tids in blocks:
                segment = scanner.decode_segment(tids)
                assert segment.column() == [_as_column(scalar.move_to(t)) for t in tids]
            jumped = jumped or bool(skips)
        assert layouts == {"TYPE_I", "TYPE_II"}
        if byte_run_chunk is not None:
            assert jumped, "no block jumped past the buffered run"


class TestWideCodeFallback:
    def test_8_byte_encode_bit_identity(self):
        quantizer = NumericQuantizer(lo=0.0, hi=1e12, vector_bytes=8)
        values = [0.0, 1e12, -5.0, 2e12, 1e12 / 3.0] + [
            i * 7.77e9 for i in range(130)
        ]
        batch = fastpath.encode_numeric_batch(quantizer, values)
        assert batch == [quantizer.encode(v) for v in values]

    def test_wide_code_debug_logged_once(self, caplog):
        quantizer = NumericQuantizer(lo=0.0, hi=100.0, vector_bytes=5)
        fastpath._wide_code_logged = False
        with caplog.at_level(logging.DEBUG, logger="repro.core.fastpath"):
            fastpath.encode_numeric_batch(quantizer, [1.0] * 100)
            fastpath.encode_numeric_batch(quantizer, [2.0] * 100)
        wide = [
            record
            for record in caplog.records
            if "vectorisation boundary" in record.getMessage()
        ]
        assert len(wide) == 1
