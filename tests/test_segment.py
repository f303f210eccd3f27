"""Kernel v3 segment decode: columnar output must equal the scalar walk.

Three layers of checks:

* **property tests** (hypothesis) pin ``decode_segment()`` to the scalar
  ``move_to`` walk (the identity oracle), value for value, across both
  codec families and every vector-list layout the chooser emits —
  including ndf-gap columns, multi-string text values, and a truncated
  final block;
* **skip-table tests** cover ``SkipTable.seek_offset`` arithmetic and
  verify a tail-block decode actually jumps over whole segments (and
  still returns the right payloads), columnar and scalar-fallback alike;
* **fallback tests** monkeypatch numpy away and assert text layouts keep
  their (pure Python) :class:`TextSegment` decoders while numeric ones
  degrade to a :class:`ColumnSegment` adapted from ``move_to``, with v3
  engine answers still bit-identical to scalar.

The wide-code (``vector_bytes > 4``) fastpath fallback rides along: one
explicit 8-byte bit-identity check plus the one-time debug log contract.
"""

from __future__ import annotations

import logging
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.codec import CODEC_NAMES
from repro.core import fastpath
from repro.core.numeric import NumericQuantizer
from repro.core.scan import SKIP_SEGMENT_ELEMENTS, SkipTable, VectorListScanner
from repro.core.segment import ColumnSegment, TextSegment
from repro.data.workload import WorkloadGenerator

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


class TestNumpyAbsentFallback:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_np", None)

    def test_decode_segment_degrades_to_column_segment(self, no_numpy):
        """Text layouts keep their TextSegment decoders; numeric ones adapt move_to."""
        table = _build([("a", "x", 1.0, 2.0), (None, "y", None, 3.0)] * 5)
        for codec in CODEC_NAMES:
            index = IVAFile.build(
                table, IVAConfig(name=f"seg_np_{codec}", codec=codec)
            )
            attr_ids = _attr_ids(table)
            text = [table.catalog.by_id(a).is_text for a in attr_ids]
            assert set(text) == {True, False}
            scan = index.open_scan(attr_ids)
            for tids, _ in scan.blocks(4):
                segments = scan.segment_blocks(list(tids))
                for is_text, segment in zip(text, segments):
                    expected = TextSegment if is_text else ColumnSegment
                    assert type(segment) is expected

    def test_v3_engine_answers_without_numpy(self, no_numpy):
        table = _build(
            [
                (
                    f"val{i % 7}" if i % 3 else None,
                    f"dense{i % 5}",
                    float(i) if i % 2 else None,
                    float(i * 3 % 97),
                )
                for i in range(60)
            ]
        )
        index = IVAFile.build(table, IVAConfig(name="seg_np_engine"))
        workload = WorkloadGenerator(table, seed=11)
        queries = [workload.sample_query(arity) for arity in (1, 2) for _ in range(3)]

        def answers(kernel):
            engine = IVAEngine(table, index, kernel=kernel)
            return [
                [(r.tid, r.distance) for r in engine.search(q, k=5).results]
                for q in queries
            ]

        assert answers("v3") == answers("scalar")


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

    def test_fallback_decode_jumps_too(self, long_table, monkeypatch):
        """The numpy-absent numeric decode (adapted move_to) still skips."""
        monkeypatch.setattr(fastpath, "_np", None)
        index = IVAFile.build(long_table, IVAConfig(name="skip_mb", codec="raw"))
        attr_id = long_table.catalog.require("V").attr_id
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
        assert jumps, "the fallback decode never engaged the skip table"

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
