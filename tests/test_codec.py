"""The codec seam: round-trips and cross-codec answer identity.

The load-bearing contracts:

* every codec decodes back exactly what was encoded, layout by layout
  (the codecs change *addressing bytes*, never the signatures);
* a query answered through a ``compressed`` index is bit-identical to the
  same query through a ``raw`` index, under both filter kernels.
"""

from __future__ import annotations

import random

import pytest

from repro.codec import CODEC_NAMES, codec_for_code, get_codec
from repro.codec.base import BytesReader, encode_uvarint, read_uvarint, uvarint_len
from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAConfig, IVAFile
from repro.core.numeric import NumericQuantizer
from repro.core.signature import SignatureScheme
from repro.core.vector_lists import ListType
from repro.data.generator import DatasetConfig, DatasetGenerator
from repro.data.workload import WorkloadGenerator
from repro.errors import IndexError_
from repro.storage import SparseWideTable, simulated_backend


class TestVarints:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 16383, 16384, 2**32 - 1, 2**63 - 1]
    )
    def test_round_trip(self, value):
        encoded = encode_uvarint(value)
        assert len(encoded) == uvarint_len(value)
        assert read_uvarint(BytesReader(encoded)) == value

    def test_negative_rejected(self):
        with pytest.raises(IndexError_):
            encode_uvarint(-1)

    def test_overlong_stream_rejected(self):
        with pytest.raises(IndexError_):
            read_uvarint(BytesReader(b"\x80" * 10 + b"\x01"))

    def test_truncated_stream_rejected(self):
        with pytest.raises(IndexError_):
            read_uvarint(BytesReader(b"\x80"))


class TestRegistry:
    def test_names_and_codes(self):
        assert CODEC_NAMES == ("raw", "compressed")
        for code, name in enumerate(CODEC_NAMES):
            codec = get_codec(name)
            assert codec.code == code
            assert codec_for_code(code) is codec

    def test_unknown_rejected(self):
        with pytest.raises(IndexError_):
            get_codec("zstd")
        with pytest.raises(IndexError_):
            codec_for_code(99)

    def test_config_validates_codec(self):
        with pytest.raises(Exception):
            IVAConfig(codec="nope")


def _sample_entries(seed: int, tuples: int = 60, density: float = 0.5):
    """Deterministic text/numeric entry sets plus the full tid column."""
    rng = random.Random(seed)
    all_tids = sorted(rng.sample(range(tuples * 3), tuples))
    words = ["camera", "canon", "google", "album", "jackson", "sony", "apple"]
    text = [
        (tid, tuple(rng.sample(words, rng.randint(1, 3))))
        for tid in all_tids
        if rng.random() < density
    ]
    numeric = [
        (tid, rng.uniform(0.0, 500.0)) for tid in all_tids if rng.random() < density
    ]
    return all_tids, text, numeric


class TestRoundTrip:
    """Each codec's scanners decode exactly what its builders encoded."""

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @pytest.mark.parametrize(
        "list_type", [ListType.TYPE_I, ListType.TYPE_II, ListType.TYPE_III]
    )
    @pytest.mark.parametrize("density", [0.15, 0.6, 1.0])
    def test_text_layouts(self, codec_name, list_type, density):
        codec = get_codec(codec_name)
        raw = get_codec("raw")
        scheme = SignatureScheme(0.2, 2)
        all_tids, entries, _ = _sample_entries(
            seed=hash((codec_name, list_type.value)) % 1000, density=density
        )
        payload = codec.build_text(list_type, scheme, entries, all_tids)
        scanner = codec.text_scanner(list_type, BytesReader(payload), scheme)
        reference = raw.text_scanner(
            ListType.TYPE_I,
            BytesReader(raw.build_text(ListType.TYPE_I, scheme, entries, all_tids)),
            scheme,
        )
        for tid in all_tids:
            assert scanner.move_to(tid) == reference.move_to(tid)

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @pytest.mark.parametrize("list_type", [ListType.TYPE_I, ListType.TYPE_IV])
    @pytest.mark.parametrize("density", [0.15, 0.6, 1.0])
    def test_numeric_layouts(self, codec_name, list_type, density):
        codec = get_codec(codec_name)
        raw = get_codec("raw")
        reserve = list_type is ListType.TYPE_IV
        quantizer = NumericQuantizer.from_domain(0.0, 500.0, 0.2, reserve_ndf=reserve)
        all_tids, _, entries = _sample_entries(seed=list_type.value, density=density)
        payload = codec.build_numeric(list_type, quantizer, entries, all_tids)
        scanner = codec.numeric_scanner(list_type, BytesReader(payload), quantizer)
        ref_quant = NumericQuantizer.from_domain(0.0, 500.0, 0.2, reserve_ndf=False)
        reference = raw.numeric_scanner(
            ListType.TYPE_I,
            BytesReader(
                raw.build_numeric(ListType.TYPE_I, ref_quant, entries, all_tids)
            ),
            ref_quant,
        )
        defined = {tid for tid, _ in entries}
        for tid in all_tids:
            got = scanner.move_to(tid)
            want = reference.move_to(tid)
            if tid in defined:
                # Type IV reserves one code for ndf, so absolute codes can
                # differ by quantizer; both must agree on definedness and,
                # for same-quantizer layouts, on the code itself.
                assert got is not None
                if not reserve:
                    assert got == want
            else:
                assert got is None or reserve  # Type IV returns the ndf code

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_sizes_match_builders(self, codec_name):
        """The closed-form size of every layout equals the built payload."""
        codec = get_codec(codec_name)
        scheme = SignatureScheme(0.2, 2)
        quantizer = NumericQuantizer.from_domain(0.0, 500.0, 0.2, reserve_ndf=True)
        all_tids, text, numeric = _sample_entries(seed=3)
        sizes = codec.text_sizes(scheme, text, all_tids)
        assert sizes.type_i == len(
            codec.build_text(ListType.TYPE_I, scheme, text, all_tids)
        )
        assert sizes.type_ii == len(
            codec.build_text(ListType.TYPE_II, scheme, text, all_tids)
        )
        assert sizes.type_iii == len(
            codec.build_text(ListType.TYPE_III, scheme, text, all_tids)
        )
        nsizes = codec.numeric_sizes(quantizer.vector_bytes, numeric, all_tids)
        assert nsizes.type_iv == len(
            codec.build_numeric(ListType.TYPE_IV, quantizer, numeric, all_tids)
        )


def _dense_table():
    """Few attributes, high fill — drives layout choice to Types III/IV."""
    table = SparseWideTable(simulated_backend())
    DatasetGenerator(
        DatasetConfig(
            num_tuples=250, num_attributes=8, mean_attrs_per_tuple=6.0, seed=41
        )
    ).populate(table)
    return table


def _sparse_table():
    """Many attributes, low fill — drives layout choice to Types I/II."""
    table = SparseWideTable(simulated_backend())
    DatasetGenerator(
        DatasetConfig(
            num_tuples=250, num_attributes=60, mean_attrs_per_tuple=5.0, seed=43
        )
    ).populate(table)
    return table


class TestCrossCodecAnswers:
    """Raw and compressed indexes answer every query identically."""

    @pytest.mark.parametrize("make_table", [_dense_table, _sparse_table])
    @pytest.mark.parametrize("kernel", ["v3", "scalar"])
    def test_identical_answers(self, make_table, kernel):
        table = make_table()
        raw = IVAFile.build(table, IVAConfig(name="raw", codec="raw"))
        comp = IVAFile.build(table, IVAConfig(name="comp", codec="compressed"))
        raw_engine = IVAEngine(table, raw)
        comp_engine = IVAEngine(table, comp, kernel=kernel)
        workload = WorkloadGenerator(table, seed=5)
        for arity in (1, 2, 3):
            for _ in range(4):
                query = workload.sample_query(arity)
                want = [
                    (r.tid, r.distance)
                    for r in raw_engine.search(query, k=10).results
                ]
                got = [
                    (r.tid, r.distance)
                    for r in comp_engine.search(query, k=10).results
                ]
                assert got == want

    @pytest.mark.parametrize(
        "forced", [ListType.TYPE_I, ListType.TYPE_II, ListType.TYPE_III]
    )
    @pytest.mark.parametrize("kernel", ["v3", "scalar"])
    def test_forced_text_layouts_identical(self, monkeypatch, forced, kernel):
        """Every text layout answers identically under both codecs.

        Compressed sizing rarely picks Types II/III on synthetic tables
        (gap-coded Type I is usually smallest), so force the choice to
        exercise each layout's scanner end to end.
        """
        from repro.core.vector_lists import TextListSizes

        monkeypatch.setattr(TextListSizes, "best", lambda self: forced)
        table = _dense_table()
        raw = IVAFile.build(table, IVAConfig(name="raw", codec="raw"))
        comp = IVAFile.build(table, IVAConfig(name="comp", codec="compressed"))
        assert {e.list_type for e in comp.entries() if e.attr.is_text} == {forced}
        raw_engine = IVAEngine(table, raw)
        comp_engine = IVAEngine(table, comp, kernel=kernel)
        workload = WorkloadGenerator(table, seed=31)
        for _ in range(6):
            query = workload.sample_query(2)
            want = [
                (r.tid, r.distance) for r in raw_engine.search(query, k=10).results
            ]
            got = [
                (r.tid, r.distance) for r in comp_engine.search(query, k=10).results
            ]
            assert got == want

    @pytest.mark.parametrize("forced", [ListType.TYPE_I, ListType.TYPE_IV])
    @pytest.mark.parametrize("kernel", ["v3", "scalar"])
    def test_forced_numeric_layouts_identical(self, monkeypatch, forced, kernel):
        from repro.core.vector_lists import NumericListSizes

        monkeypatch.setattr(NumericListSizes, "best", lambda self: forced)
        table = _sparse_table()
        raw = IVAFile.build(table, IVAConfig(name="raw", codec="raw"))
        comp = IVAFile.build(table, IVAConfig(name="comp", codec="compressed"))
        assert {e.list_type for e in comp.entries() if not e.attr.is_text} == {forced}
        raw_engine = IVAEngine(table, raw)
        comp_engine = IVAEngine(table, comp, kernel=kernel)
        workload = WorkloadGenerator(table, seed=37)
        for _ in range(6):
            query = workload.sample_query(2)
            want = [
                (r.tid, r.distance) for r in raw_engine.search(query, k=10).results
            ]
            got = [
                (r.tid, r.distance) for r in comp_engine.search(query, k=10).results
            ]
            assert got == want

    def test_compressed_is_smaller(self):
        table = _sparse_table()
        raw = IVAFile.build(table, IVAConfig(name="r", codec="raw"))
        comp = IVAFile.build(table, IVAConfig(name="c", codec="compressed"))
        raw_bytes = sum(e.list_size for e in raw.entries())
        comp_bytes = sum(e.list_size for e in comp.entries())
        assert comp_bytes <= raw_bytes * 0.8  # the 20% acceptance floor

    def test_identical_after_mutations(self):
        table = _sparse_table()
        raw = IVAFile.build(table, IVAConfig(name="r", codec="raw"))
        comp = IVAFile.build(table, IVAConfig(name="c", codec="compressed"))
        victim = next(iter(raw.tuples.element_tids()))
        table.delete(victim)
        raw.delete(victim)
        comp.delete(victim)
        for i in range(60):
            tid = table.insert({"Color": f"shade{i}", "Price": float(i)})
            raw.insert(tid, table.read(tid).cells)
            comp.insert(tid, table.read(tid).cells)
        raw_engine = IVAEngine(table, raw)
        comp_engine = IVAEngine(table, comp, kernel="scalar")
        workload = WorkloadGenerator(table, seed=9)
        for _ in range(6):
            query = workload.sample_query(2)
            want = [
                (r.tid, r.distance) for r in raw_engine.search(query, k=10).results
            ]
            got = [
                (r.tid, r.distance) for r in comp_engine.search(query, k=10).results
            ]
            assert got == want

    def test_attach_round_trip_preserves_codec(self):
        table = _sparse_table()
        built = IVAFile.build(table, IVAConfig(name="c", codec="compressed"))
        attached = IVAFile.attach(table, IVAConfig(name="c"))
        for a, b in zip(built.entries(), attached.entries()):
            assert a.codec == b.codec == "compressed"
            assert a.last_key == b.last_key
        # Appends after attach must keep decoding (last_key persisted).
        tid = table.insert({"Color": "fresh", "Price": 3.0})
        attached.insert(tid, table.read(tid).cells)
        workload = WorkloadGenerator(table, seed=2)
        query = workload.sample_query(2)
        raw = IVAFile.build(table, IVAConfig(name="r2", codec="raw"))
        want = [
            (r.tid, r.distance)
            for r in IVAEngine(table, raw).search(query, k=10).results
        ]
        got = [
            (r.tid, r.distance)
            for r in IVAEngine(table, attached).search(query, k=10).results
        ]
        assert got == want


class TestObservability:
    def test_bytes_saved_counter(self):
        from repro.obs.metrics import MetricsRegistry, set_registry, get_registry

        registry = MetricsRegistry()
        previous = get_registry()
        set_registry(registry)
        try:
            table = _sparse_table()
            IVAFile.build(table, IVAConfig(name="c", codec="compressed"))
            counter = registry.counter(
                "repro_codec_bytes_saved_total", labels={"codec": "compressed"}
            )
            assert counter.value > 0
        finally:
            set_registry(previous)


class TestSizeModel:
    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @pytest.mark.parametrize("make_table", [_dense_table, _sparse_table])
    def test_prediction_matches_build(self, codec_name, make_table):
        from repro.analysis.size_model import predict_iva_size

        table = make_table()
        index = IVAFile.build(table, IVAConfig(codec=codec_name))
        predicted = predict_iva_size(
            table, index.config.alpha, index.config.n, codec=codec_name
        )
        assert predicted.total_bytes == index.total_bytes()
        for entry in index.entries():
            attr_id = entry.attr.attr_id
            assert predicted.chosen_types[attr_id] == entry.list_type
            assert predicted.vector_list_bytes[attr_id] == entry.list_size

    def test_compare_codecs_reduction(self):
        from repro.analysis.storage_model import compare_codecs

        table = _sparse_table()
        footprints = compare_codecs(table, 0.2, 2)
        assert set(footprints) == set(CODEC_NAMES)
        reduction = footprints["compressed"].reduction_vs(footprints["raw"])
        assert reduction >= 0.2
