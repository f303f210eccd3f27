"""The iVA-file index: tuple list, attribute list, per-attribute vector lists.

Physical layout on the simulated disk (one index instance = one file family):

* ``<name>.tuples`` — the tuple list: ``<tid u32, ptr u64>`` elements sorted
  by tid; ``ptr`` is the tuple's offset in the table file, rewritten to a
  sentinel on deletion (Sec. IV-B);
* ``<name>.attrs``  — the attribute list, one fixed-width element per
  attribute id (positional mapping, no explicit ids);
* ``<name>.v<attr_id>`` — that attribute's vector list, in the layout chosen
  by the Sec. III-D size formulas; appends go to the tail, located via the
  attribute-list element.

Maintenance follows Sec. IV-B: inserts append everywhere, deletes tombstone
the tuple list only, updates are delete + insert under a fresh tid, and
:meth:`IVAFile.rebuild` compacts everything.

Sync directory
--------------

Vector-list elements are variable width, so resuming a scan mid-list — what
``repro.parallel`` shard workers do — needs a resume point per list.  The
index maintains a **checkpoint directory** as it goes: every
:data:`SYNC_INTERVAL` tuple-list elements it records, for every attribute,
the :class:`~repro.core.scan.ResumePoint` at which a fresh scanner resumes
the synchronized scan at that element — a byte offset plus, for delta-coded
codecs, the decoding base at that offset.  At rebuild the points are pure
arithmetic over the entries being serialized (delegated to the active
codec); at insert they are the current list tails — either way the
directory costs no I/O.  Attached indexes have no directory (it lives
in memory); the shard planner falls back to a one-off charged walk.

Codecs
------

*Which bytes* each layout serializes to is pluggable (``repro.codec``):
``IVAConfig.codec`` names the wire-format family used at build/insert, and
every attribute-list element records its list's codec id, so attach needs
no out-of-band knowledge.  All codecs preserve the no-false-negative
contract; they only change element addressing (see
:mod:`repro.codec.compressed`).
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.codec import VectorListCodec, codec_for_code, get_codec
from repro.codec.base import list_last_key as _list_last_key
from repro.core.numeric import NumericQuantizer, vector_bytes_for_alpha
from repro.core.scan import ResumePoint, SkipTable, VectorListScanner
from repro.core.signature import SignatureScheme
from repro.core.tuple_list import DELETED_PTR, TupleList
from repro.core.vector_lists import ListType
from repro.errors import IndexError_
from repro.model.schema import AttributeDef
from repro.model.values import CellValue, is_numeric_value, is_text_value
from repro.storage.pager import BufferedReader
from repro.storage.table import SparseWideTable

#: Attribute-list element: list_type, kind, codec, alpha, n, df, str, lo,
#: hi, vector_bytes, list_size, last_key.
_ATTR_ELEMENT = struct.Struct("<BBBdBIIddBQq")

#: Byte width of one attribute-list element (public for the size model).
ATTR_ELEMENT_BYTES = _ATTR_ELEMENT.size

_KIND_TEXT = 1
_KIND_NUMERIC = 0

#: Tuple-list elements between consecutive checkpoint-directory sync points.
SYNC_INTERVAL = 64

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IVAConfig:
    """Tunable parameters of the index (paper Table I defaults).

    The attribute list stores α *per attribute* (Sec. III-D), so the
    relative vector length may be overridden for individual attributes —
    spend more bits where filtering matters, fewer on rarely queried
    attributes — via ``alpha_overrides`` keyed by attribute name.

    ``codec`` names the vector-list wire-format family (``repro.codec``)
    used when building and appending; existing lists keep the codec they
    were written with (it is recorded per attribute-list element).
    """

    alpha: float = 0.20
    n: int = 2
    name: str = "iva"
    alpha_overrides: Mapping[str, float] = field(default_factory=dict)
    codec: str = "raw"

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise IndexError_(f"α must be in (0, 1], got {self.alpha}")
        if self.n < 1:
            raise IndexError_(f"n must be >= 1, got {self.n}")
        for name, alpha in self.alpha_overrides.items():
            if not 0 < alpha <= 1:
                raise IndexError_(
                    f"α override for {name!r} must be in (0, 1], got {alpha}"
                )
        get_codec(self.codec)  # validate the name early

    def alpha_for(self, attr_name: str) -> float:
        """The relative vector length to use for one attribute."""
        return self.alpha_overrides.get(attr_name, self.alpha)


@dataclass
class AttributeEntry:
    """In-memory mirror of one attribute-list element."""

    attr: AttributeDef
    list_type: ListType
    alpha: float
    n: int
    df: int = 0
    str_count: int = 0
    lo: Optional[float] = None
    hi: Optional[float] = None
    vector_bytes: int = 0
    list_size: int = 0
    #: Wire-format family this attribute's list is encoded with.
    codec: str = "raw"
    #: Decoding base at the list tail: the last appended element's tid
    #: (tid-based layouts) or last defined tuple position (positional
    #: layouts); ``-1`` for an empty list.  Delta-coded codecs append
    #: relative to it, so it persists in the attribute-list element.
    last_key: int = -1
    _scheme: Optional[SignatureScheme] = field(default=None, repr=False)
    _quantizer: Optional[NumericQuantizer] = field(default=None, repr=False)

    @property
    def is_positional(self) -> bool:
        """True for Type III/IV (position-identified) layouts."""
        return self.list_type in (ListType.TYPE_III, ListType.TYPE_IV)

    @property
    def codec_impl(self) -> VectorListCodec:
        """The registered codec object for :attr:`codec`."""
        return get_codec(self.codec)

    @property
    def scheme(self) -> SignatureScheme:
        """The signature scheme for this attribute's α and n."""
        if self._scheme is None:
            self._scheme = SignatureScheme(self.alpha, self.n)
        return self._scheme

    @property
    def quantizer(self) -> NumericQuantizer:
        """The numeric quantizer derived from the stored domain."""
        if self._quantizer is None:
            self._quantizer = NumericQuantizer.from_domain(
                self.lo,
                self.hi,
                self.alpha,
                reserve_ndf=self.list_type is ListType.TYPE_IV,
            )
        return self._quantizer

    def pack(self) -> bytes:
        """Serialize the element for the attribute-list file."""
        return _ATTR_ELEMENT.pack(
            self.list_type.value,
            _KIND_TEXT if self.attr.is_text else _KIND_NUMERIC,
            self.codec_impl.code,
            self.alpha,
            self.n,
            self.df,
            self.str_count,
            self.lo if self.lo is not None else 0.0,
            self.hi if self.hi is not None else 0.0,
            self.vector_bytes,
            self.list_size,
            self.last_key,
        )


class _NullScanner(VectorListScanner):
    """Scanner for an attribute the index holds no list for (always ndf)."""

    def __init__(self) -> None:  # no reader needed
        pass

    def move_to(self, tid: int) -> None:
        """Advance the pointer to *tid*; see the class docstring."""
        return None

    def move_block(self, tids) -> list:
        """Every element is ndf."""
        return [None] * len(tids)

    def checkpoint_offset(self) -> int:
        """No backing list: every resume point is offset 0."""
        return 0


class IVAFile:
    """The inverted vector-approximation file over one sparse wide table."""

    def __init__(self, table: SparseWideTable, config: Optional[IVAConfig] = None) -> None:
        self.table = table
        self.disk = table.disk
        self.config = config or IVAConfig()
        self._entries: List[AttributeEntry] = []
        self._tuples = TupleList(self.disk, self.tuples_file)
        self._version = 0
        # Checkpoint directory (see the module docstring): element positions
        # and, per attribute, the vector-list resume point at each position.
        # Maintained by rebuild/insert; absent (inactive) on attach.
        self._sync_positions: List[int] = []
        self._sync_offsets: Dict[int, List[ResumePoint]] = {}
        self._sync_active = False
        # Per-attribute skip tables (raw tid-based lists only): segment tid
        # fences built at rebuild so a frozen pointer can jump dead runs.
        # Appends keep a table valid — appended tids are strictly larger
        # than every fenced tid, so jumps never overshoot into new bytes —
        # but a rebuilt list gets a fresh table.  Absent on attach.
        self._skip_tables: Dict[int, SkipTable] = {}
        if not self.disk.exists(self.attrs_file):
            self.disk.create(self.attrs_file)

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every insert/delete/rebuild.

        Lets ``repro.parallel`` cache shard plans per index state and
        invalidate them when the underlying lists change.
        """
        return self._version

    # -------------------------------------------------------------- naming

    @property
    def tuples_file(self) -> str:
        """On-disk name of the tuple list."""
        return f"{self.config.name}.tuples"

    @property
    def attrs_file(self) -> str:
        """On-disk name of the attribute list."""
        return f"{self.config.name}.attrs"

    def vector_file(self, attr_id: int) -> str:
        """On-disk name of one attribute's vector list."""
        return f"{self.config.name}.v{attr_id}"

    # -------------------------------------------------------------- sizing

    @property
    def tuples(self) -> TupleList:
        """The underlying tuple list (shared with ``repro.parallel``)."""
        return self._tuples

    @property
    def tuple_elements(self) -> int:
        """Tuple-list elements, including tombstoned ones."""
        return self._tuples.element_count

    @property
    def deleted_elements(self) -> int:
        """Tombstoned tuple-list elements."""
        return self._tuples.deleted_count

    def total_bytes(self) -> int:
        """Total index footprint (tuple list + attribute list + all vectors)."""
        total = self.disk.size(self.tuples_file) + self.disk.size(self.attrs_file)
        for entry in self._entries:
            total += self.disk.size(self.vector_file(entry.attr.attr_id))
        return total

    def entry(self, attr_id: int) -> Optional[AttributeEntry]:
        """The attribute entry for *attr_id*, or None if unknown."""
        if 0 <= attr_id < len(self._entries):
            return self._entries[attr_id]
        return None

    def entries(self) -> Sequence[AttributeEntry]:
        """All attribute entries in attribute-id order."""
        return tuple(self._entries)

    # --------------------------------------------------------------- build

    @classmethod
    def build(cls, table: SparseWideTable, config: Optional[IVAConfig] = None) -> "IVAFile":
        """Bulk-build the index from the table's live tuples."""
        index = cls(table, config)
        index.rebuild()
        return index

    @classmethod
    def attach(cls, table: SparseWideTable, config: Optional[IVAConfig] = None) -> "IVAFile":
        """Re-open an existing index from its on-disk files.

        Rebuilds the in-memory attribute entries from the attribute list
        and the tuple-list offset map with one sequential pass — the
        durability counterpart of :meth:`SparseWideTable.attach`.
        """
        config = config or IVAConfig()
        disk = table.disk
        for file_name in (f"{config.name}.tuples", f"{config.name}.attrs"):
            if not disk.exists(file_name):
                raise IndexError_(f"cannot attach: missing file {file_name!r}")
        index = cls(table, config)
        index._tuples.attach()
        entries: List[AttributeEntry] = []
        attrs_size = disk.size(index.attrs_file)
        count = attrs_size // _ATTR_ELEMENT.size
        reader = BufferedReader(disk, index.attrs_file, 0)
        for attr_id in range(count):
            raw = reader.read(_ATTR_ELEMENT.size)
            (
                list_type_value,
                kind,
                codec_code,
                alpha,
                n,
                df,
                str_count,
                lo,
                hi,
                vector_bytes,
                list_size,
                last_key,
            ) = _ATTR_ELEMENT.unpack(raw)
            attr = table.catalog.by_id(attr_id)
            stored_text = kind == _KIND_TEXT
            if stored_text != attr.is_text:
                raise IndexError_(
                    f"attribute list disagrees with the catalog on the kind "
                    f"of attribute {attr.name!r} (id {attr_id})"
                )
            has_domain = attr.is_numeric and df > 0
            entries.append(
                AttributeEntry(
                    attr=attr,
                    list_type=ListType(list_type_value),
                    alpha=alpha,
                    n=n,
                    df=df,
                    str_count=str_count,
                    lo=lo if has_domain else None,
                    hi=hi if has_domain else None,
                    vector_bytes=vector_bytes,
                    list_size=list_size,
                    codec=codec_for_code(codec_code).name,
                    last_key=last_key,
                )
            )
        index._entries = entries
        return index

    def rebuild(self) -> None:
        """Rebuild every list from the table's current live contents.

        Used at bulk build and for the periodic cleaning of Sec. IV-B.
        Re-derives relative domains, re-runs the list-type selection, and
        drops tombstones.
        """
        self._version += 1
        table = self.table
        config = self.config
        text_entries: Dict[int, List[Tuple[int, Tuple[str, ...]]]] = {}
        numeric_entries: Dict[int, List[Tuple[int, float]]] = {}
        all_tids: List[int] = []
        for record in table.scan():
            all_tids.append(record.tid)
            for attr_id, value in record.cells.items():
                if is_text_value(value):
                    text_entries.setdefault(attr_id, []).append((record.tid, value))
                elif is_numeric_value(value):
                    numeric_entries.setdefault(attr_id, []).append((record.tid, value))
        all_tids.sort()
        for bucket in text_entries.values():
            bucket.sort(key=lambda pair: pair[0])
        for bucket in numeric_entries.values():
            bucket.sort(key=lambda pair: pair[0])

        self._sync_positions = list(range(0, len(all_tids), SYNC_INTERVAL))
        self._sync_offsets = {}
        self._sync_active = True
        self._skip_tables = {}

        from repro.obs import get_tracer

        entries: List[AttributeEntry] = []
        schemes: Dict[float, SignatureScheme] = {}
        with get_tracer().span(
            "codec.encode", codec=config.codec, phase="rebuild"
        ):
            for attr in table.catalog:
                alpha = config.alpha_for(attr.name)
                if attr.is_text:
                    bucket: list = text_entries.get(attr.attr_id, [])
                    scheme = schemes.get(alpha)
                    if scheme is None:
                        scheme = SignatureScheme(alpha, config.n)
                        schemes[alpha] = scheme
                    entry = self._build_text_entry(attr, scheme, bucket, all_tids)
                else:
                    bucket = numeric_entries.get(attr.attr_id, [])
                    entry = self._build_numeric_entry(attr, bucket, all_tids)
                entries.append(entry)
                self._sync_offsets[attr.attr_id] = self._entry_resume_points(
                    entry, bucket, all_tids, self._sync_positions
                )
                self._refresh_skip_table(entry, bucket, all_tids)
        self._entries = entries

        # Tuple list.
        self._tuples.rebuild((tid, table.locate(tid)[0]) for tid in all_tids)

        # Attribute list.
        self.disk.create(self.attrs_file, overwrite=True)
        self.disk.append(
            self.attrs_file, b"".join(entry.pack() for entry in entries)
        )
        logger.info(
            "rebuilt iVA-file %r: %d tuples, %d attributes, %d bytes",
            self.config.name,
            len(all_tids),
            len(entries),
            self.total_bytes(),
        )

    def _build_text_entry(
        self,
        attr: AttributeDef,
        scheme: SignatureScheme,
        entries: List[Tuple[int, Tuple[str, ...]]],
        all_tids: Sequence[int],
    ) -> AttributeEntry:
        codec = get_codec(self.config.codec)
        sizes = codec.text_sizes(scheme, entries, all_tids)
        list_type = sizes.best()
        payload = codec.build_text(list_type, scheme, entries, all_tids)
        file_name = self.vector_file(attr.attr_id)
        self.disk.create(file_name, overwrite=True)
        self.disk.append(file_name, payload)
        def raw_best(raw: VectorListCodec) -> int:
            raw_sizes = raw.text_sizes(scheme, entries, all_tids)
            return min(raw_sizes.type_i, raw_sizes.type_ii, raw_sizes.type_iii)

        self._count_bytes_saved(codec, len(payload), raw_best)
        return AttributeEntry(
            attr=attr,
            list_type=list_type,
            alpha=scheme.alpha,
            n=self.config.n,
            df=len(entries),
            str_count=sum(len(strings) for _, strings in entries),
            list_size=len(payload),
            codec=codec.name,
            last_key=_list_last_key(list_type, entries, all_tids),
            _scheme=scheme,
        )

    def _build_numeric_entry(
        self,
        attr: AttributeDef,
        entries: List[Tuple[int, float]],
        all_tids: Sequence[int],
    ) -> AttributeEntry:
        codec = get_codec(self.config.codec)
        alpha = self.config.alpha_for(attr.name)
        vector_bytes = vector_bytes_for_alpha(alpha)
        sizes = codec.numeric_sizes(vector_bytes, entries, all_tids)
        list_type = sizes.best()
        if entries:
            lo = min(value for _, value in entries)
            hi = max(value for _, value in entries)
        else:
            lo = hi = None
        quantizer = NumericQuantizer.from_domain(
            lo, hi, alpha, reserve_ndf=list_type is ListType.TYPE_IV
        )
        payload = codec.build_numeric(list_type, quantizer, entries, all_tids)
        file_name = self.vector_file(attr.attr_id)
        self.disk.create(file_name, overwrite=True)
        self.disk.append(file_name, payload)
        def raw_best(raw: VectorListCodec) -> int:
            raw_sizes = raw.numeric_sizes(vector_bytes, entries, all_tids)
            return min(raw_sizes.type_i, raw_sizes.type_iv)

        self._count_bytes_saved(codec, len(payload), raw_best)
        return AttributeEntry(
            attr=attr,
            list_type=list_type,
            alpha=alpha,
            n=self.config.n,
            df=len(entries),
            lo=lo,
            hi=hi,
            vector_bytes=vector_bytes,
            list_size=len(payload),
            codec=codec.name,
            last_key=_list_last_key(list_type, entries, all_tids),
            _quantizer=quantizer,
        )

    @staticmethod
    def _count_bytes_saved(codec: VectorListCodec, actual: int, raw_size) -> None:
        """Credit ``repro_codec_bytes_saved_total`` for one built list.

        *raw_size* is a callable producing the bytes the ``raw`` family
        would have chosen for the same entries; only non-raw codecs pay
        the (cheap, arithmetic-only) comparison.
        """
        if codec.name == "raw":
            return
        from repro.obs.metrics import get_registry

        saved = raw_size(get_codec("raw")) - actual
        if saved > 0:
            get_registry().counter(
                "repro_codec_bytes_saved_total",
                {"codec": codec.name},
                help="Vector-list bytes avoided vs. the raw codec family.",
            ).inc(saved)

    def _refresh_skip_table(
        self,
        entry: AttributeEntry,
        bucket: Sequence[Tuple[int, object]],
        all_tids: Sequence[int],
    ) -> None:
        """Recompute one attribute's skip table after its list was built.

        Pure arithmetic over the entries just serialized (like the sync
        directory).  Codecs decline for layouts whose element offsets are
        not derivable without decoding, in which case any stale table is
        dropped.
        """
        attr_id = entry.attr.attr_id
        skip = entry.codec_impl.skip_table(
            entry.list_type,
            entry.attr.is_text,
            entry.scheme if entry.attr.is_text else entry.quantizer,
            bucket,
            all_tids,
        )
        if skip is None:
            self._skip_tables.pop(attr_id, None)
        else:
            self._skip_tables[attr_id] = skip

    def _entry_resume_points(
        self,
        entry: AttributeEntry,
        bucket: Sequence[Tuple[int, object]],
        all_tids: Sequence[int],
        positions: Sequence[int],
    ) -> List[ResumePoint]:
        """Sync-directory resume points for one freshly rebuilt list.

        Delegated to the entry's codec: pure arithmetic over the same
        ``(tid, value)`` entries the builder just serialized — no payload
        parsing, no I/O.
        """
        if not positions:
            return []
        codec = entry.codec_impl
        if entry.attr.is_text:
            return codec.text_resume_points(
                entry.list_type, entry.scheme, bucket, all_tids, positions
            )
        return codec.numeric_resume_points(
            entry.list_type, entry.vector_bytes, bucket, all_tids, positions
        )

    def sync_checkpoints(
        self, attr_ids: Sequence[int]
    ) -> Optional[Tuple[List[int], Dict[int, Sequence[ResumePoint]]]]:
        """The checkpoint directory restricted to *attr_ids*.

        Returns ``(positions, {attr_id: resume_points})`` — ascending
        tuple-list element positions and, aligned with them, each
        attribute's :class:`~repro.core.scan.ResumePoint` — or ``None``
        when the directory is unavailable (attached index or empty
        table).  Attributes the index holds no list for resume at the
        list head (the null scanner ignores the point anyway).
        """
        if not self._sync_active or not self._sync_positions:
            return None
        zeros: Optional[List[ResumePoint]] = None
        offsets: Dict[int, Sequence[ResumePoint]] = {}
        for attr_id in attr_ids:
            rows = self._sync_offsets.get(attr_id)
            if rows is None:
                if zeros is None:
                    zeros = [
                        ResumePoint(position=pos) for pos in self._sync_positions
                    ]
                rows = zeros
            offsets[attr_id] = rows
        return list(self._sync_positions), offsets

    # ------------------------------------------------------------- updates

    def insert(self, tid: int, cells: Dict[int, CellValue]) -> None:
        """Index a freshly inserted tuple (append to all affected tails).

        Positional lists (Types III/IV) receive an element for *every*
        insert; tid-based lists only when the tuple defines the attribute.
        Attributes registered after the last rebuild get a fresh (tid-based)
        list on first sight.
        """
        self._version += 1
        self._register_new_attributes()
        ptr, _ = self.table.locate(tid)
        # Extend the checkpoint directory before any payload lands: the new
        # element's position checkpoints at every list's current tail.
        position = self._tuples.element_count
        if self._sync_active and position % SYNC_INTERVAL == 0:
            self._sync_positions.append(position)
            for entry in self._entries:
                self._sync_offsets[entry.attr.attr_id].append(
                    ResumePoint(
                        offset=entry.list_size,
                        prev_key=entry.last_key,
                        position=position,
                    )
                )
        self._tuples.append(tid, ptr)
        for entry in self._entries:
            attr_id = entry.attr.attr_id
            value = cells.get(attr_id)
            if value is None and not entry.is_positional:
                continue
            payload, entry.last_key = self._encode_insert(
                entry, tid, value, position
            )
            if payload:
                self.disk.append(self.vector_file(attr_id), payload)
                entry.list_size += len(payload)
            if value is not None:
                entry.df += 1
                if entry.attr.is_text:
                    entry.str_count += len(value)  # type: ignore[arg-type]
            if payload or value is not None:
                # Keep the attribute-list element (ptr2 / df / str) current.
                self._rewrite_attr_element(attr_id)

    def _encode_insert(
        self,
        entry: AttributeEntry,
        tid: int,
        value: Optional[CellValue],
        position: int,
    ) -> Tuple[bytes, int]:
        """One tuple's tail bytes and the list's new decoding base."""
        codec = entry.codec_impl
        if entry.attr.is_text:
            return codec.append_text(
                entry.list_type,
                entry.scheme,
                tid,
                value,  # tuple of str or None
                prev_key=entry.last_key,
                position=position,
            )
        return codec.append_numeric(
            entry.list_type,
            entry.quantizer,
            tid,
            value,
            prev_key=entry.last_key,
            position=position,
        )

    def rebuild_attribute(self, attr_id: int) -> None:
        """Rebuild one attribute's vector list from the base table.

        The quarantine-and-repair path of :mod:`repro.storage.fsck`: the
        table file is the source of truth, so a corrupt vector list can be
        dropped and re-derived without touching sibling lists or the tuple
        list.  The entry keeps its recorded codec, α and n (a repaired
        mixed-codec index stays mixed); the list type is re-selected for
        the current contents and the attribute-list element is rewritten.
        """
        entry = self.entry(attr_id)
        if entry is None:
            raise IndexError_(f"no attribute entry for id {attr_id}")
        self._version += 1
        attr = entry.attr
        codec = entry.codec_impl
        # Positional layouts carry one element per tuple-list element,
        # tombstones included, so rebuild against the full element order.
        all_tids = list(self._tuples.element_tids())
        wanted = set(all_tids)
        bucket: List[Tuple[int, CellValue]] = []
        for record in self.table.scan():
            if record.tid not in wanted:
                continue
            value = record.cells.get(attr_id)
            if value is None:
                continue
            matches = is_text_value(value) if attr.is_text else is_numeric_value(value)
            if matches:
                bucket.append((record.tid, value))
        bucket.sort(key=lambda pair: pair[0])

        from repro.obs import get_tracer

        with get_tracer().span(
            "codec.encode", codec=codec.name, phase="repair", attr=attr.name
        ):
            if attr.is_text:
                scheme = SignatureScheme(entry.alpha, entry.n)
                sizes = codec.text_sizes(scheme, bucket, all_tids)
                list_type = sizes.best()
                payload = codec.build_text(list_type, scheme, bucket, all_tids)
                new_entry = AttributeEntry(
                    attr=attr,
                    list_type=list_type,
                    alpha=entry.alpha,
                    n=entry.n,
                    df=len(bucket),
                    str_count=sum(len(strings) for _, strings in bucket),
                    list_size=len(payload),
                    codec=codec.name,
                    last_key=_list_last_key(list_type, bucket, all_tids),
                    _scheme=scheme,
                )
            else:
                vector_bytes = vector_bytes_for_alpha(entry.alpha)
                sizes = codec.numeric_sizes(vector_bytes, bucket, all_tids)
                list_type = sizes.best()
                if bucket:
                    lo = min(value for _, value in bucket)
                    hi = max(value for _, value in bucket)
                else:
                    lo = hi = None
                quantizer = NumericQuantizer.from_domain(
                    lo, hi, entry.alpha, reserve_ndf=list_type is ListType.TYPE_IV
                )
                payload = codec.build_numeric(
                    list_type, quantizer, bucket, all_tids
                )
                new_entry = AttributeEntry(
                    attr=attr,
                    list_type=list_type,
                    alpha=entry.alpha,
                    n=entry.n,
                    df=len(bucket),
                    lo=lo,
                    hi=hi,
                    vector_bytes=vector_bytes,
                    list_size=len(payload),
                    codec=codec.name,
                    last_key=_list_last_key(list_type, bucket, all_tids),
                    _quantizer=quantizer,
                )
        file_name = self.vector_file(attr_id)
        self.disk.create(file_name, overwrite=True)
        if payload:
            self.disk.append(file_name, payload)
        self._entries[attr_id] = new_entry
        self._rewrite_attr_element(attr_id)
        self._refresh_skip_table(new_entry, bucket, all_tids)
        if self._sync_active:
            self._sync_offsets[attr_id] = self._entry_resume_points(
                new_entry, bucket, all_tids, self._sync_positions
            )
        logger.info(
            "rebuilt vector list %r from the base table (%d defined tuples)",
            file_name,
            len(bucket),
        )

    def delete(self, tid: int) -> None:
        """Tombstone a tuple: rewrite its tuple-list ptr (Sec. IV-B).

        Vector lists and the table file are untouched; scanning skips the
        tuple while positional alignment is preserved.
        """
        self._version += 1
        self._tuples.mark_deleted(tid)

    def _register_new_attributes(self) -> None:
        for attr in self.table.catalog:
            if attr.attr_id < len(self._entries):
                continue
            file_name = self.vector_file(attr.attr_id)
            if not self.disk.exists(file_name):
                self.disk.create(file_name)
            alpha = self.config.alpha_for(attr.name)
            entry = AttributeEntry(
                attr=attr,
                list_type=ListType.TYPE_I,
                alpha=alpha,
                n=self.config.n,
                vector_bytes=0 if attr.is_text else vector_bytes_for_alpha(alpha),
                codec=self.config.codec,
            )
            if attr.is_numeric:
                stats = self.table.stats.per_attribute.get(attr.attr_id)
                if stats is not None:
                    entry.lo = stats.min_value
                    entry.hi = stats.max_value
            self._entries.append(entry)
            self.disk.append(self.attrs_file, entry.pack())
            if self._sync_active:
                # The list was empty at every earlier sync point.
                self._sync_offsets[attr.attr_id] = [
                    ResumePoint(position=pos) for pos in self._sync_positions
                ]

    def _rewrite_attr_element(self, attr_id: int) -> None:
        offset = attr_id * _ATTR_ELEMENT.size
        self.disk.write(self.attrs_file, offset, self._entries[attr_id].pack())

    # -------------------------------------------------------------- queries

    def open_scan(
        self, attr_ids: Sequence[int], end_element: Optional[int] = None
    ) -> "IVAScan":
        """Open a synchronized partial scan over the given attributes.

        *end_element* bounds the scan to the first ``end_element``
        tuple-list elements — the serving tier's snapshot watermark, so a
        reader pinned to a committed element count never observes appends
        that landed after its snapshot was taken.  ``None`` scans
        everything (and the bound is snapped at construction, so elements
        appended mid-scan are excluded either way).
        """
        return IVAScan(self, attr_ids, end_element=end_element)

    def read_attr_elements(self, attr_ids: Sequence[int]) -> None:
        """Charge the attribute-list reads of Algorithm 1 (lines 2–3).

        Fetches ptr1/metadata for each related attribute; shared by the
        sequential scan and the parallel executor so both pay the same
        per-query setup cost.
        """
        for attr_id in attr_ids:
            offset = attr_id * _ATTR_ELEMENT.size
            if offset + _ATTR_ELEMENT.size <= self.disk.size(self.attrs_file):
                self.disk.read(self.attrs_file, offset, _ATTR_ELEMENT.size)

    def make_scanner(
        self, attr_id: int, start: Union[int, ResumePoint] = 0
    ) -> VectorListScanner:
        """A fresh scanning pointer over one attribute's list.

        *start* is a :class:`~repro.core.scan.ResumePoint` — normally the
        list head, or a point recorded by
        :meth:`~repro.core.scan.VectorListScanner.checkpoint` / the sync
        directory when resuming a scan mid-list (shard workers in
        ``repro.parallel``).  A bare ``int`` byte offset is accepted for
        back-compatibility; delta-coded lists need the full resume point.
        """
        resume = ResumePoint(offset=start) if isinstance(start, int) else start
        entry = self.entry(attr_id)
        if entry is None:
            return _NullScanner()
        codec = entry.codec_impl
        reader = BufferedReader(self.disk, self.vector_file(attr_id), resume.offset)
        skip = self._skip_tables.get(attr_id)
        if entry.attr.is_text:
            return codec.text_scanner(
                entry.list_type, reader, entry.scheme, resume, skip=skip
            )
        return codec.numeric_scanner(
            entry.list_type, reader, entry.quantizer, resume, skip=skip
        )


class IVAScan:
    """One query's synchronized scan state (Sec. IV-A).

    Iterating yields ``(tid, ptr)`` tuple-list elements in order;
    ``ptr == DELETED_PTR`` flags tombstones (the caller must still have
    driven every scanner for that element — :meth:`payloads` does).
    """

    def __init__(
        self,
        index: IVAFile,
        attr_ids: Sequence[int],
        end_element: Optional[int] = None,
    ) -> None:
        self.index = index
        # Reading the attribute-list elements of the queried attributes
        # (line 2-3 of Algorithm 1: fetch ptr1 for each related attribute).
        index.read_attr_elements(attr_ids)
        self.attr_ids = tuple(attr_ids)
        self.scanners = [index.make_scanner(attr_id) for attr_id in attr_ids]
        # Snapshot the scan bound at construction: elements appended after
        # this point are invisible to this scan even without an explicit
        # watermark.
        count = index._tuples.element_count
        self.end_element = count if end_element is None else min(end_element, count)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return self.index._tuples.scan_range(0, self.end_element)

    def payloads(self, tid: int) -> List[object]:
        """Drive every scanner to *tid*; aligned with ``attr_ids``."""
        return [scanner.move_to(tid) for scanner in self.scanners]

    def blocks(self, block_elements: int):
        """Yield ``(tids, ptrs)`` tuple-list columns, one block at a time."""
        return self.index._tuples.scan_range_blocks(
            0, self.end_element, block_elements
        )

    def segment_blocks(self, tids: Sequence[int]) -> List[object]:
        """Drive every scanner through one block, columnar (v3 kernel).

        One :mod:`repro.core.segment` object per attribute, aligned with
        ``attr_ids``.  A scan must use either this or the scalar entry
        points, never both — segment decoders may hold read-ahead state.
        """
        return [scanner.decode_segment(tids) for scanner in self.scanners]
