"""Scatter/gather top-k over horizontally partitioned iVA-files.

Each partition is a complete single-node stack — simulated disk, sparse
wide table, iVA-file — and all partitions share one attribute catalog so
attribute ids (and therefore queries) mean the same thing everywhere.
Inserts route round-robin (the paper's community workload is append-heavy
and uniform routing keeps partitions balanced); a global id encodes
``(partition, local tid)``.

A query runs Algorithm 1 independently on every partition with the same
``k`` and merges the per-partition pools.  Correctness is immediate: the
global top-k is a subset of the union of per-partition top-k's.  The
partitions are searched one after another in this process, but modeled
latency is the slowest partition (on a cluster they run side by side);
modeled work is the sum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Union

from repro.core.engine import IVAEngine, SearchReport, validate_fail_mode
from repro.core.iva_file import IVAConfig, IVAFile
from repro.errors import QueryError, StorageError
from repro.metrics.distance import DistanceFunction
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.query import Query
from repro.storage.catalog import Catalog
from repro.storage import (
    DiskParameters,
    SparseWideTable,
    StorageBackend,
    simulated_backend,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GlobalResult:
    """One answer tuple addressed globally."""

    partition: int
    tid: int
    distance: float

    @property
    def global_id(self) -> str:
        """Stable textual address: ``p<partition>:<tid>``."""
        return f"p{self.partition}:{self.tid}"


@dataclass
class PartitionedSearchReport:
    """Merged answer plus the per-partition cost summary."""

    results: List[GlobalResult] = field(default_factory=list)
    per_partition: List[SearchReport] = field(default_factory=list)

    @property
    def elapsed_ms(self) -> float:
        """Modeled latency: the slowest partition (they run side by side)."""
        if not self.per_partition:
            return 0.0
        return max(r.query_time_ms for r in self.per_partition)

    @property
    def total_work_ms(self) -> float:
        """Modeled aggregate machine time across partitions."""
        return sum(r.query_time_ms for r in self.per_partition)

    @property
    def table_accesses(self) -> int:
        """Random table-file accesses across partitions."""
        return sum(r.table_accesses for r in self.per_partition)

    @property
    def tuples_scanned(self) -> int:
        """Tuples filtered across partitions."""
        return sum(r.tuples_scanned for r in self.per_partition)

    @property
    def degraded(self) -> bool:
        """True when any partition's local answer is incomplete."""
        return any(r.degraded for r in self.per_partition)

    @property
    def degraded_partitions(self) -> List[int]:
        """Partitions whose local answer is incomplete."""
        return [p for p, r in enumerate(self.per_partition) if r.degraded]


class PartitionedSystem:
    """A horizontally partitioned sparse wide table with per-partition iVA-files."""

    def __init__(
        self,
        num_partitions: int,
        disk_params: Optional[DiskParameters] = None,
        iva_config: Optional[IVAConfig] = None,
        distance: Optional[DistanceFunction] = None,
        registry: Optional[MetricsRegistry] = None,
        fail_mode: str = "raise",
    ) -> None:
        if num_partitions < 1:
            raise QueryError("need at least one partition")
        self.registry = registry
        self.catalog = Catalog()
        self.distance = distance or DistanceFunction()
        self._iva_config = iva_config or IVAConfig()
        #: Scan-failure policy handed to every partition engine; with
        #: ``"degrade"`` a partition whose scan fails flags its local
        #: report and :attr:`PartitionedSearchReport.degraded` goes true.
        self.fail_mode = validate_fail_mode(fail_mode)
        self.disks: List[StorageBackend] = []
        self.tables: List[SparseWideTable] = []
        self.indexes: List[Optional[IVAFile]] = []
        self._engines: List[Optional[IVAEngine]] = []
        for _ in range(num_partitions):
            disk = simulated_backend(disk_params)
            self.disks.append(disk)
            self.tables.append(SparseWideTable(disk, catalog=self.catalog))
            self.indexes.append(None)
            self._engines.append(None)
        self._next_route = 0

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the system."""
        return len(self.tables)

    def __len__(self) -> int:
        return sum(len(table) for table in self.tables)

    # --------------------------------------------------------------- loading

    def insert(self, values: Mapping[str, object]) -> GlobalResult:
        """Round-robin insert; returns the tuple's global address."""
        partition = self._next_route % self.num_partitions
        self._next_route += 1
        table = self.tables[partition]
        cells = table.prepare_cells(values)
        tid = table.insert_record(cells)
        index = self.indexes[partition]
        if index is not None:
            index.insert(tid, cells)
        return GlobalResult(partition=partition, tid=tid, distance=0.0)

    def delete(self, partition: int, tid: int) -> None:
        """Tombstone the tuple with this tid."""
        self._check_partition(partition)
        self.tables[partition].delete(tid)
        index = self.indexes[partition]
        if index is not None:
            index.delete(tid)

    def build_indexes(self) -> None:
        """(Re)build every partition's iVA-file; call after bulk loading."""
        for partition, table in enumerate(self.tables):
            self.indexes[partition] = IVAFile.build(table, self._iva_config)
            self._engines[partition] = None

    def _engine(self, partition: int, dist: DistanceFunction) -> IVAEngine:
        """The partition's cached engine, rebuilt when the index or
        distance changed."""
        engine = self._engines[partition]
        index = self.indexes[partition]
        if engine is None or engine.index is not index or engine.distance is not dist:
            engine = IVAEngine(
                self.tables[partition],
                index,
                dist,
                fail_mode=self.fail_mode,
            )
            self._engines[partition] = engine
        return engine

    def rebuild(self) -> None:
        """Periodic cleaning (Sec. IV-B) on every partition."""
        for partition, table in enumerate(self.tables):
            table.rebuild()
            index = self.indexes[partition]
            if index is not None:
                index.rebuild()

    def total_index_bytes(self) -> int:
        """Combined index bytes across all partitions."""
        return sum(
            index.total_bytes() for index in self.indexes if index is not None
        )

    def total_table_bytes(self) -> int:
        """Combined table-file bytes across all partitions."""
        return sum(table.file_bytes for table in self.tables)

    # --------------------------------------------------------------- queries

    def search(
        self,
        query: Union[Query, Mapping[str, object]],
        k: int = 10,
        distance: Optional[DistanceFunction] = None,
    ) -> PartitionedSearchReport:
        """Scatter the query to every partition and merge the top-k."""
        if isinstance(query, Mapping):
            query = Query.from_dict(self.catalog, query)
        elif not isinstance(query, Query):
            raise QueryError(f"cannot interpret {query!r} as a query")
        dist = distance or self.distance
        report = PartitionedSearchReport()
        merged: List[GlobalResult] = []
        for partition, table in enumerate(self.tables):
            index = self.indexes[partition]
            if index is None:
                raise StorageError(
                    f"partition {partition} has no index; call build_indexes()"
                )
            local = self._engine(partition, dist).search(query, k=k)
            report.per_partition.append(local)
            merged.extend(
                GlobalResult(partition=partition, tid=r.tid, distance=r.distance)
                for r in local.results
            )
        merged.sort(key=lambda r: (r.distance, r.partition, r.tid))
        report.results = merged[:k]
        self._observe(report)
        return report

    def _observe(self, report: PartitionedSearchReport) -> None:
        """Per-partition rollups: where in the fleet does query time go?"""
        registry = self.registry if self.registry is not None else get_registry()
        for partition, local in enumerate(report.per_partition):
            labels = {"partition": str(partition)}
            registry.histogram(
                "repro_partition_query_time_ms",
                labels=labels,
                help="Modeled per-partition query time (straggler detection).",
            ).observe(local.query_time_ms)
            registry.counter(
                "repro_partition_table_accesses_total",
                labels=labels,
                help="Random table-file accesses per partition.",
            ).inc(local.table_accesses)
        registry.histogram(
            "repro_scatter_gather_ms",
            help="Modeled scatter/gather latency (slowest partition).",
        ).observe(report.elapsed_ms)
        logger.debug(
            "scatter/gather over %d partition(s): %.1f ms latency, %.1f ms work",
            len(report.per_partition),
            report.elapsed_ms,
            report.total_work_ms,
        )

    def read(self, partition: int, tid: int):
        """Read one tuple by address."""
        self._check_partition(partition)
        return self.tables[partition].read(tid)

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.num_partitions:
            raise QueryError(f"no partition {partition}")
