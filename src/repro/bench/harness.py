"""The evaluation environment and query-set protocol of Sec. V.

Scale: the paper runs 779,019 Google Base tuples (355.7 MB table file) on a
2009 PC (a ~60 MB/s, ~8 ms-seek drive) with a 10 MB file cache.  A
pure-Python reproduction keeps the same *ratios* at roughly 1/40 scale:

* 20,000 synthetic tuples (~6 MB table) against a 96 KB cache — the table
  is ≈ 35× the cache in both setups;
* a simulated drive scaled with the data: 1.5 MB/s transfer (so one full
  table sweep costs seconds, as the paper's 355 MB / 60 MB/s does) and a
  2 ms seek, preserving the seek-vs-sweep balance that makes selective
  random access worthwhile at all.

Reported "times" are modeled I/O milliseconds plus measured CPU; counters
(table-file accesses, bytes, seeks) are exact.

The query protocol follows Sec. V-A: fixed-arity query sets sampled from
the data distribution, the first queries warming the cache and the rest
measured.  The paper uses 50/10; the default here is 20/5 to keep a full
bench run in minutes — override with ``REPRO_BENCH_QUERIES`` /
``REPRO_BENCH_WARMUP`` (and ``REPRO_BENCH_TUPLES`` for the dataset size).
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import mean, population_stddev
from repro.baselines.dst import DirectScanEngine
from repro.baselines.sii import SIIEngine, SparseInvertedIndex
from repro.core.engine import IVAEngine, SearchReport
from repro.core.iva_file import IVAConfig, IVAFile
from repro.data.generator import DatasetConfig, DatasetGenerator
from repro.data.workload import QuerySet, WorkloadGenerator
from repro.metrics.distance import DistanceFunction
from repro.metrics.weights import equal_weights, itf_weights
from repro.query import Query
from repro.storage import (
    DiskParameters,
    SparseWideTable,
    StorageBackend,
    simulated_backend,
)

logger = logging.getLogger(__name__)


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@dataclass(frozen=True)
class TableIDefaults:
    """The paper's Table I default experiment parameters."""

    values_per_query: int = 3
    k: int = 10
    metric: str = "L2"  # Euclidean
    weights: str = "EQU"
    alpha: float = 0.20
    n: int = 2


DEFAULTS = TableIDefaults()

#: Scaled-down Google-Base-like dataset (see module docstring).
BENCH_DATASET = DatasetConfig(
    num_tuples=_env_int("REPRO_BENCH_TUPLES", 20000),
    num_attributes=300,
    mean_attrs_per_tuple=16.0,
    seed=42,
)

#: Disk model scaled with the dataset (see module docstring).
BENCH_DISK = DiskParameters(
    seek_ms=2.0, transfer_mb_per_s=1.5, cache_bytes=96 * 1024
)

QUERIES_PER_SET = _env_int("REPRO_BENCH_QUERIES", 20)
WARMUP_QUERIES = _env_int("REPRO_BENCH_WARMUP", 5)


@dataclass
class Environment:
    """A built evaluation setup: table + default indices + workload."""

    disk: StorageBackend
    table: SparseWideTable
    iva: IVAFile
    sii: SparseInvertedIndex
    dataset: DatasetConfig
    workload_seed: int = 7
    _query_sets: Dict[int, QuerySet] = field(default_factory=dict)
    _iva_variants: Dict[object, IVAFile] = field(default_factory=dict)
    _cache: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------- engines

    def distance(
        self, metric: Optional[str] = None, weights: Optional[str] = None
    ) -> DistanceFunction:
        """A DistanceFunction for the given metric/weight names."""
        scheme = equal_weights if (weights or DEFAULTS.weights) == "EQU" else itf_weights(self.table)
        return DistanceFunction(metric=metric or DEFAULTS.metric, weights=scheme)

    def iva_engine(
        self,
        index: Optional[IVAFile] = None,
        kernel: str = "scalar",
        **distance_kwargs,
    ) -> IVAEngine:
        """An IVAEngine over this environment's table and index.

        Defaults to ``kernel="scalar"``, the published Algorithm 1, so the
        paper's figures measure it; pass ``kernel="v3"`` for the compiled
        v3 filter kernel (``bench kernel-compare``).
        """
        return IVAEngine(
            self.table,
            index or self.iva,
            self.distance(**distance_kwargs),
            kernel=kernel,
        )

    def sii_engine(self, **distance_kwargs) -> SIIEngine:
        """An SIIEngine over this environment's table and SII."""
        return SIIEngine(self.table, self.sii, self.distance(**distance_kwargs))

    def dst_engine(self, **distance_kwargs) -> DirectScanEngine:
        """A DirectScanEngine over this environment's table."""
        return DirectScanEngine(self.table, self.distance(**distance_kwargs))

    # ------------------------------------------------------------ workload

    def query_set(self, values_per_query: int) -> QuerySet:
        """The (cached) fixed-arity query set for this environment."""
        cached = self._query_sets.get(values_per_query)
        if cached is None:
            workload = WorkloadGenerator(
                self.table, seed=self.workload_seed + values_per_query
            )
            cached = workload.query_set(
                values_per_query, count=QUERIES_PER_SET, warmup_count=WARMUP_QUERIES
            )
            self._query_sets[values_per_query] = cached
        return cached

    def iva_variant(self, alpha: float, n: int, codec: str = "raw") -> IVAFile:
        """A (cached) iVA-file built with non-default parameters."""
        key = (round(alpha, 4), n, codec)
        cached = self._iva_variants.get(key)
        if cached is None:
            if key == (round(DEFAULTS.alpha, 4), DEFAULTS.n, self.iva.config.codec):
                cached = self.iva
            else:
                name = f"iva_a{int(round(alpha * 100))}_n{n}_{codec}"
                cached = IVAFile.build(
                    self.table, IVAConfig(alpha=alpha, n=n, name=name, codec=codec)
                )
            self._iva_variants[key] = cached
        return cached

    def cached(self, key: str, compute: Callable[[], object]) -> object:
        """Session-scoped memoisation for sweeps shared between figures."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def build_environment(
    dataset: Optional[DatasetConfig] = None,
    disk_params: Optional[DiskParameters] = None,
    iva_config: Optional[IVAConfig] = None,
) -> Environment:
    """Generate the dataset and build the default iVA-file and SII."""
    dataset = dataset or BENCH_DATASET
    disk = simulated_backend(disk_params or BENCH_DISK)
    table = SparseWideTable(disk)
    DatasetGenerator(dataset).populate(table)
    iva = IVAFile.build(table, iva_config or IVAConfig(alpha=DEFAULTS.alpha, n=DEFAULTS.n))
    sii = SparseInvertedIndex.build(table)
    disk.publish_metrics(label="bench")
    logger.info(
        "bench environment: %d tuples, %d attributes, %d-byte table file",
        len(table), len(table.catalog), table.file_bytes,
    )
    return Environment(disk=disk, table=table, iva=iva, sii=sii, dataset=dataset)


@dataclass
class QuerySetStats:
    """Aggregates over the measured queries of one set (paper's metrics)."""

    engine: str
    values_per_query: int
    k: int
    reports: List[SearchReport]
    wall_s: float

    @property
    def mean_query_time_ms(self) -> float:
        """Mean modeled per-query time."""
        return mean([r.query_time_ms for r in self.reports])

    @property
    def stddev_query_time_ms(self) -> float:
        """Population stddev of per-query time (Fig. 11)."""
        return population_stddev([r.query_time_ms for r in self.reports])

    @property
    def mean_filter_time_ms(self) -> float:
        """Mean modeled filter-phase time."""
        return mean([r.filter_time_ms for r in self.reports])

    @property
    def mean_refine_time_ms(self) -> float:
        """Mean modeled refine-phase time."""
        return mean([r.refine_time_ms for r in self.reports])

    @property
    def mean_filter_io_ms(self) -> float:
        """Mean filter-phase modeled I/O only (no CPU noise)."""
        return mean([r.filter_io_ms for r in self.reports])

    @property
    def mean_refine_io_ms(self) -> float:
        """Mean refine-phase modeled I/O only (no CPU noise)."""
        return mean([r.refine_io_ms for r in self.reports])

    @property
    def mean_table_accesses(self) -> float:
        """Mean random table-file accesses (Fig. 8)."""
        return mean([r.table_accesses for r in self.reports])

    @property
    def mean_tuples_scanned(self) -> float:
        """Mean tuples filtered per query."""
        return mean([r.tuples_scanned for r in self.reports])


def run_query_set(
    engine,
    query_set: QuerySet,
    k: int = DEFAULTS.k,
    label: Optional[str] = None,
) -> QuerySetStats:
    """Execute one query set with the paper's warm-up protocol."""
    for query in query_set.warmup:
        engine.search(query, k=k)
    started = time.perf_counter()
    reports = [engine.search(query, k=k) for query in query_set.measured]
    wall = time.perf_counter() - started
    logger.debug(
        "%s: %d measured queries in %.2f s wall",
        label or getattr(engine, "name", type(engine).__name__),
        len(reports),
        wall,
    )
    return QuerySetStats(
        engine=label or getattr(engine, "name", type(engine).__name__),
        values_per_query=query_set.values_per_query,
        k=k,
        reports=reports,
        wall_s=wall,
    )


def run_queries(
    engine, queries: Sequence[Query], k: int = DEFAULTS.k
) -> List[SearchReport]:
    """Bare helper: run queries without the warm-up protocol."""
    return [engine.search(query, k=k) for query in queries]
