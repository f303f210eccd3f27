"""iVA-File: indexing sparse wide tables for top-k structured similarity search.

A from-scratch reproduction of Li, Hui, Li & Gao, *"iVA-File: Efficiently
Indexing Sparse Wide Tables in Community Systems"* (ICDE 2009), including
the storage substrate (simulated disk + interpreted-format wide table), the
iVA-file itself (nG-signatures, relative-domain numeric vectors, four
vector-list layouts, the parallel filter-and-refine plan), the paper's
baselines (SII, DST, and the VA-file it excludes), and the full evaluation
harness.

Quickstart::

    from repro import (
        SimulatedDisk, SparseWideTable, IVAFile, IVAEngine, DistanceFunction,
    )

    disk = SimulatedDisk()
    table = SparseWideTable(disk)
    table.insert({"Type": "Digital Camera", "Company": "Canon", "Price": 230})
    table.insert({"Type": "Music Album", "Artist": "Michael Jackson"})
    index = IVAFile.build(table)
    engine = IVAEngine(table, index)
    report = engine.search({"Type": "Digital Camera", "Price": 200.0}, k=10)
    for result in report.results:
        print(result.tid, result.distance)
"""

from repro.errors import (
    ChecksumError,
    EncodingError,
    IndexError_,
    QueryError,
    ReproError,
    SchemaError,
    StorageError,
    TransientIOError,
)
from repro.model import NDF, AttributeDef, AttributeType, Record
from repro.storage import (
    Catalog,
    DiskParameters,
    DiskStats,
    HostDisk,
    LRUCache,
    SimulatedDisk,
    SparseWideTable,
    StorageBackend,
    host_backend,
    simulated_backend,
)
from repro.metrics import (
    DistanceFunction,
    L1Metric,
    L2Metric,
    LInfMetric,
    edit_distance,
    equal_weights,
    itf_weights,
    metric_by_name,
)
from repro.query import Query, QueryTerm
from repro.core import (
    IVAConfig,
    IVAEngine,
    IVAFile,
    NumericQuantizer,
    QueryResult,
    QueryStringEncoder,
    ResultPool,
    SearchReport,
    Signature,
    SignatureScheme,
)
from repro.codec import CODEC_NAMES, VectorListCodec, codec_for_code, get_codec
from repro.core.sequential import SequentialPlanEngine
from repro.storage.fsck import (
    Finding,
    check_all,
    check_checksums,
    check_index,
    check_table,
    repair_index,
)
from repro.resilience import (
    ChecksummedBackend,
    FaultInjectingBackend,
    FaultPlan,
    FaultRule,
    ResilientBackend,
    RetryPolicy,
    resilient_stack,
)
from repro.core.range_search import RangeMatch, RangeReport, RangeSearcher
from repro.core.explain import QueryPlan, explain
from repro.distributed import PartitionedSystem
from repro.storage.snapshot import load_disk, save_disk
from repro.baselines import (
    DirectScanEngine,
    SIIEngine,
    SparseInvertedIndex,
    VAFile,
    VAFileEngine,
)
from repro.maintenance import MaintainedSystem, amortized_update_times
from repro.obs import (
    JsonlSpanSink,
    MetricsRegistry,
    SlowQueryLog,
    Span,
    Tracer,
    get_registry,
    get_tracer,
    render_json,
    render_prometheus,
    set_registry,
    set_tracer,
)

__version__ = "0.1.0"

__all__ = [
    "ReproError",
    "SchemaError",
    "StorageError",
    "IndexError_",
    "QueryError",
    "EncodingError",
    "NDF",
    "AttributeDef",
    "AttributeType",
    "Record",
    "CODEC_NAMES",
    "Catalog",
    "DiskParameters",
    "DiskStats",
    "LRUCache",
    "SimulatedDisk",
    "SparseWideTable",
    "StorageBackend",
    "VectorListCodec",
    "codec_for_code",
    "get_codec",
    "host_backend",
    "simulated_backend",
    "DistanceFunction",
    "L1Metric",
    "L2Metric",
    "LInfMetric",
    "edit_distance",
    "equal_weights",
    "itf_weights",
    "metric_by_name",
    "Query",
    "QueryTerm",
    "IVAConfig",
    "IVAEngine",
    "IVAFile",
    "NumericQuantizer",
    "QueryResult",
    "QueryStringEncoder",
    "ResultPool",
    "SearchReport",
    "Signature",
    "SignatureScheme",
    "DirectScanEngine",
    "SIIEngine",
    "SparseInvertedIndex",
    "VAFile",
    "VAFileEngine",
    "MaintainedSystem",
    "amortized_update_times",
    "SequentialPlanEngine",
    "Finding",
    "check_all",
    "check_checksums",
    "check_index",
    "check_table",
    "repair_index",
    "ChecksumError",
    "TransientIOError",
    "ChecksummedBackend",
    "FaultInjectingBackend",
    "FaultPlan",
    "FaultRule",
    "ResilientBackend",
    "RetryPolicy",
    "resilient_stack",
    "HostDisk",
    "RangeMatch",
    "RangeReport",
    "RangeSearcher",
    "QueryPlan",
    "explain",
    "PartitionedSystem",
    "save_disk",
    "load_disk",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "Span",
    "Tracer",
    "JsonlSpanSink",
    "SlowQueryLog",
    "get_tracer",
    "set_tracer",
    "render_prometheus",
    "render_json",
    "__version__",
]
