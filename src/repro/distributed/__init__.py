"""Horizontally partitioned iVA-files (the paper's closing remark).

"Further, being a non-hierarchical index, the iVA-file is suitable for
indexing horizontally or vertically partitioned datasets in a distributed
and parallel system architecture which is widely adopted for implementing
the community systems." (Sec. VI.)

:class:`~repro.distributed.partitioned.PartitionedSystem` realises the
horizontal variant: tuples are spread over independent partitions (each
with its own simulated disk, table file and iVA-file), queries scatter to
every partition's engine and the per-partition top-k answers merge into a
global top-k — exact, because each partition's answer is exact.
"""

from repro.distributed.partitioned import GlobalResult, PartitionedSearchReport, PartitionedSystem

__all__ = [
    "GlobalResult",
    "PartitionedSearchReport",
    "PartitionedSystem",
]
