"""Execution engine: the limited physical-operator vocabulary and the
distributed executor that runs it over the simulated cluster.

Implements Section 3.3's execution story: few physical operators, data
reduced at data nodes, joined/sorted/aggregated on grid work crews,
updated consistently through cluster nodes — with every step charged to
node timelines and the network so experiments measure makespans and
bytes on the wire.

The operator vocabulary is vectorized: :class:`ColumnBatch` (struct-of-
arrays) streams are the hot-path currency; the dict-row operators serve
view maintenance and the grid-side stages (see docs/EXECUTION.md).
"""

from repro.exec.batch import (
    DEFAULT_BATCH_SIZE,
    MISSING,
    ColumnBatch,
    batches_from_columns,
    batches_from_rows,
    rows_from_batches,
)
from repro.exec.operators import (
    AggSpec,
    AggregationTypeError,
    OperatorStats,
    Row,
    group_aggregate,
    hash_join_batches,
    merge_joined_row,
    merge_partial_aggregates,
    partial_aggregate,
    sort_batches,
    sort_rows,
)
from repro.exec.parallel import (
    BatchPartitions,
    ExecReport,
    ParallelExecutor,
    Partitions,
    StageTiming,
)
from repro.exec.discovery_flow import (
    DistributedDiscoveryResult,
    run_distributed_discovery,
)
from repro.exec import costs

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "MISSING",
    "ColumnBatch",
    "batches_from_columns",
    "batches_from_rows",
    "rows_from_batches",
    "hash_join_batches",
    "merge_joined_row",
    "sort_batches",
    "BatchPartitions",
    "AggSpec",
    "AggregationTypeError",
    "OperatorStats",
    "Row",
    "group_aggregate",
    "merge_partial_aggregates",
    "partial_aggregate",
    "sort_rows",
    "ExecReport",
    "ParallelExecutor",
    "Partitions",
    "StageTiming",
    "costs",
    "DistributedDiscoveryResult",
    "run_distributed_discovery",
]
