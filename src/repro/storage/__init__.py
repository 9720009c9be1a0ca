"""Storage substrate: paged segments, buffer pool, versions, replication.

This package is the "software component of a storage unit" from Section
3.1 of the paper: an append-only, versioned document store whose reads all
flow through a buffer pool that accepts *plan hints* from the executor,
with compression/encryption stages that can be pushed down to the storage
side, and a replica manager implementing the reliability classes of
Section 3.4.
"""

from repro.storage.pages import (
    DEFAULT_PAGE_BYTES,
    DEFAULT_SEGMENT_PAGES,
    Page,
    PageAddress,
    Segment,
)
from repro.storage.bufferpool import (
    AccessHint,
    BufferPool,
    BufferPoolStats,
    HintedPrefetcher,
    NoPrefetcher,
    PatternMiningPrefetcher,
)
from repro.storage.versions import VersionChain, VersionConflictError, VersionIndex
from repro.storage.compression import (
    Compressor,
    DictionaryCompressor,
    StageStats,
    XorStreamCipher,
)
from repro.storage.replication import (
    PlacementError,
    ReliabilityClass,
    RepairAction,
    ReplicaManager,
    ReplicaSet,
    class_for_kind,
)
from repro.storage.encoding import (
    ColumnDictionary,
    EncodedColumn,
    rle_decode,
    rle_encode,
)
from repro.storage.columnstore import (
    ColumnPage,
    ColumnSegment,
    ColumnStore,
    DEFAULT_COLUMN_PAGE_ROWS,
    is_columnar_view,
)
from repro.storage.store import DocumentStore, StoreStats
from repro.storage.recovery import (
    ContinuousReplicator,
    RecoveryConfig,
    ReplicatorStats,
    RestoreReport,
    Shipment,
    StandbyLog,
)
from repro.storage.branching import (
    BranchManager,
    BranchRef,
    MergeConflict,
    TRUNK,
    three_way_merge,
)
from repro.storage.lineage import LineageIndex, LineageNode, LineageTrace

__all__ = [
    "DEFAULT_PAGE_BYTES",
    "DEFAULT_SEGMENT_PAGES",
    "Page",
    "PageAddress",
    "Segment",
    "AccessHint",
    "BufferPool",
    "BufferPoolStats",
    "HintedPrefetcher",
    "NoPrefetcher",
    "PatternMiningPrefetcher",
    "VersionChain",
    "VersionConflictError",
    "VersionIndex",
    "Compressor",
    "DictionaryCompressor",
    "StageStats",
    "XorStreamCipher",
    "PlacementError",
    "ReliabilityClass",
    "RepairAction",
    "ReplicaManager",
    "ReplicaSet",
    "class_for_kind",
    "ColumnDictionary",
    "EncodedColumn",
    "rle_decode",
    "rle_encode",
    "ColumnPage",
    "ColumnSegment",
    "ColumnStore",
    "DEFAULT_COLUMN_PAGE_ROWS",
    "is_columnar_view",
    "DocumentStore",
    "StoreStats",
    "ContinuousReplicator",
    "RecoveryConfig",
    "ReplicatorStats",
    "RestoreReport",
    "Shipment",
    "StandbyLog",
    "BranchManager",
    "BranchRef",
    "MergeConflict",
    "TRUNK",
    "three_way_merge",
    "LineageIndex",
    "LineageNode",
    "LineageTrace",
]
