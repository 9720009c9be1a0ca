"""Appliance configuration: the few knobs that exist.

An appliance ships "operational out of the box" (Section 3.1); the
default configuration is the product.  Everything here has a sensible
default, and nothing here requires ongoing administration — the knobs
configure the simulation's scale, not the system's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.cache.config import CacheConfig
from repro.cluster.network import DEFAULT_BANDWIDTH_BYTES_PER_MS, DEFAULT_LATENCY_MS
from repro.ingest.config import IngestConfig
from repro.query.adaptive import AdaptiveConfig
from repro.storage.recovery import RecoveryConfig
from repro.util import validate_positive


@dataclass(frozen=True)
class ApplianceConfig:
    """Scale and workload hints for one Impliance instance."""

    #: Node counts per flavor (Figure 3 topology).
    n_data_nodes: int = 4
    n_grid_nodes: int = 2
    n_cluster_nodes: int = 1
    #: Buffer-pool frames per data node.
    buffer_capacity: int = 256
    #: Interconnect model.
    network_latency_ms: float = DEFAULT_LATENCY_MS
    network_bandwidth: float = DEFAULT_BANDWIDTH_BYTES_PER_MS
    #: Background work's protected share of scheduling quanta.
    background_share: float = 0.25
    #: Observability: when True the appliance records metrics and traces
    #: (``Impliance.telemetry`` / ``Impliance.stats()``).  When False the
    #: telemetry layer is a guaranteed no-op on every hot path.
    telemetry: bool = True
    #: Rows per ColumnBatch in query execution (docs/EXECUTION.md).
    batch_size: int = 1024
    #: Cache hierarchy: per-tier size caps and the off switch
    #: (``CacheConfig(enabled=False)`` makes every tier a no-op).
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Batched write path: group-commit batch size, staging-queue bound,
    #: and the admission policy when the queue is full (docs/INGEST.md).
    ingest: IngestConfig = field(default_factory=IngestConfig)
    #: Continuous replication and failover: the standby snapshot cadence
    #: (docs/RECOVERY.md).
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    #: Mid-query re-optimization: divergence threshold, replan budget,
    #: and the off switch (docs/ADAPTIVE.md).
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    #: Domain lexicons for the out-of-the-box annotator suite; empty
    #: tuples simply disable the corresponding lexicon annotator.
    product_lexicon: Tuple[str, ...] = ()
    location_lexicon: Tuple[str, ...] = ()
    procedure_lexicon: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_data_nodes < 1:
            raise ValueError("need at least one data node")
        if self.n_cluster_nodes < 1:
            raise ValueError("need at least one cluster node")
        validate_positive(
            "ApplianceConfig",
            buffer_capacity=self.buffer_capacity,
            batch_size=self.batch_size,
        )
        object.__setattr__(self, "product_lexicon", tuple(self.product_lexicon))
        object.__setattr__(self, "location_lexicon", tuple(self.location_lexicon))
        object.__setattr__(self, "procedure_lexicon", tuple(self.procedure_lexicon))
