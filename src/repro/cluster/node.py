"""Simulated nodes: the three topological flavors of Figure 3.

"Each Impliance instance consists of a number of nodes, topologically
differentiated into three flavors, each optimized for a particular style
of computation ... but each supporting the same execution environment."

A node is a cost-accounting execution resource: work is charged in
simulated milliseconds against a per-node timeline (``available_at``), so
a set of nodes executing in parallel yields a makespan.  Data nodes also
own a document store and its indexes; cluster nodes carry consistency-
group state; grid nodes are stateless compute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.index.manager import IndexManager
from repro.storage.bus import InvalidationBus
from repro.storage.store import DocumentStore
from repro.util import LogicalClock


class NodeKind(enum.Enum):
    """The three node flavors and the computation style each optimizes."""

    DATA = "data"        # owns storage; best at local scans/search
    GRID = "grid"        # stateless analytics; lowest cost per cycle
    CLUSTER = "cluster"  # consistent locking/caching for small updates

    @property
    def default_speed(self) -> float:
        """Relative CPU speed factor (>1 is faster).

        Grid nodes "have the lowest cost per cycle" (Section 3.3): for a
        fixed budget the appliance packs more compute into them, modeled
        as a higher speed factor for pure computation.  Data nodes are
        "sized to balance computing capability and I/O bandwidth".
        """
        return {"data": 1.0, "grid": 1.5, "cluster": 1.0}[self.value]


#: Relative efficiency of running an operator class on each node kind.
#: 1.0 = native; lower = the flavor is a poor host for that work.
#: Encodes Section 3.3's "the scheduler assigns operators to compute
#: nodes based on which operators execute more efficiently ... on a
#: particular node type".
OPERATOR_AFFINITY: Dict[str, Dict[NodeKind, float]] = {
    "scan": {NodeKind.DATA: 1.0, NodeKind.GRID: 0.4, NodeKind.CLUSTER: 0.5},
    "search": {NodeKind.DATA: 1.0, NodeKind.GRID: 0.4, NodeKind.CLUSTER: 0.5},
    "filter": {NodeKind.DATA: 1.0, NodeKind.GRID: 1.0, NodeKind.CLUSTER: 0.8},
    "join": {NodeKind.DATA: 0.6, NodeKind.GRID: 1.0, NodeKind.CLUSTER: 0.6},
    "sort": {NodeKind.DATA: 0.6, NodeKind.GRID: 1.0, NodeKind.CLUSTER: 0.6},
    "aggregate": {NodeKind.DATA: 0.7, NodeKind.GRID: 1.0, NodeKind.CLUSTER: 0.6},
    "annotate": {NodeKind.DATA: 0.9, NodeKind.GRID: 1.0, NodeKind.CLUSTER: 0.5},
    "update": {NodeKind.DATA: 0.5, NodeKind.GRID: 0.3, NodeKind.CLUSTER: 1.0},
    "lock": {NodeKind.DATA: 0.4, NodeKind.GRID: 0.2, NodeKind.CLUSTER: 1.0},
}


@dataclass
class WorkRecord:
    """One unit of charged work, for the node's execution log."""

    label: str
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class SimNode:
    """One simulated node with a work timeline.

    ``run(cost_ms, after)`` charges *cost_ms* of nominal work scaled by
    the node's speed, starting no earlier than *after* and no earlier
    than the node's previous work finished.  The return value is the
    finish time — callers chain these to build dataflow schedules.
    """

    def __init__(
        self,
        node_id: str,
        kind: NodeKind,
        speed: Optional[float] = None,
        store_clock: Optional[LogicalClock] = None,
        buffer_capacity: int = 256,
        feed: Optional[InvalidationBus] = None,
    ) -> None:
        if speed is not None and speed <= 0:
            raise ValueError("speed must be positive")
        self.node_id = node_id
        self.kind = kind
        self.speed = speed if speed is not None else kind.default_speed
        self._base_speed = self.speed
        self.available_at = 0.0
        self.busy_ms = 0.0
        self.log: List[WorkRecord] = []
        self.alive = True
        # Telemetry hook: None (the default) keeps run() at zero
        # observability overhead; the cluster attaches an enabled
        # Telemetry here (see ImplianceCluster.attach_telemetry).
        self.telemetry = None
        # Data nodes own a store + local indexes; others have none.  The
        # store publishes its commits on *feed* under this node's id; the
        # cluster keeps the local indexes current from that feed.
        self.store: Optional[DocumentStore] = None
        self.indexes: Optional[IndexManager] = None
        if kind is NodeKind.DATA:
            self.store = DocumentStore(
                clock=store_clock, buffer_capacity=buffer_capacity, feed=feed,
                node_id=node_id,
            )
            self.indexes = IndexManager()

    # ------------------------------------------------------------------
    def efficiency(self, operator: str) -> float:
        """Effective speed of this node for *operator*."""
        affinity = OPERATOR_AFFINITY.get(operator, {}).get(self.kind, 1.0)
        return self.speed * affinity

    def run(self, cost_ms: float, after: float = 0.0, label: str = "work",
            operator: Optional[str] = None) -> float:
        """Charge work to this node's timeline; return the finish time."""
        if not self.alive:
            raise RuntimeError(f"node {self.node_id} is dead")
        if cost_ms < 0:
            raise ValueError("work cost cannot be negative")
        rate = self.efficiency(operator) if operator else self.speed
        start = max(self.available_at, after)
        duration = cost_ms / rate
        end = start + duration
        self.available_at = end
        self.busy_ms += duration
        self.log.append(WorkRecord(label, start, end))
        if self.telemetry is not None:
            self.telemetry.on_node_work(
                self.node_id, self.kind.value, operator or label, duration
            )
        return end

    def estimate(self, cost_ms: float, operator: Optional[str] = None) -> float:
        """Duration this node would take for *cost_ms*, without charging."""
        rate = self.efficiency(operator) if operator else self.speed
        return cost_ms / rate

    def reset_timeline(self) -> None:
        """Clear charged work (between benchmark repetitions)."""
        self.available_at = 0.0
        self.busy_ms = 0.0
        self.log.clear()

    def fail(self) -> None:
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    # ------------------------------------------------------------------
    # chaos hooks: degraded ("slow") nodes
    # ------------------------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Run at *factor* of base speed (a slow/overheating node)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.speed = self._base_speed * factor

    def restore_speed(self) -> None:
        self.speed = self._base_speed

    @property
    def degraded(self) -> bool:
        return self.speed < self._base_speed

    @property
    def slowdown(self) -> float:
        """How much slower than base this node runs (1.0 = healthy)."""
        if self.speed <= 0.0:
            return float("inf")
        return self._base_speed / self.speed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimNode({self.node_id}, {self.kind.value}, speed={self.speed})"
