"""Autonomic storage management (Section 3.4).

"Storage management is the task of determining how and where to store
the system's data, including how much to replicate the data for
reliability. ... Our goal is for Impliance to tune all these resources
autonomically."

The storage manager binds the replica machinery to segment contents: it
watches segments seal, classifies them by the most demanding document
kind they hold, places replicas, and reacts to node failures — counting
its own (machine) actions so TCO accounting can contrast them with the
knob-turning a manual stack requires.

Placement is bookkeeping: it is what the appliance's degradation signal
(``Impliance.missing_segments``, ``health()["under_replicated"]``) reads.
The bytes that survive a failure are the standby log's
(:mod:`repro.storage.recovery`, docs/RECOVERY.md), not segment copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.storage.replication import (
    ReliabilityClass,
    RepairAction,
    ReplicaManager,
    class_for_kind,
)
from repro.storage.store import DocumentStore


@dataclass
class StorageManagerStats:
    segments_placed: int = 0
    repairs: int = 0
    failures_handled: int = 0
    autonomic_actions: int = 0
    admin_actions: int = 0  # stays zero: that is the point


class StorageManager:
    """Policy loop binding a store's segments to replica placement."""

    def __init__(
        self,
        store: DocumentStore,
        replica_manager: ReplicaManager,
        telemetry=None,
        compressor=None,
    ) -> None:
        self.store = store
        self.replicas = replica_manager
        self.telemetry = telemetry
        #: Optional cold-path compressor (storage pushdown, Section 3.1):
        #: sealed segments are compressed, and the stage's byte counters
        #: flow onto the shared metrics (``storage.compress.*``) when the
        #: compressor carries a telemetry attachment.
        self.compressor = compressor
        self.stats = StorageManagerStats()
        self._segment_class: Dict[int, ReliabilityClass] = {}
        store.seal_listeners.append(self.on_segment_sealed)

    # ------------------------------------------------------------------
    def classify_segment(self, segment_id: int) -> ReliabilityClass:
        """A segment inherits the most demanding class of its documents.

        User base data forces GOLD even if the segment mostly holds
        derived data — reliability follows the hardest-to-recreate byte.
        """
        best = ReliabilityClass.BRONZE
        order = [ReliabilityClass.BRONZE, ReliabilityClass.SILVER, ReliabilityClass.GOLD]
        for document in self.store.segment(segment_id).documents():
            candidate = class_for_kind(document.kind)
            if order.index(candidate) > order.index(best):
                best = candidate
            if best is ReliabilityClass.GOLD:
                break
        return best

    def on_segment_sealed(self, segment_id: int) -> None:
        """Placement hook: sealed segments get replicated by class."""
        reliability = self.classify_segment(segment_id)
        self._segment_class[segment_id] = reliability
        if self.compressor is not None:
            for document in self.store.segment(segment_id).documents():
                self.compressor.compress_document(document)
        self.replicas.place(segment_id, reliability)
        self.stats.segments_placed += 1
        self.stats.autonomic_actions += 1
        if self.telemetry is not None:
            self.telemetry.inc("storage.segments_placed")
            self.telemetry.inc("storage.autonomic_actions")

    def place_open_segments(self) -> int:
        """Place any segments not yet sealed (e.g. at snapshot time)."""
        placed = 0
        for segment_id in self.store.segment_ids():
            if segment_id in self._segment_class:
                continue
            self.on_segment_sealed(segment_id)
            placed += 1
        return placed

    # ------------------------------------------------------------------
    def on_node_failure(self, node_id: str) -> List[RepairAction]:
        """React to a failure: re-replicate everything the node held."""
        actions = self.replicas.on_node_failure(node_id)
        self.stats.failures_handled += 1
        self.stats.repairs += len(actions)
        self.stats.autonomic_actions += 1 + len(actions)
        if self.telemetry is not None:
            self.telemetry.inc("storage.failures_handled")
            self.telemetry.inc("storage.repairs", len(actions))
            self.telemetry.inc("storage.autonomic_actions", 1 + len(actions))
        return actions

    def on_node_added(self, node_id: str) -> List[RepairAction]:
        """New capacity arrived; repair any outstanding deficits."""
        self.replicas.add_node(node_id)
        actions = self.replicas.repair_deficits()
        self.stats.repairs += len(actions)
        self.stats.autonomic_actions += 1 + len(actions)
        if self.telemetry is not None:
            self.telemetry.inc("storage.repairs", len(actions))
            self.telemetry.inc("storage.autonomic_actions", 1 + len(actions))
        return actions

    def on_replica_corrupted(self, segment_id: int, node_id: str) -> List[RepairAction]:
        """A replica copy went bad (chaos corruption fault): drop it and
        re-replicate from a surviving copy, autonomically."""
        actions = self.replicas.invalidate_replica(segment_id, node_id)
        self.stats.repairs += len(actions)
        self.stats.autonomic_actions += 1 + len(actions)
        if self.telemetry is not None:
            self.telemetry.inc("storage.corruptions_handled")
            self.telemetry.inc("storage.repairs", len(actions))
            self.telemetry.inc("storage.autonomic_actions", 1 + len(actions))
        return actions

    def repair_outstanding(self) -> List[RepairAction]:
        """Repair every under-replicated segment with current capacity
        (the chaos controller's settle pass)."""
        actions = self.replicas.repair_deficits()
        if actions:
            self.stats.repairs += len(actions)
            self.stats.autonomic_actions += len(actions)
            if self.telemetry is not None:
                self.telemetry.inc("storage.repairs", len(actions))
                self.telemetry.inc("storage.autonomic_actions", len(actions))
        return actions

    # ------------------------------------------------------------------
    def adopt_store(self, store: DocumentStore, replica_manager: ReplicaManager) -> None:
        """Rebind to the fresh store of a readmitted node.

        The fresh store allocates segment ids from zero, so the segment
        classes keyed by the old ids are dropped, and *replica_manager*
        replaces the old placements wholesale.
        """
        self.store.seal_listeners.remove(self.on_segment_sealed)
        self.store = store
        self.replicas = replica_manager
        self._segment_class.clear()
        store.seal_listeners.append(self.on_segment_sealed)

    # ------------------------------------------------------------------
    def service_report(self) -> Dict[str, object]:
        """Current storage service level, for the health dashboard."""
        under = self.replicas.under_replicated()
        return {
            "segments_placed": self.stats.segments_placed,
            "under_replicated": [r.segment_id for r in under],
            "fully_replicated": len(self.replicas.placements()) - len(under),
            "admin_actions": self.stats.admin_actions,
            "autonomic_actions": self.stats.autonomic_actions,
        }

    def data_loss_risk(self) -> List[int]:
        """Segments with zero live replicas (data unavailable)."""
        return [
            r.segment_id
            for r in self.replicas.placements()
            if not self.replicas.data_available(r.segment_id)
        ]
