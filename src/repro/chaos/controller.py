"""The chaos controller: applies a seeded fault plan to a live cluster.

The controller is the bridge between a :class:`~repro.chaos.plan.FaultPlan`
(pure schedule) and the running system (cluster topology, network,
storage managers).  Callers interleave real work with
``controller.advance_to(sim_time)``; every event whose time has come is
applied, every autonomic repair it triggers is counted, and everything
lands in telemetry — so a benchmark can plot query success against
fault rate, and a property test can assert that the same seed produces
the same repair history down to the counter.

Safety guards: the controller never kills the last live data node or
the last live cluster node (a real appliance would refuse to shed its
final copy too); guarded-off events are recorded in ``skipped``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import FaultEvent, FaultKind, FaultPlan
from repro.chaos.retry import RetryPolicy
from repro.cluster.node import NodeKind, SimNode
from repro.cluster.topology import ImplianceCluster
from repro.obs.telemetry import DISABLED
from repro.util import stable_hash


class ChaosController:
    """Applies a fault plan against a cluster (and optional appliance).

    Parameters
    ----------
    cluster:
        The topology faults act on.
    plan:
        The seeded schedule to apply.
    appliance:
        When given, crashes route through ``Impliance.fail_node`` (which
        promotes the dead data node's standby log onto the survivors),
        recoveries through ``Impliance.recover_node`` (which readmits it
        with an empty store), and the appliance's storage managers
        handle repair; the appliance's executor also adopts the plan's
        seeded retry policy, so backoff jitter replays with the plan.
    storage_managers:
        Explicit managers for standalone (no-appliance) use.
    """

    def __init__(
        self,
        cluster: ImplianceCluster,
        plan: FaultPlan,
        *,
        appliance=None,
        storage_managers: Optional[Sequence] = None,
        telemetry=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.plan = plan
        self.appliance = appliance
        if storage_managers is not None:
            self.storage_managers = list(storage_managers)
        elif appliance is not None:
            self.storage_managers = list(appliance._storage_managers)
        else:
            self.storage_managers = []
        if telemetry is not None:
            self.telemetry = telemetry
        elif appliance is not None:
            self.telemetry = appliance.telemetry
        else:
            self.telemetry = DISABLED
        self.retry_policy = retry_policy or plan.retry_policy()
        if appliance is not None:
            appliance.executor.retry_policy = self.retry_policy
            # The continuous replicator's shipment retries draw from the
            # same seeded policy, so a chaos run's full retry schedule —
            # queries and replication alike — replays with the plan.
            recovery = getattr(appliance, "recovery", None)
            if recovery is not None:
                recovery.retry_policy = self.retry_policy

        self.now_ms = 0.0
        self._cursor = 0
        self.applied: List[FaultEvent] = []
        self.skipped: List[FaultEvent] = []
        self.repair_actions = 0
        self.repair_latency_ms = 0.0
        #: (event time, repair actions, modeled re-replication latency).
        self.repair_log: List[Tuple[float, int, float]] = []

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def advance_to(self, sim_ms: float) -> List[FaultEvent]:
        """Apply every event scheduled at or before *sim_ms*."""
        fired: List[FaultEvent] = []
        while (
            self._cursor < len(self.plan.events)
            and self.plan.events[self._cursor].at_ms <= sim_ms
        ):
            event = self.plan.events[self._cursor]
            self._cursor += 1
            if self._apply(event):
                self.applied.append(event)
                fired.append(event)
            else:
                self.skipped.append(event)
                self.telemetry.inc("chaos.skipped")
        self.now_ms = max(self.now_ms, min(sim_ms, self.plan.duration_ms))
        return fired

    def run_all(self) -> List[FaultEvent]:
        """Apply the whole remaining schedule."""
        return self.advance_to(float("inf"))

    def settle(self) -> int:
        """Drain the plan, heal the network, restore speeds, and repair
        every outstanding replica deficit.  Returns the repairs made.

        Crashed nodes without a RECOVER event stay dead — the surviving
        replicas must carry the data, which is exactly what the
        no-data-loss assertions check.
        """
        self.run_all()
        self.cluster.network.heal_all()
        for node in self.cluster.nodes():
            node.restore_speed()
            self.cluster.network.restore_node(node.node_id)
        actions = 0
        for manager in self.storage_managers:
            actions += len(manager.repair_outstanding())
        if actions:
            self._count_repairs(self.now_ms, actions)
        return actions

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.plan.events)

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> bool:
        handler = {
            FaultKind.CRASH: self._apply_crash,
            FaultKind.RECOVER: self._apply_recover,
            FaultKind.SLOW: self._apply_slow,
            FaultKind.RESTORE: self._apply_restore,
            FaultKind.PARTITION: self._apply_partition,
            FaultKind.HEAL: self._apply_heal,
            FaultKind.CORRUPT: self._apply_corrupt,
        }[event.kind]
        applied = handler(event)
        if applied:
            self.telemetry.inc("chaos.faults_injected")
            self.telemetry.inc(f"chaos.fault.{event.kind.value}")
        return applied

    def _node(self, node_id: str) -> Optional[SimNode]:
        try:
            return self.cluster.node(node_id)
        except LookupError:
            return None

    def _guard_crash(self, node: SimNode) -> bool:
        """Refuse to kill the last live data or cluster node."""
        if node.kind is NodeKind.DATA and len(self.cluster.data_nodes) <= 1:
            return False
        if node.kind is NodeKind.CLUSTER and len(self.cluster.cluster_nodes) <= 1:
            return False
        return True

    def _repair_snapshot(self) -> int:
        return sum(m.stats.repairs for m in self.storage_managers)

    def _publish_cache_event(self, target: str, kind: str) -> None:
        """Flush the appliance cache hierarchy for faults that do not
        route through ``fail_node``/``recover_node`` (which publish their
        own events): a partition, heal, or corruption changes which
        replicas answer, so cached results are suspect.  SLOW/RESTORE
        only change latency, never answers, and stay silent."""
        caches = getattr(self.appliance, "caches", None)
        if caches is not None:
            caches.bus.publish_node_event(target, kind)

    def _count_repairs(self, at_ms: float, actions: int) -> None:
        if actions <= 0:
            return
        self.repair_actions += actions
        latency = actions * self._per_repair_latency_ms()
        self.repair_latency_ms += latency
        self.repair_log.append((at_ms, actions, latency))
        self.telemetry.inc("chaos.repairs", actions)
        self.telemetry.observe("chaos.repair_latency_ms", latency)

    def _per_repair_latency_ms(self) -> float:
        """Modeled cost of copying one segment to its new replica home."""
        network = self.cluster.network
        seg_bytes = 4096 * 8  # fallback when no store is attached
        for manager in self.storage_managers:
            store = getattr(manager, "store", None)
            if store is not None:
                seg_bytes = store.page_bytes * store.segment_pages
                break
        return network.latency_ms + seg_bytes / network.bandwidth

    # -- individual fault kinds ----------------------------------------
    def _apply_crash(self, event: FaultEvent) -> bool:
        node = self._node(event.target)
        if node is None or not node.alive or not self._guard_crash(node):
            return False
        before = self._repair_snapshot()
        if self.appliance is not None:
            self.appliance.fail_node(event.target)
        else:
            self.cluster.fail_node(event.target)
            for manager in self.storage_managers:
                try:
                    manager.on_node_failure(event.target)
                except LookupError:
                    pass  # that manager's replica set never used the node
        self._count_repairs(event.at_ms, self._repair_snapshot() - before)
        return True

    def _apply_recover(self, event: FaultEvent) -> bool:
        node = self._node(event.target)
        if node is None or node.alive:
            return False
        before = self._repair_snapshot()
        if self.appliance is not None:
            self.appliance.recover_node(event.target)
        else:
            self.cluster.recover_node(event.target)
            if node.kind is NodeKind.DATA:
                for manager in self.storage_managers:
                    try:
                        manager.on_node_added(event.target)
                    except ValueError:
                        pass  # manager never saw this node fail
        self._count_repairs(event.at_ms, self._repair_snapshot() - before)
        return True

    def _apply_slow(self, event: FaultEvent) -> bool:
        node = self._node(event.target)
        if node is None or not node.alive:
            return False
        node.degrade(event.factor)
        self.cluster.network.degrade_node(event.target, event.factor)
        return True

    def _apply_restore(self, event: FaultEvent) -> bool:
        node = self._node(event.target)
        if node is None or not node.degraded:
            return False
        node.restore_speed()
        self.cluster.network.restore_node(event.target)
        return True

    def _apply_partition(self, event: FaultEvent) -> bool:
        assert event.peer is not None
        if self.cluster.network.is_partitioned(event.target, event.peer):
            return False
        self.cluster.network.partition(event.target, event.peer)
        self._publish_cache_event(event.target, "partition")
        return True

    def _apply_heal(self, event: FaultEvent) -> bool:
        assert event.peer is not None
        if not self.cluster.network.is_partitioned(event.target, event.peer):
            return False
        self.cluster.network.heal(event.target, event.peer)
        self._publish_cache_event(event.target, "heal")
        return True

    def _apply_corrupt(self, event: FaultEvent) -> bool:
        """Lose one segment replica held by the target node.

        The segment is picked deterministically from the event identity,
        so replays corrupt the same replica.  The storage manager reacts
        exactly as for a failed disk block: drop the copy, re-replicate.
        """
        node = self._node(event.target)
        if node is None:
            return False
        before = self._repair_snapshot()
        for manager in self.storage_managers:
            held = [
                r.segment_id
                for r in manager.replicas.placements()
                if event.target in r.node_ids
            ]
            if not held:
                continue
            pick = held[
                stable_hash(f"corrupt:{event.at_ms:.6f}:{event.target}", len(held))
            ]
            manager.on_replica_corrupted(pick, event.target)
            self._count_repairs(event.at_ms, self._repair_snapshot() - before)
            self._publish_cache_event(event.target, "corrupt")
            return True
        return False

    # ------------------------------------------------------------------
    # reporting / replay contract
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        by_kind: Dict[str, int] = {}
        for event in self.applied:
            by_kind[event.kind.value] = by_kind.get(event.kind.value, 0) + 1
        return {
            "faults_injected": len(self.applied),
            "by_kind": by_kind,
            "skipped": len(self.skipped),
            "repair_actions": self.repair_actions,
            "repair_latency_ms": round(self.repair_latency_ms, 6),
            "schedule_digest": self.plan.schedule_digest(),
        }

    def counters_digest(self) -> str:
        """Stable digest of what actually happened (for replay tests)."""
        summary = self.summary()
        payload = "|".join(
            [
                str(summary["faults_injected"]),
                ",".join(f"{k}={v}" for k, v in sorted(summary["by_kind"].items())),
                str(summary["skipped"]),
                str(summary["repair_actions"]),
                f"{self.repair_latency_ms:.6f}",
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
