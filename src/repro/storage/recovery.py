"""Continuous replication and failover (Section 3.4).

The paper promises autonomic reliability: data re-replicated after
failures "with no administrator involvement".  This module is the one
copy recovery reads — every group commit a data node takes is shipped,
as one :class:`Shipment`, to a standby log hosted on a cluster node, and
when the node dies its standby is *promoted*: ``snapshot + log[lsn..]``
is replayed onto the survivors that take over its hash range
(:meth:`ContinuousReplicator.promote`).  A node readmitted later starts
from an empty store and re-bases its standby on it
(:meth:`ContinuousReplicator.resync`).

The shipping unit is the group commit: ``DocumentStore`` stamps a
monotone ``commit_lsn`` per batch, the change feed publishes the batch
as a :class:`~repro.storage.bus.ChangeSet` whose changes name the data
node that committed them, and the :class:`ContinuousReplicator`
subscribed to that feed ships each node's delta over the simulated
network.  Shipments crossing a partitioned link are
buffered in order and retried — never silently dropped — first through
the seeded :class:`~repro.chaos.retry.RetryPolicy`, then again at every
later publication and at explicit ``flush_pending()`` calls.

Recovery metrics follow the classic definitions (docs/RECOVERY.md):
RPO is committed documents lost (must be zero for anything the standby
acknowledged), RTO is simulated time from the crash until the promoted
chains serve from the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.chaos.retry import RetryError, RetryPolicy, call_with_retries
from repro.cluster.network import PartitionError
from repro.model.document import Document
from repro.util import stable_hash, validate_positive

#: Fixed framing cost charged per shipment on the wire.
SHIPMENT_OVERHEAD_BYTES = 64


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for the continuous replicator.

    snapshot_every:
        Group commits between standby snapshots per data node.  A
        snapshot replaces the prefix of the standby log at or below its
        LSN, bounding replay work to ``snapshot + log[lsn..]``.
    """

    snapshot_every: int = 32

    def __post_init__(self) -> None:
        validate_positive("RecoveryConfig", snapshot_every=self.snapshot_every)


@dataclass(frozen=True)
class Shipment:
    """One unit on the wire: a group commit's delta, or a full snapshot.

    ``lsn`` is the shipping store's ``commit_lsn`` at publication time;
    ``kind`` is ``"commit"`` or ``"snapshot"``.  Documents arrive in
    commit order (snapshots: chain by chain, oldest version first).
    """

    node_id: str
    lsn: int
    kind: str
    documents: Tuple[Document, ...]
    size_bytes: int


@dataclass
class StandbyLog:
    """A data node's recovery state, hosted on a cluster node.

    Replay state is ``snapshot`` (full chains as of ``snapshot_lsn``)
    followed by ``records`` in LSN order — exactly the
    ``snapshot + log[lsn..]`` the paper-scale recovery path needs.
    """

    node_id: str
    standby_id: str
    snapshot_lsn: int = 0
    snapshot: Tuple[Document, ...] = ()
    records: List[Shipment] = field(default_factory=list)
    applied_lsn: int = 0
    bytes_received: int = 0
    snapshots_applied: int = 0

    def apply(self, shipment: Shipment) -> bool:
        """Apply one delivered shipment; returns False for duplicates."""
        if shipment.kind == "snapshot":
            self.snapshot = shipment.documents
            self.snapshot_lsn = shipment.lsn
            self.records = [r for r in self.records if r.lsn > shipment.lsn]
            self.applied_lsn = max(self.applied_lsn, shipment.lsn)
            self.snapshots_applied += 1
        else:
            if shipment.lsn <= self.applied_lsn:
                return False  # duplicate delivery (a stale buffered copy)
            self.records.append(shipment)
            self.applied_lsn = shipment.lsn
        self.bytes_received += shipment.size_bytes
        return True

    def replay_documents(self) -> Iterator[Document]:
        """Every version needed to rebuild the node, in replay order."""
        yield from self.snapshot
        for record in self.records:
            yield from record.documents


@dataclass
class ReplicatorStats:
    shipments: int = 0
    shipped_bytes: int = 0
    snapshots: int = 0
    retries: int = 0
    buffered: int = 0
    dropped_duplicates: int = 0
    replays: int = 0
    replayed_versions: int = 0
    restores: int = 0


@dataclass(frozen=True)
class RestoreReport:
    """What one :meth:`Impliance.restore` readmission did: the node came
    back with an empty store, and the storage managers took ``repairs``
    replica-repair actions onto the returned capacity."""

    node_id: str
    repairs: int


class ContinuousReplicator:
    """Ships every group commit to a per-data-node standby log.

    Subscribed to the change feed (:meth:`attach_to_bus`), so the
    shipping unit is exactly the unit of publication: one
    :class:`ChangeSet` per group commit (the ingest pipeline's coalescing
    window merges a multi-node batch into one publication, which this
    class splits back per committing node — each node's share is that
    node's group commit).
    """

    def __init__(
        self,
        cluster,
        config: Optional[RecoveryConfig] = None,
        telemetry=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else RecoveryConfig()
        self.telemetry = telemetry
        #: Seeded like the chaos layer's policies; the chaos controller
        #: swaps in the plan's own policy so runs replay exactly.
        self.retry_policy = retry_policy or RetryPolicy(seed="recovery")
        self.stats = ReplicatorStats()
        self._standbys: Dict[str, StandbyLog] = {}
        self._pending: List[Shipment] = []
        self._since_snapshot: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_to_bus(self, bus) -> None:
        bus.subscribe_deltas(self.on_change_set)

    def standby(self, node_id: str) -> StandbyLog:
        """The node's standby log, created (empty) on first use — a node
        that never committed anything promotes nothing."""
        standby = self._standbys.get(node_id)
        if standby is None:
            # Deterministic host assignment: hash the data node over the
            # (stable) cluster-node id list, dead hosts included — a
            # standby must not migrate just because its host blinked.
            from repro.cluster.node import NodeKind

            hosts = [
                n.node_id
                for n in self.cluster.nodes_of(NodeKind.CLUSTER, alive_only=False)
            ]
            if not hosts:
                raise RuntimeError("no cluster nodes to host standby logs")
            host = hosts[stable_hash(f"standby:{node_id}", len(hosts))]
            standby = StandbyLog(node_id=node_id, standby_id=host)
            self._standbys[node_id] = standby
        return standby

    # ------------------------------------------------------------------
    # the shipping path
    # ------------------------------------------------------------------
    def on_change_set(self, changeset) -> None:
        """One publication arrived: split it per committing data node and
        ship each node's share as one commit record."""
        # Earlier buffered shipments go first so per-node order holds.
        if self._pending:
            self.flush_pending()
        groups: Dict[str, List[Document]] = {}
        for change in changeset:
            if change.node_id is not None:
                groups.setdefault(change.node_id, []).append(change.document)
        for node_id in sorted(groups):
            node = self.cluster.node(node_id)
            if not node.alive:
                continue  # committed by a node that has died since
            store = node.store
            documents = tuple(groups[node_id])
            self._ship(
                Shipment(
                    node_id=node_id,
                    lsn=store.commit_lsn,
                    kind="commit",
                    documents=documents,
                    size_bytes=self._payload_bytes(documents),
                )
            )
            self._maybe_snapshot(node_id, store)

    def _payload_bytes(self, documents: Tuple[Document, ...]) -> int:
        return sum(d.size_bytes() for d in documents) + SHIPMENT_OVERHEAD_BYTES

    def _ship(self, shipment: Shipment) -> bool:
        """Ship now unless earlier traffic for the node is still stuck
        (per-node order must hold: a record never overtakes another)."""
        if any(p.node_id == shipment.node_id for p in self._pending):
            self._buffer(shipment)
            return False
        return self._transfer(shipment) or self._buffer(shipment)

    def _buffer(self, shipment: Shipment) -> bool:
        self._pending.append(shipment)
        self.stats.buffered += 1
        if self.telemetry is not None:
            self.telemetry.inc("recovery.buffered")
        return False

    def _transfer(self, shipment: Shipment) -> bool:
        """Move one shipment over the wire; True when it was applied."""
        standby = self.standby(shipment.node_id)
        network = self.cluster.network
        try:
            _, _, attempts = call_with_retries(
                lambda _attempt: network.transfer(
                    shipment.size_bytes, shipment.node_id, standby.standby_id
                ),
                self.retry_policy,
                retry_on=(PartitionError,),
                telemetry=self.telemetry,
                label="recovery.ship",
            )
        except RetryError:
            return False
        self.stats.retries += attempts - 1
        if not standby.apply(shipment):
            self.stats.dropped_duplicates += 1
            return True  # delivered; the standby already had it
        self.stats.shipments += 1
        self.stats.shipped_bytes += shipment.size_bytes
        if shipment.kind == "snapshot":
            self.stats.snapshots += 1
        if self.telemetry is not None:
            self.telemetry.inc("recovery.shipments")
            self.telemetry.inc("recovery.shipped_bytes", shipment.size_bytes)
            if shipment.kind == "snapshot":
                self.telemetry.inc("recovery.snapshots")
        return True

    def flush_pending(self) -> int:
        """Retry every buffered shipment in order; returns how many got
        through.  Shipments behind a still-blocked one for the same node
        stay queued so the standby applies records in LSN order."""
        pending, self._pending = self._pending, []
        blocked: set = set()
        shipped = 0
        for shipment in pending:
            if shipment.node_id in blocked or not self._transfer(shipment):
                blocked.add(shipment.node_id)
                self._pending.append(shipment)
            else:
                shipped += 1
        return shipped

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def _maybe_snapshot(self, node_id: str, store) -> None:
        count = self._since_snapshot.get(node_id, 0) + 1
        if count >= self.config.snapshot_every:
            self.take_snapshot(node_id)
        else:
            self._since_snapshot[node_id] = count

    def take_snapshot(self, node_id: str) -> Shipment:
        """Serialize the node's full chain state (every version, chain by
        chain, tombstones included) and ship it; the standby truncates
        the records the snapshot subsumes."""
        node = self.cluster.node(node_id)
        if node.store is None:
            raise LookupError(f"{node_id} has no document store")
        store = node.store
        documents = tuple(
            doc for doc_id in store.doc_ids() for doc in store.history(doc_id)
        )
        shipment = Shipment(
            node_id=node_id,
            lsn=store.commit_lsn,
            kind="snapshot",
            documents=documents,
            size_bytes=self._payload_bytes(documents),
        )
        self._since_snapshot[node_id] = 0
        self._ship(shipment)
        return shipment

    # ------------------------------------------------------------------
    # failover and readmission
    # ------------------------------------------------------------------
    def promote(self, node_id: str) -> int:
        """Fail the dead data node *node_id* over onto the survivors.

        Buffered shipments are retried first, and whatever is still
        buffered for the node is applied to its standby directly — the
        standby then holds every group commit the node took.  Its replay
        state (snapshot, then log records in LSN order) is grouped into
        version chains, and each chain no live data node holds yet is
        committed at its home on the live hash ring, one group commit per
        survivor.  Each survivor is charged the standby-to-survivor
        transfer and the replay CPU for its share; that commit ships to
        the survivor's own standby like any other.  The dead node's store
        is never read.  Returns the number of chains moved.
        """
        from repro.cluster.topology import INGEST_CPU_MS_PER_KB

        self.flush_pending()
        standby = self.standby(node_id)
        for shipment in [p for p in self._pending if p.node_id == node_id]:
            standby.apply(shipment)
        self._pending = [p for p in self._pending if p.node_id != node_id]
        chains: Dict[str, List[Document]] = {}
        for document in standby.replay_documents():
            chains.setdefault(document.doc_id, []).append(document)

        survivors = self.cluster.data_nodes
        shares: Dict[str, List[Document]] = {}
        moved = 0
        for doc_id, chain in chains.items():
            if any(node.store.contains(doc_id) for node in survivors):
                continue
            shares.setdefault(self.cluster.home_of(doc_id).node_id, []).extend(chain)
            moved += 1
        started = self.cluster.makespan()
        replayed = 0
        for target_id in sorted(shares):
            share = shares[target_id]
            target = self.cluster.node(target_id)
            nbytes = sum(document.size_bytes() for document in share)
            transfer_ms = self.cluster.network.transfer(
                nbytes, standby.standby_id, target_id
            )
            target.store.clock.observe(max(d.ingest_ts for d in share))
            target.store.put_many(share)
            target.run(
                INGEST_CPU_MS_PER_KB * nbytes / 1024.0,
                after=started + transfer_ms,
                label="promote",
            )
            replayed += len(share)
        # Handed over: the survivors' own standbys now carry the chains.
        self._reset(node_id)
        self.stats.replays += 1
        self.stats.replayed_versions += replayed
        if self.telemetry is not None:
            self.telemetry.inc("recovery.replays")
            self.telemetry.inc("recovery.replayed_versions", replayed)
        return moved

    def resync(self, node_id: str) -> None:
        """After a readmission: the node's fresh store restarts its LSN
        counter, so re-base its standby on a snapshot of that store."""
        self._reset(node_id)
        self.take_snapshot(node_id)

    def _reset(self, node_id: str) -> None:
        """Drop the node's buffered traffic and empty its standby log."""
        self._pending = [p for p in self._pending if p.node_id != node_id]
        self._standbys[node_id] = StandbyLog(
            node_id=node_id, standby_id=self.standby(node_id).standby_id
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """The ``stats()["recovery"]`` payload: replicator counters plus
        per-live-data-node LSN lag, snapshot age, and standby log depth
        (a dead node's data lives on the survivors it was promoted to)."""
        nodes: Dict[str, Dict[str, object]] = {}
        for node in self.cluster.data_nodes:
            standby = self._standbys.get(node.node_id)
            shipped = standby.applied_lsn if standby else 0
            snapshot_lsn = standby.snapshot_lsn if standby else 0
            lag = node.store.commit_lsn - shipped
            nodes[node.node_id] = {
                "commit_lsn": node.store.commit_lsn,
                "shipped_lsn": shipped,
                "lag": lag,
                "snapshot_lsn": snapshot_lsn,
                "snapshot_age": node.store.commit_lsn - snapshot_lsn,
                "log_records": len(standby.records) if standby else 0,
                "standby": standby.standby_id if standby else None,
            }
            if self.telemetry is not None:
                self.telemetry.set_gauge(f"recovery.lag.{node.node_id}", lag)
        return {
            "shipments": self.stats.shipments,
            "shipped_bytes": self.stats.shipped_bytes,
            "snapshots": self.stats.snapshots,
            "retries": self.stats.retries,
            "buffered": self.stats.buffered,
            "pending": len(self._pending),
            "replays": self.stats.replays,
            "replayed_versions": self.stats.replayed_versions,
            "restores": self.stats.restores,
            "nodes": nodes,
        }
