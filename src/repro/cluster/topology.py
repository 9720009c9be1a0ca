"""The Impliance cluster: nodes, routing, detection, failure injection.

One :class:`ImplianceCluster` is a single-system-image appliance instance
(Figure 3): data nodes own hash-partitioned document storage, grid nodes
form work crews for analytics, cluster nodes form the consistency group
that serializes updates.  The software "automatically detect[s] which
hardware components are available and reconfigur[es] itself if there are
changes" (Section 3.1) — :meth:`detect_topology` is that inventory pass
and runs again whenever nodes are added or fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.groups import ConsistencyGroup
from repro.cluster.network import Network
from repro.cluster.node import NodeKind, SimNode
from repro.model.document import Document
from repro.storage.bus import ChangeSet, InvalidationBus
from repro.util import LogicalClock, stable_hash

#: Simulated CPU cost to persist one KB at a data node.
INGEST_CPU_MS_PER_KB = 0.02


@dataclass
class TopologyInventory:
    """What auto-detection found: counts and ids per flavor."""

    data_nodes: List[str]
    grid_nodes: List[str]
    cluster_nodes: List[str]
    generation: int

    @property
    def total(self) -> int:
        return len(self.data_nodes) + len(self.grid_nodes) + len(self.cluster_nodes)


class ImplianceCluster:
    """A simulated single-instance appliance.

    Parameters
    ----------
    n_data / n_grid / n_cluster:
        Node counts per flavor.  The paper's scaling story is that these
        evolve independently: "Add more data nodes to provide additional
        data capacity or throughput; add more computing nodes to support
        additional users or applications."
    network:
        Shared interconnect model (a default is built when omitted).
    buffer_capacity:
        Buffer-pool frames per data node.

    Every data node's store publishes its commits on the cluster's one
    change :attr:`feed`; the cluster subscribes its node indexes to it
    first, so they are current whoever else listens.
    """

    def __init__(
        self,
        n_data: int = 2,
        n_grid: int = 2,
        n_cluster: int = 1,
        network: Optional[Network] = None,
        buffer_capacity: int = 256,
    ) -> None:
        if n_data < 1:
            raise ValueError("a cluster needs at least one data node")
        if n_cluster < 1:
            raise ValueError("a cluster needs at least one cluster node")
        self.network = network if network is not None else Network()
        self.clock = LogicalClock()
        self.feed = InvalidationBus()
        self.feed.subscribe_deltas(self.index_commit)
        self._nodes: Dict[str, SimNode] = {}
        self._generation = 0
        self._buffer_capacity = buffer_capacity
        self._telemetry = None
        for i in range(n_data):
            self._add(SimNode(f"data-{i}", NodeKind.DATA, store_clock=self.clock,
                              buffer_capacity=buffer_capacity, feed=self.feed))
        for i in range(n_grid):
            self._add(SimNode(f"grid-{i}", NodeKind.GRID))
        for i in range(n_cluster):
            self._add(SimNode(f"cluster-{i}", NodeKind.CLUSTER))
        self.consistency_group = ConsistencyGroup(
            "cg-0", self.nodes_of(NodeKind.CLUSTER), self.network
        )
        self._inventory = self.detect_topology()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _add(self, node: SimNode) -> SimNode:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        return node

    def add_node(self, kind: NodeKind) -> SimNode:
        """Hot-add a node of *kind* and re-detect the topology.

        New data nodes receive only subsequently ingested data (routing
        is over the live data-node list at ingest time); the paper's
        brokers decide who gets new hardware, which the virt layer
        models.
        """
        index = sum(1 for n in self._nodes.values() if n.kind is kind)
        node = SimNode(
            f"{kind.value}-{index}",
            kind,
            store_clock=self.clock if kind is NodeKind.DATA else None,
            buffer_capacity=self._buffer_capacity,
            feed=self.feed,
        )
        self._add(node)
        if self._telemetry is not None:
            node.telemetry = self._telemetry
        if kind is NodeKind.CLUSTER:
            self.consistency_group.join(node)
        self._inventory = self.detect_topology()
        return node

    def fail_node(self, node_id: str) -> SimNode:
        """Inject a failure; topology re-detects (Section 3.1 reconfig)."""
        node = self.node(node_id)
        node.fail()
        self._inventory = self.detect_topology()
        return node

    def recover_node(self, node_id: str) -> SimNode:
        node = self.node(node_id)
        node.recover()
        self._inventory = self.detect_topology()
        return node

    def detect_topology(self) -> TopologyInventory:
        """The appliance's automatic hardware-inventory pass."""
        self._generation += 1
        return TopologyInventory(
            data_nodes=[n.node_id for n in self.nodes_of(NodeKind.DATA)],
            grid_nodes=[n.node_id for n in self.nodes_of(NodeKind.GRID)],
            cluster_nodes=[n.node_id for n in self.nodes_of(NodeKind.CLUSTER)],
            generation=self._generation,
        )

    @property
    def inventory(self) -> TopologyInventory:
        return self._inventory

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.obs.Telemetry` into every node timeline.

        Only an *enabled* telemetry is attached — nodes keep a None hook
        otherwise, so the per-``run()`` hot path pays nothing when
        observability is off.  Nodes added later inherit the hook.
        """
        self._telemetry = telemetry if telemetry.enabled else None
        for node in self._nodes.values():
            node.telemetry = self._telemetry

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> SimNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise LookupError(f"no node named {node_id!r}") from None

    def nodes(self) -> List[SimNode]:
        return [self._nodes[k] for k in sorted(self._nodes)]

    def nodes_of(self, kind: NodeKind, alive_only: bool = True) -> List[SimNode]:
        return [
            n for n in self.nodes()
            if n.kind is kind and (n.alive or not alive_only)
        ]

    @property
    def data_nodes(self) -> List[SimNode]:
        return self.nodes_of(NodeKind.DATA)

    @property
    def grid_nodes(self) -> List[SimNode]:
        return self.nodes_of(NodeKind.GRID)

    @property
    def cluster_nodes(self) -> List[SimNode]:
        return self.nodes_of(NodeKind.CLUSTER)

    def work_crew(self, size: int) -> List[SimNode]:
        """Pull the least-loaded grid nodes into a crew (Section 3.3:
        grid nodes "may be pulled into a 'work crew'").  Falls back to
        fewer nodes when the grid is small."""
        if size < 1:
            raise ValueError("crew size must be >= 1")
        crew = sorted(self.grid_nodes, key=lambda n: (n.available_at, n.node_id))
        return crew[:size]

    # ------------------------------------------------------------------
    # data placement & ingest
    # ------------------------------------------------------------------
    def home_of(self, doc_id: str) -> SimNode:
        """The data node owning *doc_id* (hash routing over live nodes)."""
        live = self.data_nodes
        if not live:
            raise RuntimeError("no live data nodes")
        return live[stable_hash(doc_id, len(live))]

    def ingest(self, document: Document, after: float = 0.0) -> Tuple[SimNode, float]:
        """Route and persist one document, a batch of one through
        :meth:`ingest_batch`; returns (home node, finish time)."""
        _, shares, finish = self.ingest_batch([document], after)
        (node_id,) = shares
        return self._nodes[node_id], finish

    def ingest_batch(
        self, documents: Sequence[Document], after: float = 0.0
    ) -> Tuple[List[Document], Dict[str, List[Document]], float]:
        """Shard one batch across the data nodes in a single scheduling
        round.

        Documents are stamped from the shared cluster clock in arrival
        order *before* grouping, so timestamps — and therefore version
        chains, as-of reads, and store contents — are identical to
        sequential :meth:`ingest` calls over the same sequence.  Each home
        node then takes one :meth:`DocumentStore.put_many` group commit
        and one CPU charge for its whole share, all starting at *after*
        (the nodes work in parallel; the makespan is the slowest share).

        Returns ``(stored documents in arrival order, node_id → share,
        finish time)``.
        """
        if not documents:
            return [], {}, after
        stamped = [
            document if document.ingest_ts else document.stamped(self.clock.tick())
            for document in documents
        ]
        # One routing table for the whole batch: the live data-node list
        # is computed once, not re-derived per document as `home_of` does
        # (same hash ring, so placement is identical).
        live = self.data_nodes
        if not live:
            raise RuntimeError("no live data nodes")
        shares: Dict[str, List[Document]] = {}
        for document in stamped:
            home = live[stable_hash(document.doc_id, len(live))]
            shares.setdefault(home.node_id, []).append(document)
        finish = after
        for node_id, share in shares.items():
            node = self._nodes[node_id]
            assert node.store is not None
            node.store.put_many(share)
            cost = (
                INGEST_CPU_MS_PER_KB
                * sum(document.size_bytes() for document in share)
                / 1024.0
            )
            finish = max(finish, node.run(cost, after, label="ingest-batch"))
        return stamped, shares, finish

    def index_commit(self, changeset: ChangeSet) -> None:
        """Feed stage one: index each change on the data node whose store
        committed it (that node's current index, so a readmitted node's
        fresh index is the one maintained)."""
        shares: Dict[Optional[str], List[Document]] = {}
        for change in changeset:
            shares.setdefault(change.node_id, []).append(change.document)
        for node_id, documents in shares.items():
            node = self._nodes.get(node_id)
            if node is not None and node.indexes is not None:
                node.indexes.index_batch(documents)

    def lookup(self, doc_id: str) -> Optional[Document]:
        """Cluster-wide point lookup of the latest *live* version (a
        tombstoned document answers None, like one never stored)."""
        for node in self.data_nodes:
            assert node.store is not None
            if node.store.contains(doc_id):
                return node.store.lookup(doc_id)
        return None

    def scan_all(self) -> Iterator[Document]:
        """Iterate every live document across all data nodes."""
        for node in self.data_nodes:
            assert node.store is not None
            yield from node.store.scan()

    def scan_all_batches(self, batch_size: int = 256) -> Iterator[List[Document]]:
        """Like :meth:`scan_all`, but in fixed-size document batches
        (same node order, so row order matches the flat scan)."""
        for node in self.data_nodes:
            assert node.store is not None
            yield from node.store.scan_batches(batch_size)

    def scan_all_view_batches(self, view, batch_size: int = 256):
        """Cluster-wide native columnar scan of *view*: still-encoded
        :class:`~repro.exec.batch.ColumnBatch`\\ es off every data node's
        column pages, in :attr:`data_nodes` order (so row order matches
        :meth:`scan_all` filtered through the view).  Returns ``None``
        when the view cannot be answered columnar."""
        produced = []
        for node in self.data_nodes:
            assert node.store is not None
            batches = node.store.scan_view_batches(view, batch_size)
            if batches is None:
                return None
            produced.append(batches)

        def chained() -> Iterator:
            for batches in produced:
                yield from batches

        return chained()

    @property
    def doc_count(self) -> int:
        return sum(n.store.doc_count for n in self.data_nodes if n.store)

    @property
    def live_doc_count(self) -> int:
        """Documents whose head version is live, across live data nodes —
        exactly the population :meth:`scan_all` yields."""
        return sum(n.store.live_doc_count for n in self.data_nodes if n.store)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Latest finish time across all node timelines."""
        return max((n.available_at for n in self._nodes.values()), default=0.0)

    def reset_timelines(self) -> None:
        for node in self._nodes.values():
            node.reset_timeline()
        self.network.reset_stats()
