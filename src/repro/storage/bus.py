"""The change feed: the one place a commit is announced.

Every write the appliance takes ends as a group commit on some
:class:`~repro.storage.store.DocumentStore` (a plain put is a commit of
one), and the store hands that commit to its feed — this bus — as one
publication, after every document in it is durable.  Nothing else
announces a write: ingest, discovery's annotation commits, updates,
deletes and failover's promote all reach derived state the same way.
Every derived structure subscribes here; the appliance registers them in
one place and one order (docs/INGEST.md lists it).

Two event families flow through:

* **change sets** — one :class:`ChangeSet` per publication: it bumps the
  epoch once and carries a :class:`DocumentChange` per document — the
  doc id, the stored document (whose fused
  :class:`~repro.model.projection.DocumentProjection` the ingest pipeline
  already computed once), the dependency table, whether the change is an
  upsert or a tombstone delete, and the data node whose store committed
  it.
* **node events** — chaos faults and topology changes (crash, recover,
  corrupt, partition, heal).  These change *which* data is visible, not
  just its content, so subscribers are expected to flush wholesale:
  a result derived from a now-unreachable node's segments must never be
  served as fresh, and an incrementally maintained view must fall back
  to a full refresh.

Every event bumps ``epoch``; caches that cannot invalidate precisely
(the physical-plan tier, whose validity depends on index/view state)
stamp entries with the epoch at fill time and treat any mismatch as a
miss.

When the staged ingest pipeline commits one logical batch across several
data nodes, each node's store publishes its own commit; the pipeline
wraps the storage stage in :meth:`InvalidationBus.coalescing` so those
per-node commits merge into a single publication — one epoch bump, one
change set per ingest batch, listed in the batch's arrival order however
many nodes it sharded across.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.model.document import Document

NodeListener = Callable[[str, str], None]  # (node_id, event kind)


@dataclass(frozen=True)
class DocumentChange:
    """One document's contribution to a change set.

    ``op`` is ``"upsert"`` (a new document or a new version of one) or
    ``"delete"`` (a tombstone version was appended — the carried
    ``document`` *is* the tombstone, so its metadata, and therefore the
    dependency ``table``, survive for precise invalidation).  ``node_id``
    names the data node whose store committed the change (None for a
    standalone store).
    """

    op: str
    doc_id: str
    document: Document
    table: Optional[str]
    node_id: Optional[str] = None

    @property
    def is_delete(self) -> bool:
        return self.op == "delete"


@dataclass(frozen=True)
class ChangeSet:
    """One publication: every document change of one invalidation epoch."""

    epoch: int
    changes: Tuple[DocumentChange, ...]

    def __len__(self) -> int:
        return len(self.changes)

    def __iter__(self) -> Iterator[DocumentChange]:
        return iter(self.changes)

    @property
    def documents(self) -> List[Document]:
        return [change.document for change in self.changes]

    @property
    def tables(self) -> Set[Optional[str]]:
        """The dependency tables this change set touches (None for
        documents without table metadata)."""
        return {change.table for change in self.changes}


DeltaListener = Callable[[ChangeSet], None]


def change_of(document: Document, node_id: Optional[str] = None) -> DocumentChange:
    """Classify one stored document as an upsert or a tombstone delete."""
    op = "delete" if document.is_tombstone else "upsert"
    return DocumentChange(
        op=op,
        doc_id=document.doc_id,
        document=document,
        table=document.metadata.get("table"),
        node_id=node_id,
    )


class BusStats:
    __slots__ = ("put_events", "put_documents", "delete_documents", "node_events")

    def __init__(self) -> None:
        #: Publications (epoch bumps caused by puts) — one per batch.
        self.put_events = 0
        #: Documents carried by those publications.
        self.put_documents = 0
        #: Tombstone deletes among those documents.
        self.delete_documents = 0
        self.node_events = 0


class InvalidationBus:
    """Fan-out of change sets and node events to every subscriber."""

    def __init__(self) -> None:
        #: Monotone event counter; bumped by every put batch and node event.
        self.epoch = 0
        self.stats = BusStats()
        self._delta_subscribers: List[DeltaListener] = []
        #: Always empty: every subscriber takes change sets.  Its one
        #: reader is the e2e tracer (``benchmarks/e2e/trace.py``), which
        #: wraps this list in place.
        self._batch_subscribers: List[Callable] = []
        self._node_subscribers: List[NodeListener] = []
        self._held: Optional[List[DocumentChange]] = None

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe_deltas(self, listener: DeltaListener) -> None:
        """Change-set subscription: one epoch-stamped :class:`ChangeSet`
        per publication, delivered in subscription order."""
        self._delta_subscribers.append(listener)

    def subscribe_node_events(self, listener: NodeListener) -> None:
        self._node_subscribers.append(listener)

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def publish_put_batch(
        self, documents: Sequence[Document], node_id: Optional[str] = None
    ) -> None:
        """Publish one commit of persisted documents, committed by the
        store of data node *node_id*, as a single event."""
        if not documents:
            return
        changes = [change_of(document, node_id) for document in documents]
        if self._held is not None:
            # Inside a coalescing window: merge into the one pending event.
            self._held.extend(changes)
            return
        self._publish(changes)

    def _publish(self, changes: List[DocumentChange]) -> None:
        self.epoch += 1
        changeset = ChangeSet(epoch=self.epoch, changes=tuple(changes))
        self.stats.put_events += 1
        self.stats.put_documents += len(changes)
        self.stats.delete_documents += sum(1 for change in changes if change.is_delete)
        for listener in self._delta_subscribers:
            listener(changeset)

    @contextmanager
    def coalescing(self, order: Sequence[Document] = ()):
        """Merge every commit published inside the window into one event.

        The ingest pipeline uses this around a multi-node storage stage:
        N per-node group commits become one publication — one epoch bump,
        one union invalidation, one change set — emitted when the window
        closes.  *order* is the batch the window commits: the change set
        lists its documents in that (arrival) order, not in the order the
        per-node commits landed, so the discovery queue and the global
        index see a batch as it arrived.  Windows nest; only the
        outermost emits.  The emission sits in a ``finally``: an
        exception inside the window still publishes what was committed
        before the failure (those documents are durable — no derived
        structure may miss them), as exactly one epoch.  A subscriber
        registered mid-window is visible by emission time, so it sees the
        coalesced change set too.
        """
        if self._held is not None:
            yield  # already inside a window — the outer one will emit
            return
        self._held = []
        try:
            yield
        finally:
            held, self._held = self._held, None
            if len(held) > 1 and order:
                rank = {(d.doc_id, d.version): i for i, d in enumerate(order)}
                held.sort(key=lambda c: rank.get((c.doc_id, c.document.version), len(rank)))
            if held:
                self._publish(held)

    def publish_node_event(self, node_id: str, kind: str) -> None:
        """A chaos/topology event: crash, recover, corrupt, partition,
        heal, or catalog (view-definition) change."""
        self.epoch += 1
        self.stats.node_events += 1
        for listener in self._node_subscribers:
            listener(node_id, kind)
