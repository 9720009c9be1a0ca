"""Standing (continuous) queries over the invalidation bus.

``Session.subscribe(sql_or_search)`` registers a query whose **result
deltas** are pushed as writes commit: every invalidation epoch that can
change the result produces at most one :class:`SubscriptionDelta` (the
bus publishes one change set per group commit).  This is the paper's
Fig. 2 views story made real-time: dashboards and alerting watch a query
instead of polling it.

* **SQL subscriptions** are a
  :class:`~repro.query.materialized.MaterializedQuery` whose
  notifications are its delta cursor — O(changed documents) on
  maintainable plans, and no work at all for a write the result cannot
  see.
* **Search subscriptions** test each changed document's fused
  projection against the query terms (the text index's tokenization);
  the ids whose membership flipped since the last delivery are their
  cursor.
* **Delivery** runs through the serving scheduler as ``discovery``-tier
  work.  A notification that is not delivered leaves its change in the
  cursor, so the next epoch's delta covers both and replaying every
  delivered delta from empty reconstructs the current result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cache.bus import ChangeSet
from repro.index.text import tokenize
from repro.model.projection import projection_of
from repro.query.materialized import MaterializedQuery, _row_key  # noqa: F401 (re-export)
from repro.query.sql import SqlError
from repro.serving.scheduler import Request


@dataclass(frozen=True)
class SubscriptionDelta:
    """One epoch's result change.  For SQL subscriptions ``added`` /
    ``removed`` are rows (multiset semantics, sorted by row key); for
    search subscriptions they are sorted doc ids."""

    epoch: int
    added: Tuple[Any, ...]
    removed: Tuple[Any, ...]

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


@dataclass
class SubscriptionStats:
    notifications: int = 0   #: deltas delivered (incl. the initial snapshot)
    empty_epochs: int = 0    #: drains whose delta was empty (suppressed)


class Subscription:
    """A standing query; deltas accumulate in :meth:`poll` order.

    Created through :meth:`SubscriptionManager.subscribe` (or
    ``Session.subscribe``).  ``on_delta`` — when given — is invoked with
    each :class:`SubscriptionDelta` at delivery time; :meth:`poll` drains
    the same deltas for pull-style consumers.  A SQL subscription's
    maintained query is :attr:`view` (its ``stats`` count refreshes and
    incremental applies).
    """

    def __init__(
        self,
        manager: "SubscriptionManager",
        sub_id: int,
        query: str,
        view: Optional[MaterializedQuery],
        *,
        tenant: str,
        qos: str,
        on_delta: Optional[Callable[[SubscriptionDelta], None]] = None,
    ) -> None:
        self.manager = manager
        self.sub_id = sub_id
        self.query = query
        self.view = view
        self.kind = "sql" if view is not None else "search"
        self.tenant = tenant
        self.qos = qos
        self.on_delta = on_delta
        self.closed = False
        self.stats = SubscriptionStats()
        self._outbox: List[SubscriptionDelta] = []
        # -- search state ------------------------------------------------
        self._terms = tuple(dict.fromkeys(tokenize(query))) if view is None else ()
        self._matched: Set[str] = set()
        #: Ids whose membership flipped since the last delivery.
        self._flipped: Set[str] = set()
        #: Re-read the match set from the text index at the next delivery.
        self._rematch = True

    # ------------------------------------------------------------------
    def poll(self) -> List[SubscriptionDelta]:
        """Drain every delta delivered since the last poll."""
        drained, self._outbox = self._outbox, []
        return drained

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.manager._detach(self)


class SubscriptionManager:
    """All standing queries of one appliance, fed by the bus delta stream."""

    def __init__(self, appliance) -> None:
        self.appliance = appliance
        self._subscriptions: Dict[int, Subscription] = {}
        self._next_id = 0
        self._bus = None

    # ------------------------------------------------------------------
    def attach_to_bus(self, bus) -> None:
        self._bus = bus
        bus.subscribe_deltas(self.on_changes)
        bus.subscribe_node_events(self.on_node_event)

    @property
    def epoch(self) -> int:
        return self._bus.epoch if self._bus is not None else 0

    @property
    def active(self) -> int:
        return len(self._subscriptions)

    def _inc(self, counter: str, value: int = 1) -> None:
        telemetry = getattr(self.appliance, "telemetry", None)
        if telemetry is not None:
            telemetry.inc(counter, value)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query: str,
        *,
        tenant: str = "default",
        qos: str = "discovery",
        on_delta: Optional[Callable[[SubscriptionDelta], None]] = None,
    ) -> Subscription:
        """Register a standing query (SQL if it parses as one, keyword
        search otherwise) and deliver its current result as the initial
        delta — so replaying deltas from empty reconstructs state."""
        sub_id = self._next_id + 1
        try:
            view = MaterializedQuery(
                f"subscription-{sub_id}",
                query,
                self.appliance.engine,
                epoch_source=lambda: self.epoch,
            )
        except SqlError:
            if query.strip()[:6].lower() == "select":
                raise  # a malformed SELECT fails at subscribe time
            view = None
        self._next_id = sub_id
        subscription = Subscription(
            self, sub_id, query, view, tenant=tenant, qos=qos, on_delta=on_delta
        )
        self._subscriptions[sub_id] = subscription
        self._inc("sub.created")
        # Initial snapshot, delivered synchronously (not scheduler-gated:
        # the subscribe call itself was already admitted as a request).
        self._evaluate_and_deliver(subscription, self.epoch)
        return subscription

    def _detach(self, subscription: Subscription) -> None:
        self._subscriptions.pop(subscription.sub_id, None)
        self._inc("sub.closed")

    # ------------------------------------------------------------------
    # bus reactions
    # ------------------------------------------------------------------
    def on_changes(self, changeset: ChangeSet) -> None:
        """One ingest epoch: update each subscription's maintained state,
        then push at most one notification per subscription whose cursor
        holds a change, through the serving scheduler as discovery-tier
        work."""
        for subscription in list(self._subscriptions.values()):
            view = subscription.view
            if view is None:
                pending = self._apply_search(subscription, changeset)
            else:
                view.apply_changes(changeset)
                pending = view.delta_pending
            if pending:
                self._schedule(subscription, changeset.epoch)

    def on_node_event(self, node_id: str, kind: str) -> None:
        """Topology/chaos/catalog change: every result is suspect — fall
        back to a full recompute, diffed against what was delivered."""
        epoch = self.epoch
        for subscription in list(self._subscriptions.values()):
            if subscription.view is None:
                subscription._rematch = True
            else:
                subscription.view.on_node_event(node_id, kind)
            self._schedule(subscription, epoch)

    def _apply_search(self, subscription: Subscription, changeset: ChangeSet) -> bool:
        if not subscription._terms:
            return False
        matched, flipped = subscription._matched, subscription._flipped
        for change in changeset.changes:
            doc_id = change.doc_id
            if change.is_delete:
                matches = False
            else:
                terms = projection_of(change.document).term_positions
                matches = all(term in terms for term in subscription._terms)
            if matches != (doc_id in matched):
                if matches:
                    matched.add(doc_id)
                else:
                    matched.discard(doc_id)
                flipped.symmetric_difference_update((doc_id,))
        return bool(flipped) or subscription._rematch

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _schedule(self, subscription: Subscription, epoch: int) -> None:
        """Push one notification through the scheduler; a failure leaves
        the change in the subscription's cursor, to be coalesced into the
        next epoch."""
        scheduler = getattr(self.appliance, "serving", None)
        if scheduler is None:
            self._evaluate_and_deliver(subscription, epoch)
            return
        request = Request(
            tenant=subscription.tenant,
            qos=subscription.qos,
            kind="notify",
            fn=lambda: self._evaluate_and_deliver(subscription, epoch),
        )
        try:
            scheduler.execute_inline(request)
        except Exception as exc:
            # A broken standing query must never fail the write that
            # triggered it; the change stays undrained and is retried on
            # the next epoch.
            self._inc("sub.notify.error")
            self._inc(f"sub.notify.error.{type(exc).__name__}")

    def _evaluate_and_deliver(self, subscription: Subscription, epoch: int) -> None:
        if subscription.closed:
            return
        if subscription.view is None:
            added, removed = self._drain_search(subscription)
        else:
            added, removed = subscription.view.drain_delta()
        delta = SubscriptionDelta(epoch, added, removed)
        if not delta and subscription.stats.notifications > 0:
            subscription.stats.empty_epochs += 1
            self._inc("sub.notify.empty")
            return
        subscription._outbox.append(delta)
        subscription.stats.notifications += 1
        self._inc("sub.notify.delivered")
        if subscription.on_delta is not None:
            subscription.on_delta(delta)

    def _drain_search(self, subscription: Subscription) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        if subscription._rematch:
            fresh = self.appliance.indexes.text.match_all(subscription.query)
            subscription._flipped ^= fresh ^ subscription._matched
            subscription._matched = set(fresh)
            subscription._rematch = False
        flipped, matched = subscription._flipped, subscription._matched
        subscription._flipped = set()
        added = tuple(sorted(doc_id for doc_id in flipped if doc_id in matched))
        removed = tuple(sorted(doc_id for doc_id in flipped if doc_id not in matched))
        return added, removed
