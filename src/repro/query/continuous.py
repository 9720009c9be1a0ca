"""Standing (continuous) queries over the invalidation bus.

``Session.subscribe(sql_or_search)`` registers a query whose **result
deltas** are pushed as writes commit: every invalidation epoch that can
change the result produces at most one :class:`SubscriptionDelta` —
per-epoch coalescing falls straight out of the bus, which publishes one
change set per ``ingest_many``/``ingest_stream`` group commit.  This is
the paper's Fig. 2 views story made real-time: dashboards and alerting
over the call-center / e-discovery corpora watch a query instead of
polling it.

Mechanics:

* **SQL subscriptions** reuse the incremental machinery materialized
  views use (:mod:`repro.query.ivm`): maintainable plans fold each
  change set in O(changed documents); joins and other non-maintainable
  shapes re-evaluate through the engine, gated on the dependency tables
  the change set touches.  The pushed delta is the multiset difference
  between the last delivered result and the current one.
* **Search subscriptions** keep the matching doc-id set.  Each upserted
  document is tested against the query terms via its fused
  :class:`~repro.model.projection.DocumentProjection` (the same
  tokenization the text index uses), deletes drop ids — O(delta) with no
  index probe at all.
* **Delivery** flows through the serving scheduler as ``discovery``-tier
  work by default.  A notification whose evaluation raises leaves the
  subscription at its last-delivered snapshot, and the next epoch's
  delta covers both — a lagging subscriber coalesces instead of losing
  changes.  Replaying every delivered delta from empty always
  reconstructs the current result (the property
  ``tests/test_ivm_properties.py`` proves).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cache.bus import ChangeSet
from repro.exec.operators import Row
from repro.index.text import tokenize
from repro.query.ivm import NonMaintainable, ViewMaintainer, analyze
from repro.query.plans import base_views
from repro.query.sql import SqlError, parse_sql
from repro.serving.scheduler import Request


def _row_key(row: Row) -> str:
    return json.dumps(row, sort_keys=True, default=str)


@dataclass(frozen=True)
class SubscriptionDelta:
    """One epoch's result change.  For SQL subscriptions ``added`` /
    ``removed`` are rows (multiset semantics); for search subscriptions
    they are doc ids."""

    epoch: int
    added: Tuple[Any, ...]
    removed: Tuple[Any, ...]

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


@dataclass
class SubscriptionStats:
    notifications: int = 0   #: deltas delivered (incl. the initial snapshot)
    empty_epochs: int = 0    #: evaluations whose diff was empty (suppressed)
    rebuilds: int = 0        #: full re-evaluations (fallback path)
    incremental_applies: int = 0


class Subscription:
    """A standing query; deltas accumulate in :meth:`poll` order.

    Created through :meth:`SubscriptionManager.subscribe` (or
    ``Session.subscribe``).  ``on_delta`` — when given — is invoked with
    each :class:`SubscriptionDelta` at delivery time; :meth:`poll` drains
    the same deltas for pull-style consumers.
    """

    def __init__(
        self,
        manager: "SubscriptionManager",
        sub_id: int,
        query: str,
        kind: str,
        *,
        tenant: str,
        qos: str,
        on_delta: Optional[Callable[[SubscriptionDelta], None]] = None,
    ) -> None:
        self.manager = manager
        self.sub_id = sub_id
        self.query = query
        self.kind = kind  # "sql" | "search"
        self.tenant = tenant
        self.qos = qos
        self.on_delta = on_delta
        self.closed = False
        self.stats = SubscriptionStats()
        self._outbox: List[SubscriptionDelta] = []
        # -- sql state ---------------------------------------------------
        self._maintainer: Optional[ViewMaintainer] = None
        self._dependencies: frozenset = frozenset()
        self._needs_rebuild = True
        #: Last *delivered* result (multiset of canonical row keys, plus a
        #: sample row per key so removals can be materialized).
        self._delivered: Counter = Counter()
        self._delivered_rows: Dict[str, Row] = {}
        # -- search state ------------------------------------------------
        self._terms: Tuple[str, ...] = ()
        self._matched: Set[str] = set()
        self._delivered_ids: Set[str] = set()
        #: True when an epoch touched this subscription but its
        #: notification has not been delivered yet (failed, or pending).
        self._lagging = False

    # ------------------------------------------------------------------
    def poll(self) -> List[SubscriptionDelta]:
        """Drain every delta delivered since the last poll."""
        drained, self._outbox = self._outbox, []
        return drained

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.manager._detach(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Subscription(#{self.sub_id} {self.kind} {self.query!r} "
            f"tenant={self.tenant!r})"
        )


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
        kind = "sql"
        plan = None
        stripped = query.strip()
        if stripped[:6].lower() == "select":
            plan = parse_sql(stripped)  # surface SqlError at subscribe time
        else:
            try:
                plan = parse_sql(stripped)
            except SqlError:
                kind = "search"
        self._next_id += 1
        subscription = Subscription(
            self,
            self._next_id,
            query,
            kind,
            tenant=tenant,
            qos=qos,
            on_delta=on_delta,
        )
        if kind == "sql":
            subscription._dependencies = frozenset(base_views(plan))
            maintenance = analyze(plan)
            repository = getattr(self.appliance.engine, "repository", None)
            if maintenance is not None and repository is not None:
                subscription._maintainer = ViewMaintainer(maintenance, repository)
        else:
            subscription._terms = tuple(dict.fromkeys(tokenize(query)))
        self._subscriptions[subscription.sub_id] = subscription
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
        """One ingest epoch: update cheap incremental state eagerly, then
        push at most one notification per affected subscription through
        the serving scheduler as discovery-tier work."""
        for subscription in list(self._subscriptions.values()):
            if subscription.kind == "search":
                if self._apply_search(subscription, changeset):
                    self._schedule(subscription, changeset.epoch)
            else:
                if self._apply_sql(subscription, changeset):
                    self._schedule(subscription, changeset.epoch)

    def on_node_event(self, node_id: str, kind: str) -> None:
        """Topology/chaos/catalog change: every result is suspect — force
        a rebuild and diff against the last delivered state."""
        epoch = self.epoch
        for subscription in list(self._subscriptions.values()):
            subscription._needs_rebuild = True
            self._schedule(subscription, epoch)

    # -- per-kind incremental state ------------------------------------
    def _apply_sql(self, subscription: Subscription, changeset: ChangeSet) -> bool:
        maintainer = subscription._maintainer
        if maintainer is None or not maintainer.built or subscription._needs_rebuild:
            if subscription._needs_rebuild or maintainer is None:
                touched = any(
                    change.table in subscription._dependencies
                    for change in changeset.changes
                )
                if touched:
                    subscription._needs_rebuild = True
                return touched or subscription._lagging
            subscription._needs_rebuild = True
            return True
        relevant = maintainer.relevant(changeset.changes)
        if not relevant:
            return subscription._lagging
        try:
            maintainer.apply(relevant)
            subscription.stats.incremental_applies += 1
        except NonMaintainable:
            subscription._needs_rebuild = True
        return True

    def _apply_search(self, subscription: Subscription, changeset: ChangeSet) -> bool:
        if not subscription._terms:
            return False
        touched = False
        for change in changeset.changes:
            if change.is_delete:
                if change.doc_id in subscription._matched:
                    subscription._matched.discard(change.doc_id)
                    touched = True
                continue
            projection = _projection_terms(change.document)
            matches = all(term in projection for term in subscription._terms)
            if matches and change.doc_id not in subscription._matched:
                subscription._matched.add(change.doc_id)
                touched = True
            elif not matches and change.doc_id in subscription._matched:
                subscription._matched.discard(change.doc_id)
                touched = True
        return touched or subscription._lagging

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _schedule(self, subscription: Subscription, epoch: int) -> None:
        """Push one notification through the scheduler; a failure leaves
        the subscription lagging, to be coalesced into the next epoch."""
        subscription._lagging = True
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
            # triggered it; the subscription stays lagging and will retry
            # on the next epoch.
            self._inc("sub.notify.error")
            self._inc(f"sub.notify.error.{type(exc).__name__}")

    def _evaluate_and_deliver(self, subscription: Subscription, epoch: int) -> None:
        if subscription.closed:
            return
        if subscription.kind == "search":
            if subscription._needs_rebuild:
                subscription._matched = self.appliance.indexes.text.match_all(
                    subscription.query
                )
                subscription._needs_rebuild = False
                subscription.stats.rebuilds += 1
            added = tuple(sorted(subscription._matched - subscription._delivered_ids))
            removed = tuple(sorted(subscription._delivered_ids - subscription._matched))
            delta = SubscriptionDelta(epoch, added, removed)
            subscription._delivered_ids = set(subscription._matched)
        else:
            rows = self._sql_rows(subscription)
            current = Counter(_row_key(row) for row in rows)
            current_rows: Dict[str, Row] = {}
            for row in rows:
                current_rows.setdefault(_row_key(row), row)
            added: List[Row] = []
            removed: List[Row] = []
            for key in sorted(set(current) | set(subscription._delivered)):
                gained = current[key] - subscription._delivered[key]
                if gained > 0:
                    added.extend([dict(current_rows[key])] * gained)
                elif gained < 0:
                    removed.extend(
                        [dict(subscription._delivered_rows[key])] * (-gained)
                    )
            delta = SubscriptionDelta(epoch, tuple(added), tuple(removed))
            subscription._delivered = current
            subscription._delivered_rows = current_rows
        subscription._lagging = False
        if not delta and subscription.stats.notifications > 0:
            subscription.stats.empty_epochs += 1
            self._inc("sub.notify.empty")
            return
        subscription._outbox.append(delta)
        subscription.stats.notifications += 1
        self._inc("sub.notify.delivered")
        if subscription.on_delta is not None:
            subscription.on_delta(delta)

    def _sql_rows(self, subscription: Subscription) -> List[Row]:
        maintainer = subscription._maintainer
        if maintainer is not None:
            if subscription._needs_rebuild or not maintainer.built:
                try:
                    maintainer.rebuild()
                    subscription._needs_rebuild = False
                    subscription.stats.rebuilds += 1
                except NonMaintainable:
                    subscription._maintainer = None
                    return self._engine_rows(subscription)
            return maintainer.evaluate()
        return self._engine_rows(subscription)

    def _engine_rows(self, subscription: Subscription) -> List[Row]:
        subscription._needs_rebuild = False
        subscription.stats.rebuilds += 1
        return list(self.appliance.engine.sql(subscription.query).rows)


def _projection_terms(document) -> Set[str]:
    from repro.model.projection import projection_of

    return set(projection_of(document).term_positions)
