"""Whole-result standing-query notifier: the reference delta cursors answer to.

This is the notifier ``repro.query.continuous`` used before a standing
SQL query became a maintained query plus a delta cursor.  Nothing under
``src/`` imports it.  Every notification re-evaluates the *whole* current
result (through its own :class:`ViewMaintainer` when the plan is
maintainable, through the engine otherwise), serialises every row, and
diffs the multiset against the last delivered one — O(result) per
notification, and obviously right.  Search subscriptions diff the whole
matching id set the same way.

:class:`ReferenceNotifier` subscribes to a bus exactly like
``SubscriptionManager`` and schedules through the same ``serving``
object, so a differential test can feed both the same change sets,
node events and delivery failures and compare the delivered
:class:`~repro.query.continuous.SubscriptionDelta` lists one for one.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Dict, List, Optional, Set

from repro.exec.operators import Row
from repro.index.text import tokenize
from repro.model.projection import projection_of
from repro.query.continuous import SubscriptionDelta
from repro.query.ivm import NonMaintainable, ViewMaintainer, analyze
from repro.query.plans import base_views
from repro.query.sql import SqlError, parse_sql
from repro.serving.scheduler import Request


def row_key(row: Row) -> str:
    return json.dumps(row, sort_keys=True, default=str)


class ReferenceSubscription:
    def __init__(self, query: str, on_delta: Optional[Callable] = None) -> None:
        self.query = query
        self.on_delta = on_delta
        self.deltas: List[SubscriptionDelta] = []
        self.kind = "sql"
        self.maintainer: Optional[ViewMaintainer] = None
        self.dependencies: frozenset = frozenset()
        self.needs_rebuild = True
        self.lagging = False
        self.delivered: Counter = Counter()
        self.delivered_rows: Dict[str, Row] = {}
        self.terms: tuple = ()
        self.matched: Set[str] = set()
        self.delivered_ids: Set[str] = set()


class ReferenceNotifier:
    """Standing queries over one bus, each notification O(result)."""

    def __init__(self, engine, indexes, serving=None) -> None:
        self.engine = engine
        self.indexes = indexes
        self.serving = serving
        self.subscriptions: List[ReferenceSubscription] = []
        self._bus = None

    def attach_to_bus(self, bus) -> None:
        self._bus = bus
        bus.subscribe_deltas(self.on_changes)
        bus.subscribe_node_events(self.on_node_event)

    @property
    def epoch(self) -> int:
        return self._bus.epoch if self._bus is not None else 0

    def subscribe(self, query: str, on_delta=None) -> ReferenceSubscription:
        subscription = ReferenceSubscription(query, on_delta)
        try:
            plan = parse_sql(query)
        except SqlError:
            plan = None
            subscription.kind = "search"
            subscription.terms = tuple(dict.fromkeys(tokenize(query)))
        if plan is not None:
            subscription.dependencies = frozenset(base_views(plan))
            maintenance = analyze(plan)
            if maintenance is not None:
                subscription.maintainer = ViewMaintainer(maintenance, self.engine.repository)
        self.subscriptions.append(subscription)
        self._deliver(subscription, self.epoch)
        return subscription

    # -- bus reactions ---------------------------------------------------
    def on_changes(self, changeset) -> None:
        for subscription in self.subscriptions:
            if subscription.kind == "search":
                touched = self._apply_search(subscription, changeset)
            else:
                touched = self._apply_sql(subscription, changeset)
            if touched:
                self._schedule(subscription, changeset.epoch)

    def on_node_event(self, node_id: str, kind: str) -> None:
        for subscription in self.subscriptions:
            subscription.needs_rebuild = True
            self._schedule(subscription, self.epoch)

    def _apply_sql(self, subscription, changeset) -> bool:
        # needs_rebuild stays set until a rebuild succeeds, so a maintainer
        # that is not built always needs one.
        maintainer = subscription.maintainer
        if maintainer is None or subscription.needs_rebuild:
            touched = any(
                change.table in subscription.dependencies for change in changeset.changes
            )
            if touched:
                subscription.needs_rebuild = True
            return touched or subscription.lagging
        relevant = maintainer.relevant(changeset.changes)
        if not relevant:
            return subscription.lagging
        try:
            maintainer.apply(relevant)
        except NonMaintainable:
            subscription.needs_rebuild = True
        return True

    def _apply_search(self, subscription, changeset) -> bool:
        if not subscription.terms:
            return False
        touched = False
        for change in changeset.changes:
            if change.is_delete:
                if change.doc_id in subscription.matched:
                    subscription.matched.discard(change.doc_id)
                    touched = True
                continue
            terms = projection_of(change.document).term_positions
            matches = all(term in terms for term in subscription.terms)
            if matches and change.doc_id not in subscription.matched:
                subscription.matched.add(change.doc_id)
                touched = True
            elif not matches and change.doc_id in subscription.matched:
                subscription.matched.discard(change.doc_id)
                touched = True
        return touched or subscription.lagging

    # -- delivery ----------------------------------------------------------
    def _schedule(self, subscription, epoch: int) -> None:
        subscription.lagging = True
        if self.serving is None:
            self._deliver(subscription, epoch)
            return
        request = Request(
            tenant="default",
            qos="discovery",
            kind="notify",
            fn=lambda: self._deliver(subscription, epoch),
        )
        try:
            self.serving.execute_inline(request)
        except Exception:
            pass  # stays lagging; the next epoch coalesces

    def _deliver(self, subscription, epoch: int) -> None:
        if subscription.kind == "search":
            if subscription.needs_rebuild:
                subscription.matched = self.indexes.text.match_all(subscription.query)
                subscription.needs_rebuild = False
            added = tuple(sorted(subscription.matched - subscription.delivered_ids))
            removed = tuple(sorted(subscription.delivered_ids - subscription.matched))
            delta = SubscriptionDelta(epoch, added, removed)
            subscription.delivered_ids = set(subscription.matched)
        else:
            rows = self._rows(subscription)
            current = Counter(row_key(row) for row in rows)
            current_rows: Dict[str, Row] = {}
            for row in rows:
                current_rows.setdefault(row_key(row), row)
            added_rows: List[Row] = []
            removed_rows: List[Row] = []
            for key in sorted(set(current) | set(subscription.delivered)):
                gained = current[key] - subscription.delivered[key]
                if gained > 0:
                    added_rows.extend([dict(current_rows[key])] * gained)
                elif gained < 0:
                    removed_rows.extend([dict(subscription.delivered_rows[key])] * -gained)
            delta = SubscriptionDelta(epoch, tuple(added_rows), tuple(removed_rows))
            subscription.delivered = current
            subscription.delivered_rows = current_rows
        subscription.lagging = False
        if not delta and subscription.deltas:
            return
        subscription.deltas.append(delta)
        if subscription.on_delta is not None:
            subscription.on_delta(delta)

    def _rows(self, subscription) -> List[Row]:
        maintainer = subscription.maintainer
        if maintainer is not None:
            if subscription.needs_rebuild:
                try:
                    maintainer.rebuild()
                    subscription.needs_rebuild = False
                except NonMaintainable:
                    subscription.maintainer = None
                    return self._engine_rows(subscription)
            return maintainer.evaluate()
        return self._engine_rows(subscription)

    def _engine_rows(self, subscription) -> List[Row]:
        subscription.needs_rebuild = False
        return list(self.engine.sql(subscription.query).rows)
