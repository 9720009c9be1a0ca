"""Incremental view maintenance over bus change sets.

The bus carries :class:`~repro.storage.bus.ChangeSet`s (doc ids plus the
stored documents); this module turns them into O(delta) maintenance:

* :func:`analyze` decides whether a logical plan is *maintainable* —
  a single-view pipeline of scan → filter → project/aggregate → having →
  sort.  Joins, LIMIT (whose contents depend on an engine scan order no
  delta can reconstruct), and subject-widened annotation views (whose
  rows change when a *different* document changes) are not, and fall
  back to full refresh.
* :class:`ViewMaintainer` keeps one post-filter base row per contributing
  document (``doc_id → row``).  An upsert re-projects just the changed
  document; a delete drops its row.  Results are evaluated lazily from
  the maintained base in **canonical doc-id order**, so the incremental
  path and a from-scratch rebuild produce byte-identical rows — the
  property the differential harness in ``tests/test_ivm_properties.py``
  proves under arbitrary interleavings.  (Engine scans stream in
  shard-dependent order; aggregation over floats is order-sensitive, so
  determinism has to come from the maintainer, not the cluster.)

Aggregates are maintained at **group granularity**: the base rows are
bucketed by group key, each group's aggregate row is cached, and a delta
only re-aggregates the groups it touched — O(changed groups), not O(all
rows).  Re-aggregating a whole group (rather than keeping running
accumulators) keeps deletions and the non-distributive avg/min/max exact
without per-group multiset bookkeeping, and because each group's fold
runs over the *same* doc-id-ordered row sequence a full rebuild would
feed it, byte-identity survives even order-sensitive float summation.
Group output order is the sorted key order :func:`group_aggregate` uses,
so assembling cached group rows reproduces the engine's ordering too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.storage.bus import DocumentChange
from repro.exec.operators import AggSpec, Row, _orderable, group_aggregate, sort_rows
from repro.model.views import RelationalView
from repro.query.plans import (
    Aggregate,
    Conjunction,
    Filter,
    LogicalPlan,
    Project,
    ScanView,
    Sort,
)


class NonMaintainable(Exception):
    """Raised when a delta cannot be applied incrementally (the caller
    falls back to a full refresh)."""


@dataclass(frozen=True)
class MaintenancePlan:
    """The maintainable normal form of a logical plan.

    ``[Sort]? → [Filter(having)]? → [Project | Aggregate]? → [Filter]? →
    ScanView`` — everything the SQL subset produces except joins and
    limits.
    """

    view_name: str
    predicate: Optional[Conjunction] = None
    project: Optional[Tuple[str, ...]] = None
    group_by: Optional[Tuple[str, ...]] = None
    aggs: Optional[Tuple[AggSpec, ...]] = None
    having: Optional[Conjunction] = None
    sort_keys: Optional[Tuple[str, ...]] = None
    sort_descending: bool = False


def analyze(plan: LogicalPlan) -> Optional[MaintenancePlan]:
    """Normalize *plan* into a :class:`MaintenancePlan`, or None when the
    shape is not incrementally maintainable (Join, Limit)."""
    sort_keys: Optional[Tuple[str, ...]] = None
    sort_descending = False
    having: Optional[Conjunction] = None
    project: Optional[Tuple[str, ...]] = None
    group_by: Optional[Tuple[str, ...]] = None
    aggs: Optional[Tuple[AggSpec, ...]] = None
    predicate: Optional[Conjunction] = None

    node = plan
    if isinstance(node, Sort):
        sort_keys, sort_descending = node.keys, node.descending
        node = node.child
    if isinstance(node, Filter) and isinstance(node.child, Aggregate):
        having = node.predicate
        node = node.child
    if isinstance(node, Project):
        project = node.columns
        node = node.child
    elif isinstance(node, Aggregate):
        group_by, aggs = node.group_by, node.aggs
        node = node.child
    if isinstance(node, Filter):
        predicate = node.predicate
        node = node.child
    if not isinstance(node, ScanView):
        return None  # Join, Limit, or a shape the parser never emits
    return MaintenancePlan(
        view_name=node.view,
        predicate=predicate,
        project=project,
        group_by=group_by,
        aggs=aggs,
        having=having,
        sort_keys=sort_keys,
        sort_descending=sort_descending,
    )


class ViewMaintainer:
    """Incrementally maintained result of one :class:`MaintenancePlan`.

    ``repository`` is anything exposing the query-engine repository
    protocol (``views``, ``documents()``, ``lookup``).  The maintainer is
    driven by its owner: :meth:`rebuild` for a full refresh,
    :meth:`apply` for a change set, :meth:`evaluate` to produce rows.

    A result is made of *units* — one output row per contributing document
    for row plans, one per group for aggregates — so an owner can report
    a delta from what :meth:`apply` records and :meth:`unit_row` reads,
    without evaluating the result.
    """

    def __init__(self, plan: MaintenancePlan, repository) -> None:
        self.plan = plan
        self.repository = repository
        #: One post-filter base row per contributing document.
        self._doc_rows: Dict[str, Row] = {}
        #: Aggregate plans only: base rows bucketed by group key, the
        #: cached aggregate row per group, and the groups a delta touched
        #: since the last evaluation.
        self._group_rows: Dict[Tuple, Dict[str, Row]] = {}
        self._group_agg: Dict[Tuple, Row] = {}
        self._stale_groups: set = set()
        self._view: Optional[RelationalView] = None
        self._built = False

    # ------------------------------------------------------------------
    def _resolve_view(self) -> RelationalView:
        views = self.repository.views
        if self.plan.view_name not in views:
            raise NonMaintainable(f"view {self.plan.view_name!r} not defined")
        view = views.get(self.plan.view_name)
        if view.needs_subject:
            # Its rows read a *different* document (the annotation's
            # subject), whose changes arrive as no delta for these rows.
            raise NonMaintainable(
                f"view {self.plan.view_name!r} widens rows from subject documents"
            )
        return view

    def _current_view(self) -> RelationalView:
        """The catalog's current definition — compared with the build-time
        snapshot so a replaced (auto-grown) view forces a rebuild instead
        of serving rows projected through the stale definition."""
        view = self._resolve_view()
        if self._view is not None and view is not self._view:
            raise NonMaintainable(f"view {self.plan.view_name!r} was redefined")
        return view

    # ------------------------------------------------------------------
    def _project(self, view: RelationalView, document) -> Optional[Row]:
        """Project one document into its base row (None when it does not
        contribute: wrong table/kind, view predicate, WHERE filter)."""
        if document.is_tombstone or not view.matches(document):
            return None
        row = view.project(document, self.repository.lookup)
        if row is None:
            return None
        if self.plan.predicate is not None and not self.plan.predicate.matches(row):
            return None
        return row

    def _group_key(self, row: Row) -> Tuple:
        return tuple(row.get(c) for c in (self.plan.group_by or ()))

    def rebuild(self) -> None:
        """Full refresh of the maintained base from a repository scan."""
        view = self._resolve_view()
        doc_rows: Dict[str, Row] = {}
        for document in self.repository.documents():
            row = self._project(view, document)
            if row is not None:
                doc_rows[document.doc_id] = row
        self._view = view
        self._doc_rows = doc_rows
        if self.plan.aggs is not None:
            group_rows: Dict[Tuple, Dict[str, Row]] = {}
            for doc_id, row in doc_rows.items():
                group_rows.setdefault(self._group_key(row), {})[doc_id] = row
            self._group_rows = group_rows
            self._group_agg = {}
            self._stale_groups = set(group_rows)
        self._built = True

    def relevant(self, changes: Sequence[DocumentChange]) -> List[DocumentChange]:
        """The subset of *changes* that can alter this result: documents
        feeding the view, plus previously contributing doc ids (whose new
        version may have stopped matching, or been tombstoned)."""
        if not self._built:
            return list(changes)
        view = self._view
        assert view is not None
        return [
            change
            for change in changes
            if change.doc_id in self._doc_rows
            or (not change.is_delete and view.matches(change.document))
        ]

    def apply(
        self,
        changes: Sequence[DocumentChange],
        touched: Optional[Dict[Hashable, Optional[Row]]] = None,
    ) -> int:
        """Fold *changes* into the maintained base — O(len(changes)).

        *touched*, when given, gains each unit this call changes that it
        does not hold yet, with the unit's output row from before the call
        (None for no row).

        Raises :class:`NonMaintainable` when the base was never built or
        the view definition moved underneath us; the owner falls back to
        :meth:`rebuild`.
        """
        if not self._built:
            raise NonMaintainable("base not built yet")
        view = self._current_view()
        grouped = self.plan.aggs is not None
        count = 0
        for change in changes:
            row = None if change.is_delete else self._project(view, change.document)
            old_row = self._doc_rows.get(change.doc_id)
            if row is None:
                if old_row is None:
                    continue  # never contributed; nothing to undo
                del self._doc_rows[change.doc_id]
            else:
                self._doc_rows[change.doc_id] = row
            if grouped:
                if old_row is not None:
                    old_key = self._group_key(old_row)
                    self._touch_group(old_key, touched)
                    members = self._group_rows.get(old_key)
                    if members is not None:
                        members.pop(change.doc_id, None)
                if row is not None:
                    new_key = self._group_key(row)
                    self._touch_group(new_key, touched)
                    self._group_rows.setdefault(new_key, {})[change.doc_id] = row
            elif touched is not None and change.doc_id not in touched:
                touched[change.doc_id] = self._output(old_row)
            count += 1
        return count

    def _touch_group(self, key: Tuple, touched: Optional[Dict]) -> None:
        # An owner passing *touched* keeps every group it has not read back
        # in it, so a group first seen here is folded and current.
        if touched is not None and key not in touched:
            touched[key] = self._group_row(key)
        self._stale_groups.add(key)

    # ------------------------------------------------------------------
    def _output(self, row: Optional[Row]) -> Optional[Row]:
        """A row plan's output row for one document's base row."""
        if row is None:
            return None
        if self.plan.project is None:
            return dict(row)
        return {name: row.get(name) for name in self.plan.project}

    def _group_row(self, key: Tuple) -> Optional[Row]:
        """A folded group's row; None when it is empty or HAVING drops it."""
        row = self._group_agg.get(key)
        having = self.plan.having
        if row is None or (having is not None and not having.matches(row)):
            return None
        return row

    def _fold(self, key: Tuple) -> None:
        """Re-aggregate one stale group over its rows in doc-id order —
        exactly the subsequence a full rebuild would feed it — so cached
        and recomputed groups are byte-identical by construction."""
        members = self._group_rows.get(key)
        if not members:
            self._group_rows.pop(key, None)
            self._group_agg.pop(key, None)
            return
        plan = self.plan
        group = group_aggregate(
            [members[doc_id] for doc_id in sorted(members)],
            plan.group_by or (),
            plan.aggs,
        )
        self._group_agg[key] = {k: v for k, v in group[0].items() if k != "__distinct"}

    def unit_row(self, unit: Hashable) -> Optional[Row]:
        """A unit's current output row (None for no row), re-aggregating
        the group first if it is stale."""
        if self.plan.aggs is None:
            return self._output(self._doc_rows.get(unit))
        if unit in self._stale_groups:
            self._fold(unit)
            self._stale_groups.discard(unit)
        return self._group_row(unit)

    def evaluate(self) -> List[Row]:
        """Rows of the maintained query, derived from the base rows in
        canonical doc-id order (deterministic across incremental and
        rebuilt states — see module docstring)."""
        if not self._built:
            raise NonMaintainable("base not built yet")
        plan = self.plan
        if plan.aggs is not None:
            # Re-aggregate only the groups deltas touched, then assemble
            # the cached group rows in group_aggregate's sorted-key order.
            for key in self._stale_groups:
                self._fold(key)
            self._stale_groups = set()
            ordered = sorted(self._group_agg, key=lambda k: tuple(_orderable(v) for v in k))
            rows = [dict(row) for row in map(self._group_row, ordered) if row is not None]
        else:
            rows = [self._output(self._doc_rows[doc_id]) for doc_id in sorted(self._doc_rows)]
        if plan.sort_keys is not None:
            rows = sort_rows(rows, plan.sort_keys, plan.sort_descending)
        return rows
