"""Materialized query results as derived data (paper Sections 3.2 / 3.4).

Section 3.2: base data "may subsequently be transformed into different
formats or combined with other documents ... and stored in one or more
transformed states that are easier to process."  Section 3.4 lists
"materialized views, indexes, and replicas" as the re-creatable derived
data the storage manager may replicate cheaply (BRONZE class).

A :class:`MaterializedQuery` is the one object that keeps a SQL answer
valid under writes: a materialized view, or a standing SQL query whose
notifications are its **delta cursor** (:meth:`~MaterializedQuery.drain_delta`).
Bus change sets maintain it **incrementally** when the query's shape
allows (see :mod:`repro.query.ivm`), touching only the changed documents'
contribution; joins, LIMIT, subject-widened views, a change arriving
mid-refresh or a node event **fall back to a full refresh**.  Reads serve
the cache, fold pending deltas, refresh on demand, or — the Impliance
twist — persist the rows as a DERIVED document so the transformed state
is itself searchable, versioned, and replicated like everything else.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.cache.bus import ChangeSet, InvalidationBus
from repro.exec.operators import Row
from repro.model.document import Document, DocumentKind
from repro.query.engine import QueryEngine
from repro.query.ivm import NonMaintainable, ViewMaintainer, analyze
from repro.query.plans import base_views
from repro.query.sql import parse_sql


def _row_key(row: Row) -> str:
    """Canonical multiset key of a row; deltas list rows in this order."""
    return json.dumps(row, sort_keys=True, default=str)


@dataclass
class MaterializationStats:
    refreshes: int = 0
    cache_hits: int = 0
    #: Change sets applied incrementally (each O(changed documents)).
    deltas_applied: int = 0
    #: Reads served by folding pending deltas instead of a full refresh.
    incremental_serves: int = 0
    #: Full refreshes forced on an incrementally maintained view
    #: (non-maintainable delta, node event, mid-refresh change).
    fallbacks: int = 0


class MaterializedQuery:
    """One cached SQL result with delta-driven maintenance.

    Parameters
    ----------
    name:
        Identity of the materialization (also used for persisted state).
    sql:
        The SELECT this caches.
    engine:
        Engine to (re)compute through.
    epoch_source:
        Callable returning the current bus epoch; the refresh race guard
        compares it before/after a recompute.  The manager wires this to
        its bus; standalone views default to a constant.
    """

    def __init__(
        self,
        name: str,
        sql: str,
        engine: QueryEngine,
        *,
        epoch_source: Optional[Callable[[], int]] = None,
    ) -> None:
        if not name:
            raise ValueError("materialization needs a name")
        self.name = name
        self.sql = sql
        self.engine = engine
        self.epoch_source = epoch_source if epoch_source is not None else (lambda: 0)
        self._logical = parse_sql(sql)
        self._dependencies = frozenset(base_views(self._logical))
        self._cache: Optional[List[Row]] = None
        self._dirty = True
        self._refreshing = False
        self._plan = analyze(self._logical)
        #: Set once built; None on the engine path.
        self._maintainer: Optional[ViewMaintainer] = None
        #: The delta cursor (opened by the first :meth:`drain_delta`): units
        #: changed since the last drain with their rows as of that drain,
        #: and the net row-key counts folded so far.
        self._touched: Optional[Dict[Hashable, Optional[Row]]] = None
        self._net: Counter = Counter()
        self._net_rows: Dict[str, Row] = {}
        self.stats = MaterializationStats()
        self._telemetry = engine.telemetry

    # ------------------------------------------------------------------
    @property
    def dependencies(self) -> frozenset:
        """The views whose base tables invalidate this cache."""
        return self._dependencies

    @property
    def is_fresh(self) -> bool:
        """True when :meth:`rows` serves without any recomputation —
        neither a full refresh nor folding pending deltas."""
        return self._cache is not None and not self._dirty

    @property
    def is_maintainable(self) -> bool:
        """True when change sets are applied incrementally (known after a
        refresh, when the catalog knows the scanned view)."""
        return self._maintainer is not None

    @property
    def delta_pending(self) -> bool:
        """True when the next :meth:`drain_delta` may report a change."""
        return (
            self._touched is None or self._dirty or bool(self._touched)
            or any(self._net.values())
        )

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        self._dirty = True

    def on_node_event(self, node_id: str, kind: str) -> None:
        """Chaos/topology/catalog change: the maintained base may no
        longer reflect what a scan would see (corruption, re-homing, a
        redefined view) — fall back to a full refresh on next read."""
        if self._maintainer is not None:
            self.stats.fallbacks += 1
            self._telemetry.inc(f"mv.fallback.{kind}")
        self.invalidate()

    def apply_changes(self, changeset: ChangeSet) -> None:
        """Bus delta: apply incrementally when possible, else invalidate.

        Persisting *this* materialization's own state is exempt: an MV
        whose SQL reads an ``mv_`` view would otherwise self-invalidate
        on every :meth:`to_document` put, staying dirty forever.  Without
        a maintainer any write to a dependency table invalidates; with
        one, a write that cannot change this result (filtered out, wrong
        view) leaves the cache untouched entirely.
        """
        changes = [
            change
            for change in changeset.changes
            if change.document.metadata.get("materialization") != self.name
        ]
        if not changes:
            return
        maintainer = self._maintainer
        if maintainer is None:
            if any(change.table in self._dependencies for change in changes):
                self.invalidate()
            return
        relevant = maintainer.relevant(changes)
        if not relevant:
            return
        if self._refreshing or self._dirty:
            # Mid-refresh or already stale: the pending full refresh (or
            # its epoch guard) covers these documents.
            self.invalidate()
            return
        try:
            touched = maintainer.apply(relevant, self._touched)
        except NonMaintainable:
            self.stats.fallbacks += 1
            self._telemetry.inc("mv.fallback.delta")
            self.invalidate()
            return
        if touched:
            self._cache = None  # pending: next read folds the delta
            self.stats.deltas_applied += 1
            self._telemetry.inc("mv.delta.applied")
            self._telemetry.inc("mv.delta.docs", touched)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _recompute(self) -> List[Row]:
        """Rebuild the maintainer, or answer through the engine when the
        plan is not maintainable or its view is missing or widens rows.
        The maintainer is kept only once built, and retried at every
        refresh: the scanned view may be auto-defined by ingest later."""
        maintainer = self._maintainer
        repository = getattr(self.engine, "repository", None)
        if maintainer is None and self._plan is not None and repository is not None:
            maintainer = ViewMaintainer(self._plan, repository)
        if maintainer is not None:
            try:
                maintainer.rebuild()
                self._maintainer = maintainer
                return maintainer.evaluate()
            except NonMaintainable:
                self._maintainer = None
        return list(self.engine.sql(self.sql).rows)

    def refresh(self) -> List[Row]:
        # Clear the dirty flag *before* recomputing and snapshot the bus
        # epoch (as ``QueryEngine._sql_cached`` guards result admission):
        # an invalidation or delta that fires mid-refresh must re-mark the
        # view dirty, not be erased by a post-recompute clear.  A recompute
        # that raises leaves the view dirty too, so the next read retries.
        self._dirty = False
        epoch_before = self.epoch_source()
        self._refreshing = True
        try:
            before = None
            if self._touched is not None:  # the rows the cursor accounts for
                if self._maintainer is not None:
                    self._fold_touched()
                    before = self._maintainer.evaluate()
                else:
                    before = self._cache or []
            self._cache = self._recompute()
        except BaseException:
            self._dirty = True
            raise
        finally:
            self._refreshing = False
        if before is not None:
            self._count(before, -1)
            self._count(self._cache, 1)
        if self.epoch_source() != epoch_before:
            # Something changed while we recomputed: serve these rows but
            # leave the view flagged stale.
            self._dirty = True
        self.stats.refreshes += 1
        self._telemetry.inc("mv.refresh.full")
        return list(self._cache)

    def rows(self) -> List[Row]:
        """Serve from cache; fold pending deltas or refresh when needed."""
        if self._dirty:
            return self.refresh()
        if self._cache is None:
            if self._maintainer is not None:
                self._cache = self._maintainer.evaluate()
                self.stats.incremental_serves += 1
                self._telemetry.inc("mv.serve.incremental")
                return list(self._cache)
            return self.refresh()
        self.stats.cache_hits += 1
        return list(self._cache)

    # ------------------------------------------------------------------
    # the delta cursor
    # ------------------------------------------------------------------
    def drain_delta(self) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """``(added, removed)``: the net multiset change of :meth:`rows`
        since the last drain, each sorted by row key.  The first drain
        opens the cursor and reports the whole current result as added;
        changes not drained keep accumulating into the next one."""
        if self._touched is None:
            self._count(self.rows(), 1)
            self._touched = {}
        elif self._dirty:
            self.refresh()
        else:
            self._fold_touched()
        net, rows = self._net, self._net_rows
        self._net, self._net_rows = Counter(), {}
        keys = sorted(net)
        added = tuple(dict(rows[key]) for key in keys for _ in range(net[key]))
        removed = tuple(dict(rows[key]) for key in keys for _ in range(-net[key]))
        return added, removed

    def _count(self, rows, sign: int) -> None:
        for row in rows:
            key = _row_key(row)
            self._net[key] += sign
            self._net_rows.setdefault(key, row)

    def _fold_touched(self) -> None:
        """Move each touched unit's before/after rows into the net change."""
        maintainer = self._maintainer
        for unit, before in self._touched.items():
            after = maintainer.unit_row(unit)
            if before != after:
                if before is not None:
                    self._count((before,), -1)
                if after is not None:
                    self._count((after,), 1)
        self._touched.clear()

    # ------------------------------------------------------------------
    def to_document(self, doc_id: str) -> Document:
        """Persist the current state as a DERIVED (BRONZE-class) document.

        The storage manager replicates derived data at the lowest class
        because this document is exactly re-creatable from its SQL.
        """
        rows = self.rows()
        return Document(
            doc_id=doc_id,
            content={"materialized": {"name": self.name, "sql": self.sql, "rows": rows}},
            kind=DocumentKind.DERIVED,
            source_format="materialized",
            metadata={"table": f"mv_{self.name}", "materialization": self.name},
        )


class MaterializationManager:
    """Registry riding the appliance invalidation bus.

    It subscribes to the shared :class:`~repro.cache.bus.InvalidationBus`
    like every other cache tier, consuming the bus's delta stream so
    maintainable views update in O(changed documents).  Node events —
    chaos crash/corrupt/partition — dirty every materialization, because
    a refresh may now read different replicas than the cached rows did.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        self._materializations: Dict[str, MaterializedQuery] = {}
        self._bus: Optional[InvalidationBus] = None

    @property
    def epoch(self) -> int:
        return self._bus.epoch if self._bus is not None else 0

    def define(self, name: str, sql: str) -> MaterializedQuery:
        if name in self._materializations:
            raise ValueError(f"materialization {name!r} already defined")
        materialized = MaterializedQuery(
            name, sql, self.engine, epoch_source=lambda: self.epoch
        )
        self._materializations[name] = materialized
        return materialized

    def get(self, name: str) -> MaterializedQuery:
        try:
            return self._materializations[name]
        except KeyError:
            raise KeyError(f"no materialization named {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._materializations)

    def on_changes(self, changeset: ChangeSet) -> None:
        """Fan one bus change set out to every materialization."""
        for materialized in self._materializations.values():
            materialized.apply_changes(changeset)

    def on_node_event(self, node_id: str, kind: str) -> None:
        """Chaos/topology change: all cached rows are suspect."""
        for materialized in self._materializations.values():
            materialized.on_node_event(node_id, kind)

    def attach_to_bus(self, bus: InvalidationBus) -> None:
        """Subscribe to the shared invalidation bus."""
        self._bus = bus
        bus.subscribe_deltas(self.on_changes)
        bus.subscribe_node_events(self.on_node_event)

    def refresh_all(self) -> int:
        """Bring every stale view current (full refresh or delta fold);
        returns how many were stale."""
        refreshed = 0
        for materialized in self._materializations.values():
            if not materialized.is_fresh:
                materialized.rows()
                refreshed += 1
        return refreshed
