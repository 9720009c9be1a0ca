"""Tests for materialized query results (Sections 3.2 / 3.4)."""

import pytest

from repro.cache.bus import InvalidationBus
from repro.model.converters import from_relational_row
from repro.model.document import DocumentKind
from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.materialized import MaterializationManager, MaterializedQuery
from repro.storage.replication import ReliabilityClass, class_for_kind
from repro.storage.store import DocumentStore


@pytest.fixture
def setup():
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("orders", "orders", ["oid", "region", "amount"]))
    repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
    for i in range(20):
        store.put(from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "region": "east" if i % 2 else "west", "amount": float(i)},
        ))
    engine = QueryEngine(repo)
    bus = InvalidationBus()
    bus.attach_store(store)
    manager = MaterializationManager(engine)
    manager.attach_to_bus(bus)
    return store, engine, manager


SQL = "SELECT region, sum(amount) AS total FROM orders GROUP BY region"


class TestMaterializedQuery:
    def test_first_read_refreshes(self, setup):
        _, engine, manager = setup
        mv = manager.define("by_region", SQL)
        rows = mv.rows()
        assert {r["region"] for r in rows} == {"east", "west"}
        assert mv.stats.refreshes == 1
        assert mv.is_fresh

    def test_cache_hit_on_second_read(self, setup):
        _, _, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        mv.rows()
        assert mv.stats.refreshes == 1
        assert mv.stats.cache_hits == 1

    def test_dependency_write_invalidates(self, setup):
        store, engine, manager = setup
        mv = manager.define("by_region", SQL)
        before = mv.rows()
        store.put(from_relational_row("o99", "orders",
                                      {"oid": 99, "region": "east", "amount": 1000.0}))
        assert not mv.is_fresh
        after = mv.rows()
        east_before = next(r["total"] for r in before if r["region"] == "east")
        east_after = next(r["total"] for r in after if r["region"] == "east")
        assert east_after == east_before + 1000.0

    def test_unrelated_write_keeps_cache(self, setup):
        store, _, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        store.put(from_relational_row("c1", "customers", {"cid": 1, "name": "Acme"}))
        assert mv.is_fresh
        mv.rows()
        assert mv.stats.refreshes == 1

    def test_join_dependencies_tracked(self, setup):
        store, engine, manager = setup
        mv = manager.define(
            "joined",
            "SELECT name, amount FROM orders JOIN customers ON cid = cid",
        )
        assert mv.dependencies == frozenset({"orders", "customers"})
        mv.rows()
        store.put(from_relational_row("c2", "customers", {"cid": 2, "name": "Beta"}))
        assert not mv.is_fresh

    def test_cached_result_equals_direct(self, setup):
        _, engine, manager = setup
        mv = manager.define("by_region", SQL)
        assert mv.rows() == engine.sql(SQL).rows

    def test_returned_rows_are_copies(self, setup):
        _, _, manager = setup
        mv = manager.define("by_region", SQL)
        rows = mv.rows()
        rows.append({"region": "tampered"})
        assert all(r["region"] != "tampered" for r in mv.rows())

    def test_name_required(self, setup):
        _, engine, _ = setup
        with pytest.raises(ValueError):
            MaterializedQuery("", SQL, engine)


class TestPersistedState:
    def test_to_document_is_derived_bronze(self, setup):
        store, _, manager = setup
        mv = manager.define("by_region", SQL)
        doc = mv.to_document("mv-1")
        assert doc.kind is DocumentKind.DERIVED
        assert class_for_kind(doc.kind) is ReliabilityClass.BRONZE
        assert doc.first(("materialized", "sql")) == SQL
        stored = store.put(doc)
        assert stored.ingest_ts > 0

    def test_persisted_rows_match(self, setup):
        _, _, manager = setup
        mv = manager.define("by_region", SQL)
        doc = mv.to_document("mv-1")
        assert doc.content["materialized"]["rows"] == mv.rows()


class TestManager:
    def test_duplicate_name_rejected(self, setup):
        _, _, manager = setup
        manager.define("x", SQL)
        with pytest.raises(ValueError):
            manager.define("x", SQL)

    def test_get_unknown_raises(self, setup):
        _, _, manager = setup
        with pytest.raises(KeyError):
            manager.get("ghost")

    def test_refresh_all_only_dirty(self, setup):
        store, _, manager = setup
        a = manager.define("a", SQL)
        b = manager.define("b", "SELECT count(*) AS n FROM customers")
        a.rows()
        b.rows()
        store.put(from_relational_row("o50", "orders",
                                      {"oid": 50, "region": "east", "amount": 1.0}))
        refreshed = manager.refresh_all()
        assert refreshed == 1  # only the orders-dependent one
        assert manager.names() == ["a", "b"]


class TestLostInvalidation:
    """Regression: ``refresh`` used to clear ``_dirty`` *after* the
    recompute, erasing any invalidation that fired while the refresh SQL
    ran — the cache then served stale rows as fresh forever."""

    def test_invalidation_during_refresh_survives(self, setup):
        store, engine, manager = setup
        mv = manager.define("by_region", SQL)

        class PutDuringSql:
            """Engine wrapper whose sql() ingests mid-flight, standing in
            for a concurrent writer or a piggybacked discovery put."""

            def __init__(self, inner):
                self.inner = inner
                self.fired = False

            def sql(self, sql):
                result = self.inner.sql(sql)
                if not self.fired:
                    self.fired = True
                    store.put(from_relational_row(
                        "o-mid", "orders",
                        {"oid": 500, "region": "east", "amount": 42.0}))
                return result

        mv.engine = PutDuringSql(engine)
        mv.refresh()
        # the mid-refresh write must leave the cache marked stale ...
        assert not mv.is_fresh
        # ... so the next read recomputes and sees the new row
        mv.engine = engine
        east = next(r["total"] for r in mv.rows() if r["region"] == "east")
        assert east == sum(float(i) for i in range(20) if i % 2) + 42.0
        assert mv.is_fresh

    def test_failed_refresh_leaves_the_view_stale(self, setup):
        store, engine, manager = setup
        mv = manager.define("by_region", SQL + " LIMIT 10")  # engine-answered
        mv.rows()
        store.put(from_relational_row(
            "o-late", "orders", {"oid": 600, "region": "east", "amount": 42.0}))

        class Broken:
            def sql(self, sql):
                raise RuntimeError("engine down")

        mv.engine = Broken()
        with pytest.raises(RuntimeError):
            mv.rows()
        assert not mv.is_fresh
        mv.engine = engine
        east = next(r["total"] for r in mv.rows() if r["region"] == "east")
        assert east == sum(float(i) for i in range(20) if i % 2) + 42.0

    def test_persisting_own_state_does_not_self_invalidate(self, setup):
        store, engine, manager = setup
        # a materialization whose own persisted table is (pathologically)
        # in its dependency set: the materialization-metadata exemption is
        # what keeps it from staying dirty forever.  LIMIT keeps it off
        # the maintainer: this exercises table-level dependency
        # invalidation, which the incremental maintainer deliberately
        # narrows (a write the view cannot see leaves it fresh).
        mv = manager.define("by_region", SQL + " LIMIT 10")
        mv._dependencies = mv._dependencies | {"mv_by_region"}
        mv.rows()
        assert mv.is_fresh and not mv.is_maintainable
        store.put(mv.to_document("mv-doc-1"))
        assert mv.is_fresh  # own persist exempt
        # a put to the same table from anything else still invalidates
        store.put(from_relational_row(
            "foreign", "mv_by_region", {"region": "east", "total": 1.0}))
        assert not mv.is_fresh


class TestManagerBus:
    def test_node_event_invalidates_all(self, setup):
        _, _, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        assert mv.is_fresh
        manager.on_node_event("data-0", "crash")
        assert not mv.is_fresh

    def test_attach_to_shared_bus(self, setup):
        store, engine, _ = setup
        bus = InvalidationBus()
        manager = MaterializationManager(engine)
        manager.attach_to_bus(bus)
        mv = manager.define("shared", SQL)
        mv.rows()
        bus.publish_put(from_relational_row(
            "o-x", "orders", {"oid": 900, "region": "west", "amount": 2.0}))
        assert not mv.is_fresh
        mv.rows()
        bus.publish_node_event("data-1", "partition")
        assert not mv.is_fresh
