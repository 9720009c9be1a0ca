"""Incremental view maintenance + continuous queries (unit tier).

Covers the delta layer end to end: bus change sets and coalescing edge
cases, tombstone deletes, the ``ViewMaintainer`` incremental/fallback
split, the mid-refresh race guard on the maintainer path, and standing
queries (SQL and search) through ``Session.subscribe``.  The
differential property harness lives in ``tests/test_ivm_properties.py``.
"""

import pytest

from repro.storage.bus import ChangeSet, InvalidationBus, change_of
from repro.core.appliance import Impliance
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.ivm import NonMaintainable, ViewMaintainer, analyze
from repro.query.materialized import MaterializationManager
from repro.query.sql import parse_sql
from repro.storage.store import DocumentStore

pytestmark = pytest.mark.ivm


def order_doc(i, region="east", amount=1.0):
    return from_relational_row(
        f"o{i}", "orders", {"oid": i, "region": region, "amount": float(amount)}
    )


def reput(store, i, region="east", amount=1.0):
    """Version-correct update of an existing order document."""
    fresh = order_doc(i, region, amount)
    head = store.versions.head(fresh.doc_id)
    return store.put(head.new_version(fresh.content, fresh.metadata))


@pytest.fixture
def setup():
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("orders", "orders", ["oid", "region", "amount"]))
    for i in range(10):
        store.put(order_doc(i, "east" if i % 2 else "west", float(i)))
    bus = store.feed
    engine = QueryEngine(repo)
    manager = MaterializationManager(engine)
    manager.attach_to_bus(bus)
    return store, bus, engine, manager


SQL = "SELECT region, sum(amount) AS total FROM orders GROUP BY region"


# ----------------------------------------------------------------------
# bus deltas + tombstones
# ----------------------------------------------------------------------
class TestBusDeltas:
    def test_change_classification(self, setup):
        store, *_ = setup
        live = store.lookup("o1")
        assert change_of(live).op == "upsert"
        tomb = store.delete("o1")
        change = change_of(tomb)
        assert change.is_delete and change.doc_id == "o1"
        # the tombstone keeps table metadata for precise invalidation
        assert change.table == "orders"

    def test_changeset_carries_epoch_and_tables(self):
        bus = InvalidationBus()
        seen = []
        bus.subscribe_deltas(seen.append)
        bus.publish_put_batch([order_doc(100), order_doc(101)])
        assert len(seen) == 1
        changeset = seen[0]
        assert isinstance(changeset, ChangeSet)
        assert changeset.epoch == bus.epoch == 1
        assert changeset.tables == {"orders"}
        assert len(changeset) == 2

    def test_delete_counted_in_stats(self, setup):
        store, bus, *_ = setup
        before = bus.stats.delete_documents
        store.delete("o2")
        assert bus.stats.delete_documents == before + 1

    def test_tombstone_store_semantics(self, setup):
        store, *_ = setup
        assert store.lookup("o3") is not None
        store.delete("o3")
        assert store.lookup("o3") is None
        assert all(d.doc_id != "o3" for d in store.scan(latest_only=True))
        # history survives the delete (append-only store)
        assert store.versions.head("o3").is_tombstone
        # idempotent: a second delete appends nothing new
        version = store.versions.chain("o3").head_version
        store.delete("o3")
        assert store.versions.chain("o3").head_version == version
        # a later versioned put resurrects the document
        reput(store, 3, "west", 99.0)
        assert store.lookup("o3") is not None
        assert not store.lookup("o3").is_tombstone


# ----------------------------------------------------------------------
# coalescing edge cases (satellite: bus unit tests)
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_nested_windows_emit_once(self):
        bus = InvalidationBus()
        seen = []
        bus.subscribe_deltas(seen.append)
        with bus.coalescing():
            bus.publish_put_batch([order_doc(1)])
            with bus.coalescing():
                bus.publish_put_batch([order_doc(2)])
            # inner exit must not emit
            assert seen == []
            bus.publish_put_batch([order_doc(3)])
        assert len(seen) == 1
        assert [c.doc_id for c in seen[0]] == ["o1", "o2", "o3"]
        assert bus.epoch == 1

    def test_exception_still_emits_exactly_one_epoch(self):
        bus = InvalidationBus()
        seen = []
        bus.subscribe_deltas(seen.append)
        with pytest.raises(RuntimeError):
            with bus.coalescing():
                bus.publish_put_batch([order_doc(1)])
                bus.publish_put_batch([order_doc(2)])
                raise RuntimeError("mid-batch failure")
        # the documents published before the failure are durable — their
        # invalidation must not be lost, and must cost exactly one epoch
        assert len(seen) == 1 and bus.epoch == 1
        assert [c.doc_id for c in seen[0]] == ["o1", "o2"]
        # the window is fully closed: the next put is its own epoch
        bus.publish_put_batch([order_doc(3)])
        assert bus.epoch == 2 and len(seen) == 2

    def test_subscriber_registered_mid_window_sees_coalesced_delta(self):
        bus = InvalidationBus()
        late = []
        with bus.coalescing():
            bus.publish_put_batch([order_doc(1)])
            bus.subscribe_deltas(late.append)  # registered after first put
            bus.publish_put_batch([order_doc(2)])
        assert len(late) == 1
        assert [c.doc_id for c in late[0]] == ["o1", "o2"]

    def test_empty_window_emits_nothing(self):
        bus = InvalidationBus()
        seen = []
        bus.subscribe_deltas(seen.append)
        with bus.coalescing():
            pass
        assert seen == [] and bus.epoch == 0

    def test_node_event_inside_window_is_not_held(self):
        # node events change data *visibility*, not content — they must
        # not wait for the put window to close
        bus = InvalidationBus()
        events = []
        bus.subscribe_node_events(lambda n, k: events.append(k))
        with bus.coalescing():
            bus.publish_put_batch([order_doc(1)])
            bus.publish_node_event("n0", "corrupt")
            assert events == ["corrupt"]


# ----------------------------------------------------------------------
# the maintainer: plan analysis + incremental application
# ----------------------------------------------------------------------
class TestAnalyze:
    def test_maintainable_shapes(self):
        for sql in (
            "SELECT * FROM orders",
            "SELECT oid, amount FROM orders WHERE amount > 3",
            SQL,
            SQL + " ORDER BY region",
            "SELECT region, sum(amount) AS t FROM orders GROUP BY region"
            " HAVING t > 5 ORDER BY t DESC",
            "SELECT DISTINCT region FROM orders",
        ):
            assert analyze(parse_sql(sql)) is not None, sql

    def test_non_maintainable_shapes(self):
        for sql in (
            "SELECT * FROM orders JOIN customers ON orders.cid = customers.cid",
            "SELECT oid FROM orders ORDER BY oid LIMIT 3",
        ):
            assert analyze(parse_sql(sql)) is None, sql


class TestViewMaintainer:
    def test_incremental_equals_rebuild(self, setup):
        store, bus, engine, manager = setup
        plan = analyze(parse_sql(SQL))
        maintainer = ViewMaintainer(plan, engine.repository)
        maintainer.rebuild()
        before = maintainer.evaluate()

        changes = [change_of(store.put(order_doc(50, "east", 500.0)))]
        assert maintainer.apply(maintainer.relevant(changes)) == 1
        incremental = maintainer.evaluate()

        fresh = ViewMaintainer(plan, engine.repository)
        fresh.rebuild()
        assert incremental == fresh.evaluate()
        assert incremental != before

    def test_delete_and_filtered_update(self, setup):
        store, bus, engine, manager = setup
        plan = analyze(parse_sql("SELECT oid FROM orders WHERE amount > 3"))
        maintainer = ViewMaintainer(plan, engine.repository)
        maintainer.rebuild()
        assert {r["oid"] for r in maintainer.evaluate()} == {4, 5, 6, 7, 8, 9}
        # an update that drops a row below the filter removes it
        maintainer.apply([change_of(reput(store, 5, "east", 1.0))])
        assert {r["oid"] for r in maintainer.evaluate()} == {4, 6, 7, 8, 9}
        # a tombstone removes its row
        maintainer.apply([change_of(store.delete("o4"))])
        assert {r["oid"] for r in maintainer.evaluate()} == {6, 7, 8, 9}

    def test_irrelevant_change_is_filtered(self, setup):
        store, bus, engine, manager = setup
        plan = analyze(parse_sql(SQL))
        maintainer = ViewMaintainer(plan, engine.repository)
        maintainer.rebuild()
        other = from_relational_row("c1", "customers", {"cid": 1, "name": "a"})
        assert maintainer.relevant([change_of(other)]) == []

    def test_apply_before_build_raises(self, setup):
        store, bus, engine, manager = setup
        maintainer = ViewMaintainer(analyze(parse_sql(SQL)), engine.repository)
        with pytest.raises(NonMaintainable):
            maintainer.apply([change_of(store.lookup("o1"))])

    def test_redefined_view_raises(self, setup):
        store, bus, engine, manager = setup
        maintainer = ViewMaintainer(analyze(parse_sql(SQL)), engine.repository)
        maintainer.rebuild()
        engine.repository.views.replace(
            base_table_view("orders", "orders", ["oid", "region", "amount", "extra"])
        )
        with pytest.raises(NonMaintainable):
            maintainer.apply([change_of(store.put(order_doc(60)))])


# ----------------------------------------------------------------------
# MaterializedQuery on the delta path
# ----------------------------------------------------------------------
class TestIncrementalMaterialization:
    def test_delta_applied_without_refresh(self, setup):
        store, bus, engine, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        assert mv.is_maintainable and mv.stats.refreshes == 1
        store.put(order_doc(70, "east", 1000.0))
        assert not mv.is_fresh  # a read must fold the delta
        east = next(r["total"] for r in mv.rows() if r["region"] == "east")
        assert east == 1 + 3 + 5 + 7 + 9 + 1000.0
        assert mv.stats.refreshes == 1  # no full recompute happened
        assert mv.stats.deltas_applied == 1
        assert mv.stats.incremental_serves == 1

    def test_delete_maintains_aggregate(self, setup):
        store, bus, engine, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        store.delete("o9")  # east, amount 9.0
        east = next(r["total"] for r in mv.rows() if r["region"] == "east")
        assert east == 1 + 3 + 5 + 7
        assert mv.stats.refreshes == 1

    def test_join_falls_back_to_full_refresh(self, setup):
        store, bus, engine, manager = setup
        engine.repository.views.define(
            base_table_view("customers", "customers", ["cid", "name"])
        )
        mv = manager.define(
            "joined",
            "SELECT * FROM orders JOIN customers ON orders.oid = customers.cid",
        )
        mv.rows()
        assert not mv.is_maintainable
        store.put(order_doc(80))
        assert not mv.is_fresh
        mv.rows()
        assert mv.stats.refreshes == 2 and mv.stats.deltas_applied == 0

    def test_node_event_forces_fallback(self, setup):
        store, bus, engine, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        bus.publish_node_event("n0", "corrupt")
        assert not mv.is_fresh and mv.stats.fallbacks == 1
        mv.rows()
        assert mv.stats.refreshes == 2

    def test_delta_during_refresh_is_not_lost(self, setup):
        """Satellite: the refresh race gap on the maintainer path.  A
        change set arriving while a full refresh is in flight must leave
        the view dirty (the rebuild may or may not have scanned it), and
        the next read must converge — the delta is never silently lost
        or double-applied."""
        store, bus, engine, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        maintainer = mv._maintainer
        original_rebuild = maintainer.rebuild
        fired = []

        def rebuild_with_concurrent_put():
            original_rebuild()
            if not fired:
                fired.append(True)
                # lands after the scan: the rebuilt base does NOT include
                # it, and the bus delta arrives while _refreshing is set
                store.put(order_doc(99, "east", 42.0))

        maintainer.rebuild = rebuild_with_concurrent_put
        mv.invalidate()
        rows = mv.rows()  # the racing refresh
        assert fired
        # mid-refresh delta survived as dirtiness: served rows are the
        # pre-put state, but the view knows it is stale
        assert not mv.is_fresh
        maintainer.rebuild = original_rebuild
        east = next(r["total"] for r in mv.rows() if r["region"] == "east")
        assert east == 1 + 3 + 5 + 7 + 9 + 42.0
        assert mv.is_fresh
        del rows

    def test_epoch_guard_when_rebuild_scans_the_racing_put(self, setup):
        """Even if the racing put IS visible to the rebuild scan (it beat
        the scan to the store), the epoch moved — the guard keeps the view
        dirty rather than guessing, and the next refresh converges."""
        store, bus, engine, manager = setup
        mv = manager.define("by_region", SQL)
        mv.rows()
        epoch_before = manager.epoch
        maintainer = mv._maintainer
        original_rebuild = maintainer.rebuild
        fired = []

        def put_then_rebuild():
            if not fired:
                fired.append(True)
                store.put(order_doc(98, "west", 11.0))
            original_rebuild()

        maintainer.rebuild = put_then_rebuild
        mv.invalidate()
        mv.rows()
        assert manager.epoch > epoch_before
        assert not mv.is_fresh
        maintainer.rebuild = original_rebuild
        west = next(r["total"] for r in mv.rows() if r["region"] == "west")
        assert west == 0 + 2 + 4 + 6 + 8 + 11.0


# ----------------------------------------------------------------------
# appliance integration: deletes, subscriptions, sessions
# ----------------------------------------------------------------------
class TestApplianceDeletes:
    def test_delete_document(self):
        app = Impliance()
        doc = app.ingest({"oid": 1, "region": "east", "amount": 5.0}, table="orders")
        tomb = app.delete_document(doc.doc_id)
        assert tomb.is_tombstone
        assert app.lookup(doc.doc_id) is None
        rows = app.sql("SELECT count(*) AS n FROM orders").rows
        assert rows == [] or rows[0]["n"] == 0

    def test_delete_unknown_raises(self):
        app = Impliance()
        with pytest.raises(LookupError):
            app.delete_document("nope")

    def test_delete_removes_from_search(self):
        app = Impliance()
        app.ingest("the quarterly audit report", doc_id="memo-1")
        assert app.search("audit").hits
        app.delete_document("memo-1")
        assert not app.search("audit").hits

    def test_batched_deletes_through_pipeline(self):
        app = Impliance()
        docs = app.ingest_many(
            [{"oid": i, "region": "east", "amount": float(i)} for i in range(6)],
            table="orders",
        )
        mv = app.materializations.define(
            "totals", "SELECT sum(amount) AS total FROM orders"
        )
        assert mv.rows()[0]["total"] == 15.0
        for d in docs[:3]:
            app.delete_document(d.doc_id)
        assert mv.rows()[0]["total"] == 3.0 + 4.0 + 5.0
        assert mv.stats.refreshes == 1  # all three deletes folded as deltas


class TestSubscriptions:
    def make_app(self):
        app = Impliance()
        app.ingest_many(
            [
                {"oid": i, "region": "east" if i % 2 else "west", "amount": float(i)}
                for i in range(8)
            ],
            table="orders",
        )
        return app

    def test_sql_subscription_initial_snapshot_and_delta(self):
        app = self.make_app()
        deltas = []
        sub = app.subscriptions.subscribe(SQL, on_delta=deltas.append)
        assert sub.kind == "sql"
        assert len(deltas) == 1 and not deltas[0].removed
        snapshot = {r["region"]: r["total"] for r in deltas[0].added}
        assert snapshot == {"east": 1 + 3 + 5 + 7, "west": 0 + 2 + 4 + 6}
        app.ingest_many([{"oid": 50, "region": "east", "amount": 100.0}], table="orders")
        assert len(deltas) == 2
        assert {r["region"]: r["total"] for r in deltas[1].added} == {"east": 116.0}
        assert {r["region"]: r["total"] for r in deltas[1].removed} == {"east": 16.0}
        assert sub.view.stats.deltas_applied >= 1

    def test_one_notification_per_ingest_batch(self):
        app = self.make_app()
        deltas = []
        app.subscriptions.subscribe(SQL, on_delta=deltas.append)
        app.ingest_many(
            [{"oid": 60 + i, "region": "east", "amount": 1.0} for i in range(5)],
            table="orders",
        )
        # five documents, one group commit, one coalesced notification
        assert len(deltas) == 2

    def test_irrelevant_table_does_not_notify(self):
        app = self.make_app()
        deltas = []
        app.subscriptions.subscribe(SQL, on_delta=deltas.append)
        app.ingest_many([{"cid": 1, "name": "acme"}], table="customers")
        assert len(deltas) == 1  # still just the initial snapshot

    def test_search_subscription(self):
        app = self.make_app()
        deltas = []
        sub = app.subscriptions.subscribe("incident critical", on_delta=deltas.append)
        assert sub.kind == "search"
        app.ingest("critical incident in the east wing", doc_id="inc-1")
        app.ingest("a calm and ordinary day", doc_id="inc-2")
        added = [d.added for d in deltas if d.added]
        assert added == [("inc-1",)]
        app.delete_document("inc-1")
        assert deltas[-1].removed == ("inc-1",)

    def test_failed_notification_coalesces_into_next_epoch(self):
        app = self.make_app()
        deltas = []
        sub = app.subscriptions.subscribe(SQL, on_delta=deltas.append)
        original = app.serving.execute_inline

        def failing(request):
            if request.kind == "notify":
                raise RuntimeError("delivery failed")
            return original(request)

        app.serving.execute_inline = failing
        app.ingest_many([{"oid": 70, "region": "east", "amount": 10.0}], table="orders")
        assert len(deltas) == 1  # nothing delivered
        assert app.telemetry.value("sub.notify.error") == 1
        app.serving.execute_inline = original
        app.ingest_many([{"oid": 71, "region": "west", "amount": 20.0}], table="orders")
        # the delivered delta covers BOTH epochs relative to the last
        # delivered snapshot — a lagging subscriber coalesces, never loses
        assert len(deltas) == 2
        changed = {r["region"]: r["total"] for r in deltas[1].added}
        assert changed == {"east": 16.0 + 10.0, "west": 12.0 + 20.0}
        assert sub.stats.notifications == 2

    def test_notification_errors_are_counted_by_exception_class(self):
        app = self.make_app()
        app.subscriptions.subscribe(SQL)
        original = app.serving.execute_inline

        def failing(request):
            if request.kind == "notify":
                raise KeyError("missing")
            return original(request)

        app.serving.execute_inline = failing
        app.ingest_many([{"oid": 72, "region": "east", "amount": 1.0}], table="orders")
        app.ingest_many([{"oid": 73, "region": "west", "amount": 1.0}], table="orders")
        assert app.telemetry.value("sub.notify.error") == 2
        assert app.telemetry.value("sub.notify.error.KeyError") == 2

    def test_broken_subscription_never_fails_the_write(self):
        app = self.make_app()
        # LIMIT is answered by the engine on every change, not maintained
        sub = app.subscriptions.subscribe(SQL + " LIMIT 5")
        assert not sub.view.is_maintainable
        app.engine.sql = None  # simulate a broken evaluation path
        # the write must still succeed
        app.ingest_many([{"oid": 80, "region": "east", "amount": 1.0}], table="orders")
        assert app.telemetry.value("sub.notify.error") >= 1

    def test_close_stops_delivery(self):
        app = self.make_app()
        deltas = []
        sub = app.subscriptions.subscribe(SQL, on_delta=deltas.append)
        sub.close()
        assert app.subscriptions.active == 0
        app.ingest_many([{"oid": 90, "region": "east", "amount": 1.0}], table="orders")
        assert len(deltas) == 1

    def test_session_subscribe_and_close(self):
        app = self.make_app()
        with app.connect() as session:
            sub = session.subscribe(SQL)
            assert sub.poll()  # initial snapshot
            session.ingest_many(
                [{"oid": 95, "region": "east", "amount": 2.0}], table="orders"
            )
            assert sub.poll()
        assert sub.closed  # closed with the session
        assert app.subscriptions.active == 0

    def test_notifications_are_discovery_tier(self):
        app = self.make_app()
        kinds = []
        original = app.serving.execute_inline

        def spying(request):
            kinds.append((request.kind, request.qos))
            return original(request)

        app.serving.execute_inline = spying
        app.subscriptions.subscribe(SQL)
        app.ingest_many([{"oid": 96, "region": "east", "amount": 1.0}], table="orders")
        app.serving.execute_inline = original
        assert ("notify", "discovery") in kinds
