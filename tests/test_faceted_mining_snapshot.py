"""Tests for guided-search mining ops and time-travel snapshots."""

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.index.facets import path_facet, source_format_facet
from repro.model.converters import from_relational_row, from_text
from repro.query.engine import LocalRepository
from repro.query.faceted import FacetedSession
from repro.query.snapshot import SnapshotRepository
from repro.storage.store import DocumentStore


@pytest.fixture
def mining_repo():
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.indexes.facets.define(source_format_facet())
    repo.indexes.facets.define(path_facet("region", ("orders", "region")))
    repo.indexes.facets.define(path_facet("status", ("orders", "status")))
    store.put_listeners.append(lambda d, a: repo.indexes.index_document(d))
    for i in range(12):
        store.put(from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "region": "east" if i < 8 else "west",
             "status": "returned" if (i < 8 and i % 2 == 0) else "shipped",
             "amount": 100.0 + i},
        ))
    store.put(from_relational_row(
        "o-big", "orders",
        {"oid": 99, "region": "east", "status": "shipped", "amount": 50_000.0},
    ))
    store.put(from_text("t0", "defect reports keep mentioning the hinge assembly"))
    store.put(from_text("t1", "another hinge defect flagged by the dock team"))
    return repo


class TestGuidedMining:
    def test_related_terms_within_selection(self, mining_repo):
        session = FacetedSession(mining_repo)
        session.drill("format", "text")
        terms = dict(session.related_terms(top=10))
        assert terms.get("hinge") == 2
        assert terms.get("defect") == 2

    def test_related_terms_respect_drill(self, mining_repo):
        session = FacetedSession(mining_repo)
        session.drill("region", "west")
        terms = dict(session.related_terms(top=20))
        assert "hinge" not in terms  # text docs have no region facet

    def test_correlate_facets(self, mining_repo):
        session = FacetedSession(mining_repo)
        pairs = session.correlate("region", "status")
        as_map = {(a, b): n for a, b, n in pairs}
        assert as_map[("east", "returned")] == 4
        assert as_map[("west", "shipped")] == 4
        assert ("west", "returned") not in as_map

    def test_exceptions_within_selection(self, mining_repo):
        session = FacetedSession(mining_repo)
        session.drill("region", "east")
        flagged = session.exceptions(("orders", "amount"), z_threshold=2.0)
        assert flagged and flagged[0][0] == "o-big"

    def test_exceptions_need_enough_data(self, mining_repo):
        session = FacetedSession(mining_repo)
        session.drill("region", "west")
        session.drill("status", "returned")  # empty selection
        assert session.exceptions(("orders", "amount")) == []


class TestSnapshotRepository:
    def test_snapshot_over_bare_store(self):
        store = DocumentStore()
        v1 = store.put(from_relational_row("p1", "prices", {"sku": 1, "price": 10.0}))
        ts = store.clock.now
        store.update("p1", {"prices": {"sku": 1, "price": 99.0}})
        snapshot = SnapshotRepository(store, ts)
        assert snapshot.lookup("p1").first(("prices", "price")) == 10.0

    def test_documents_created_later_invisible(self):
        store = DocumentStore()
        store.put(from_relational_row("a", "t", {"x": 1}))
        ts = store.clock.now
        store.put(from_relational_row("b", "t", {"x": 2}))
        snapshot = SnapshotRepository(store, ts)
        assert {d.doc_id for d in snapshot.documents()} == {"a"}
        assert snapshot.lookup("b") is None

    def test_appliance_as_of_sql(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        app.ingest({"sku": 1, "price": 100.0}, table="prices", doc_id="p1")
        app.ingest({"sku": 2, "price": 200.0}, table="prices", doc_id="p2")
        ts = app.cluster.clock.now
        app.update_document("p1", {"prices": {"sku": 1, "price": 150.0}})
        app.ingest({"sku": 3, "price": 300.0}, table="prices", doc_id="p3")

        then = app.as_of(ts).sql("SELECT sku, price FROM prices ORDER BY sku").rows
        now = app.sql("SELECT sku, price FROM prices ORDER BY sku").rows
        assert then == [{"sku": 1, "price": 100.0}, {"sku": 2, "price": 200.0}]
        assert len(now) == 3
        assert now[0]["price"] == 150.0

    def test_snapshot_joins_fall_back_to_hash(self):
        """No head indexes leak into the past: plans become scan-based."""
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        app.ingest({"cid": 1, "name": "Acme"}, table="customers")
        app.ingest({"oid": 1, "cid": 1, "amount": 10.0}, table="orders")
        ts = app.cluster.clock.now
        app.ingest({"oid": 2, "cid": 1, "amount": 99.0}, table="orders")
        snapshot = app.as_of(ts)
        result = snapshot.sql(
            "SELECT name, amount FROM orders JOIN customers ON cid = cid"
        )
        assert result.rows == [{"name": "Acme", "amount": 10.0}]
        assert "HashJoin" in result.plan_text

    def test_snapshot_at_time_zero_empty(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        app.ingest({"x": 1}, table="t")
        assert app.as_of(0).doc_count() == 0


class TestSnapshotLookupAcrossStores:
    """Regression: ``SnapshotRepository.lookup`` used to stop at the
    first store whose ``contains`` matched — wrong whenever a document's
    chain exists on several stores (re-homing, stale replicas) and the
    first-checked copy either can't see the pinned time or holds an
    older version than another store."""

    @staticmethod
    def _source(*stores):
        from types import SimpleNamespace

        return SimpleNamespace(
            data_nodes=[SimpleNamespace(store=s) for s in stores]
        )

    def test_best_visible_version_wins_over_stale_replica(self):
        from repro.util import LogicalClock

        clock = LogicalClock()
        stale = DocumentStore(clock=clock)
        stale.put(from_relational_row("p1", "prices", {"sku": 1, "price": 10.0}))
        stale.update("p1", {"prices": {"sku": 1, "price": 20.0}})
        # re-home the chain onto a second store, which then takes a write
        # the stale copy never sees
        fresh = DocumentStore(clock=clock)
        fresh.put_many(stale.history("p1"))
        fresh.update("p1", {"prices": {"sku": 1, "price": 30.0}})

        ts = clock.now
        # stale store listed first: the old code returned its v2
        snapshot = SnapshotRepository(self._source(stale, fresh), ts)
        doc = snapshot.lookup("p1")
        assert doc.version == 3
        assert doc.first(("prices", "price")) == 30.0

    def test_invisible_chain_does_not_mask_other_store(self):
        # the first store *contains* the doc but none of its versions are
        # visible at the pinned time; the second store has one that is
        late = DocumentStore()
        for _ in range(5):
            late.clock.tick()
        late.put(from_relational_row("q", "t", {"x": "late"}))   # ingest_ts 6
        early = DocumentStore()
        early.put(from_relational_row("q", "t", {"x": "early"}))  # ingest_ts 1

        snapshot = SnapshotRepository(self._source(late, early), ts=3)
        doc = snapshot.lookup("q")
        assert doc is not None
        assert doc.first(("t", "x")) == "early"

    def test_absent_everywhere_is_none(self):
        store = DocumentStore()
        store.put(from_relational_row("a", "t", {"x": 1}))
        snapshot = SnapshotRepository(self._source(store, DocumentStore()),
                                      ts=store.clock.now)
        assert snapshot.lookup("ghost") is None
