"""Integration tests: the Impliance facade end-to-end (Figures 1 & 2)."""

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.core.upgrades import UpgradePolicy
from repro.discovery.relationships import RelationshipRule
from repro.index.facets import metadata_facet
from repro.model.views import annotation_view


class TestOutOfTheBox:
    def test_constructor_is_full_deployment(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        assert app.doc_count == 0
        assert app.health()["admin_actions"] == 0
        assert len(app.cluster.data_nodes) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ApplianceConfig(n_data_nodes=0)
        with pytest.raises(ValueError):
            ApplianceConfig(buffer_capacity=0)


class TestStewingPot:
    """Section 2.2: throw anything in, ladle it out unchanged."""

    def test_ingest_all_formats(self, tiny_app):
        tiny_app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
        tiny_app.ingest("plain prose")
        tiny_app.ingest("From: a@b.c\nSubject: s\n\nbody")
        tiny_app.ingest("<r><v>1</v></r>")
        tiny_app.ingest("lvl,msg\ninfo,started\n", table="log")
        tiny_app.ingest({"anything": {"nested": True}})
        assert tiny_app.doc_count == 6

    def test_rows_queryable_immediately_no_schema(self, tiny_app):
        """Figure 2: 'the row can immediately be queried by SQL and
        retrieved without change' — and no view was ever defined."""
        tiny_app.ingest({"pid": 1, "name": "WidgetPro", "price": 19.5}, table="products")
        rows = tiny_app.sql("SELECT pid, name, price FROM products").rows
        assert rows == [{"pid": 1, "name": "WidgetPro", "price": 19.5}]

    def test_auto_view_widens_with_schema_drift(self, tiny_app):
        tiny_app.ingest({"pid": 1, "name": "A"}, table="products")
        tiny_app.ingest({"pid": 2, "name": "B", "color": "red"}, table="products")
        rows = tiny_app.sql("SELECT pid, color FROM products ORDER BY pid").rows
        assert rows == [{"pid": 1, "color": None}, {"pid": 2, "color": "red"}]

    def test_keyword_search_out_of_the_box(self, tiny_app):
        tiny_app.ingest("the delivery was delayed by a snowstorm")
        hits = tiny_app.search("snowstorm")
        assert len(hits) == 1
        assert "snowstorm" in hits[0].document.text


class TestDiscoveryEnrichment:
    """Figure 1: ingest → discover → enriched retrieval."""

    def test_discovery_creates_annotations_and_edges(self, tiny_app):
        tiny_app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
        tiny_app.add_relationship_rule(
            RelationshipRule("mentions", "product_mention", "product", ("products", "name"))
        )
        tiny_app.ingest("Ms. Alice Johnson says the WidgetPro is excellent")
        processed = tiny_app.discover()
        assert processed == 2
        health = tiny_app.health()
        assert health["annotations"] > 0
        assert health["join_edges"] > 0
        assert health["discovery_backlog"] == 0

    def test_annotations_exposed_through_sql_view(self, tiny_app):
        doc = tiny_app.ingest("the GadgetMax is terrible and broken")
        tiny_app.discover()
        tiny_app.define_view(annotation_view("sentiments", "sentiment", ["polarity", "score"]))
        rows = tiny_app.sql(
            "SELECT subject_id, polarity FROM sentiments WHERE polarity = 'negative'"
        ).rows
        assert {"subject_id": doc.doc_id, "polarity": "negative"} in rows

    def test_connection_query_after_discovery(self, tiny_app):
        product = tiny_app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
        tiny_app.add_relationship_rule(
            RelationshipRule("mentions", "product_mention", "product", ("products", "name"))
        )
        transcript = tiny_app.ingest("customer loves the WidgetPro")
        tiny_app.discover()
        connection = tiny_app.graph().how_connected(transcript.doc_id, product.doc_id)
        assert connection is not None
        assert connection.hops == 1

    def test_background_discovery_interleaves(self, tiny_app):
        for i in range(20):
            tiny_app.ingest(f"transcript {i} about the WidgetPro, excellent")
        tasks = tiny_app.schedule_discovery(batch=5)
        assert tasks == 4
        while tiny_app.background.pending_background:
            tiny_app.run_background(50.0)
        assert tiny_app.discovery.backlog == 0
        assert tiny_app.discovery.stats.annotations_created > 0


class TestVersionedUpdates:
    def test_update_never_in_place(self, tiny_app):
        doc = tiny_app.ingest({"pid": 1, "name": "Old"}, table="products")
        updated = tiny_app.update_document(doc.doc_id, {"products": {"pid": 1, "name": "New"}})
        assert updated.version == 2
        home = tiny_app.cluster.home_of(doc.doc_id)
        history = home.store.history(doc.doc_id)
        assert len(history) == 2
        assert history.get(1).first(("products", "name")) == "Old"

    def test_update_missing_raises(self, tiny_app):
        with pytest.raises(LookupError):
            tiny_app.update_document("ghost", {"x": 1})

    def test_search_sees_only_latest(self, tiny_app):
        doc = tiny_app.ingest("obsolete marker alpha")
        tiny_app.update_document(doc.doc_id, {"document": {"body": "fresh marker beta"}})
        assert tiny_app.search("alpha") == []
        assert tiny_app.search("beta")[0].doc_id == doc.doc_id


class TestFacetedInterface:
    def test_session_over_appliance(self, tiny_app):
        tiny_app.ingest({"oid": 1, "region": "east"}, table="orders")
        tiny_app.ingest("some text")
        session = tiny_app.faceted()
        counts = dict(session.facet_counts("format"))
        assert counts["relational"] == 1
        session.drill("format", "text")
        assert session.count() == 1

    def test_custom_facet_backfills(self, tiny_app):
        tiny_app.ingest({"oid": 1, "region": "east"}, table="orders")
        tiny_app.define_facet(metadata_facet("by_table", "table"))
        session = tiny_app.faceted()
        assert dict(session.facet_counts("by_table")) == {"orders": 1}


class TestOperations:
    def test_rolling_upgrade_respects_policy(self, tiny_app):
        report = tiny_app.upgrade_software("v2.0", UpgradePolicy(max_offline_fraction=0.5))
        assert report.nodes_upgraded == 4  # 2 data + 1 grid + 1 cluster
        assert report.wave_count >= 2

    def test_node_failure_keeps_data_available(self):
        app = Impliance(ApplianceConfig(n_data_nodes=3, n_grid_nodes=1))
        docs = [app.ingest(f"document number {i}") for i in range(30)]
        victim = app.cluster.data_nodes[0].node_id
        rehomed = app.fail_node(victim)
        assert victim not in app.cluster.inventory.data_nodes
        assert app.health()["admin_actions"] == 0
        # every document survives the failure, with its history intact
        assert rehomed > 0
        assert all(app.lookup(d.doc_id) is not None for d in docs)

    def test_failure_preserves_version_history(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        doc = app.ingest({"k": 1, "v": "original"}, table="t", doc_id="keep")
        app.update_document("keep", {"t": {"k": 1, "v": "revised"}})
        victim = app.cluster.home_of("keep").node_id
        app.fail_node(victim)
        new_home = app.cluster.home_of("keep")
        chain = new_home.store.history("keep")
        assert [d.version for d in chain] == [1, 2]
        assert chain.get(1).first(("t", "v")) == "original"

    def test_failure_does_not_duplicate_discovery(self):
        app = Impliance(ApplianceConfig(
            n_data_nodes=3, n_grid_nodes=1, product_lexicon=("WidgetPro",)
        ))
        for i in range(20):
            app.ingest(f"note {i} about the WidgetPro")
        app.discover()
        created = app.discovery.stats.annotations_created
        app.fail_node(app.cluster.data_nodes[0].node_id)
        app.discover()
        assert app.discovery.stats.annotations_created == created

    def test_health_report_shape(self, tiny_app):
        health = tiny_app.health()
        assert set(health) >= {
            "topology", "documents", "discovery_backlog",
            "annotations", "join_edges", "admin_actions",
        }
