"""The unified public surface: one ingest() entry point, one QueryResult
shape, telemetry-backed stats()."""

from __future__ import annotations

import pytest

from repro import ApplianceConfig, Impliance, QueryResult
from repro.model.document import Document

EMAIL = (
    "From: alice@example.com\nTo: bob@example.com\n"
    "Subject: the widget\n\nThe WidgetPro shipped today."
)
XML = "<order><sku>WidgetPro</sku><qty>2</qty></order>"
CSV = "sku,qty\nWidgetPro,2\nGadgetMax,1"


@pytest.fixture
def app():
    return Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))


class TestUnifiedIngest:
    def test_sniffs_text(self, app):
        doc = app.ingest("plain prose about widgets")
        assert doc.source_format == "text"
        assert app.lookup(doc.doc_id) is not None

    def test_sniffs_relational_row(self, app):
        doc = app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
        assert doc.source_format == "relational"
        assert app.sql("SELECT name FROM products").rows == [{"name": "WidgetPro"}]

    def test_sniffs_json_tree(self, app):
        doc = app.ingest({"claim": {"amount": 100}})
        assert doc.source_format == "json"
        assert app.lookup(doc.doc_id).content == {"claim": {"amount": 100}}

    def test_sniffs_xml(self, app):
        doc = app.ingest(XML)
        assert doc.source_format == "xml"
        assert doc.content["order"]["sku"] == "WidgetPro"

    def test_sniffs_email(self, app):
        doc = app.ingest(EMAIL)
        assert doc.source_format == "email"
        assert doc.content["email"]["headers"]["subject"] == "the widget"

    def test_sniffs_csv_when_table_given(self, app):
        docs = app.ingest(CSV, table="orders")
        assert [d.source_format for d in docs] == ["csv", "csv"]
        rows = app.sql("SELECT sku FROM orders ORDER BY sku").rows
        assert rows == [{"sku": "GadgetMax"}, {"sku": "WidgetPro"}]

    def test_document_passthrough(self, app):
        original = Document(doc_id="d1", content={"k": "v"}, source_format="json")
        stored = app.ingest(original)
        assert stored.doc_id == "d1"

    def test_explicit_format_overrides_sniffing(self, app):
        # XML-looking payload forced to be stored as plain text
        doc = app.ingest(XML, "text")
        assert doc.source_format == "text"

    def test_explicit_format_required_args(self, app):
        with pytest.raises(ValueError):
            app.ingest({"a": 1}, "relational")  # no table
        with pytest.raises(ValueError):
            app.ingest(CSV, "csv")  # no table
        with pytest.raises(ValueError):
            app.ingest("x", "nonsense")

    def test_ingest_counters(self, app):
        app.ingest("some text")
        app.ingest(EMAIL)
        stats = app.stats()
        assert stats["counters"]["ingest.docs"] == 2
        assert stats["counters"]["ingest.format.text"] == 1
        assert stats["counters"]["ingest.format.email"] == 1


class TestUnifiedResults:
    def test_search_result_is_list_compatible(self, app):
        app.ingest("the WidgetPro is excellent")
        result = app.search("widgetpro")
        assert isinstance(result, QueryResult)
        assert len(result) == 1
        assert result[0].doc_id
        assert list(result) == result.hits
        assert result.rows[0]["doc_id"] == result[0].doc_id
        assert result  # truthy on hit

    def test_search_miss_equals_empty_list(self, app):
        assert app.search("zzzznothing") == []
        assert not app.search("zzzznothing")

    def test_sql_result_carries_cost_and_rows(self, app):
        app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
        result = app.sql("SELECT name FROM products")
        assert result.rows == [{"name": "WidgetPro"}]
        assert result.cost == result.sim_ms >= 0
        assert result.trace is not None and result.trace.name == "query.sql"

    def test_faceted_results_unified(self, app):
        app.ingest("alpha text")
        app.ingest(EMAIL)
        session = app.faceted()
        result = session.results(top_k=5)
        assert isinstance(result, QueryResult)
        assert len(result) == 2
        assert result[0].document is not None

    def test_connections_result(self, app):
        app.ingest("no edges here")
        missing = app.connections("a", "b")
        assert isinstance(missing, QueryResult)
        assert not missing
        assert missing.connection is None
        assert missing == []

    def test_graph_how_connected_unchanged(self, app):
        # the pre-unification graph API still returns Optional[ConnectionResult]
        assert app.graph().how_connected("a", "b") is None


class TestTelemetryIntegration:
    def test_pipeline_produces_nested_trace(self, app):
        app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
        app.ingest("Alice loves the WidgetPro, truly excellent")
        app.discover()
        result = app.search("widgetpro")

        # the search trace is the span that produced this exact result
        trace = result.trace
        assert trace is not None
        assert trace.name == "query.search"
        assert trace.finished
        assert trace.tags["hits"] == len(result)

        # discovery left a correctly nested pass → per-doc trace
        passes = app.telemetry.tracer.find_roots("discovery.pass")
        assert passes, "discovery must be traced"
        doc_spans = [s for s in passes[-1].walk() if s.name == "discovery.doc"]
        assert len(doc_spans) == 2
        assert all(s.finished for s in doc_spans)
        assert passes[-1].tags["processed"] == 2

        # sql traces nest plan + execute under the sql root
        sql_trace = app.sql("SELECT name FROM products").trace
        assert sql_trace.find("query.plan") is not None
        assert sql_trace.find("query.execute") is not None
        # simulated cost rolls up to the root exactly once
        assert sql_trace.total_sim_ms >= sql_trace.find("query.execute").sim_ms

    def test_ingest_trace_carries_cluster_sim_cost(self, app):
        app.ingest("costed text")
        root = app.telemetry.tracer.find_roots("ingest")[-1]
        assert root.total_sim_ms > 0  # node work was charged to the span

    def test_stats_shape(self, app):
        app.ingest("some text")
        app.search("text")
        stats = app.stats()
        assert set(stats) >= {"counters", "gauges", "histograms", "spans",
                              "enabled", "appliance"}
        assert stats["enabled"] is True
        assert stats["appliance"]["documents"] == app.doc_count
        assert stats["counters"]["query.search"] == 1
        assert stats["spans"]["ingest"]["count"] == 1

    def test_disabled_telemetry_app_fully_functional(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, telemetry=False))
        app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
        app.ingest("WidgetPro text")
        app.discover()
        result = app.search("widgetpro")
        assert len(result) >= 1
        assert result.trace is None
        assert app.sql("SELECT name FROM products").rows
        stats = app.stats()
        assert stats["counters"] == {} and stats["spans"] == {}
        assert stats["enabled"] is False
        assert stats["appliance"]["documents"] == app.doc_count
