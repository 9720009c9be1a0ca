"""Edge-path tests: exec reports, appliance conveniences, describe output."""

import pytest

from repro.cluster.topology import ImplianceCluster
from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.exec.parallel import ExecReport, StageTiming
from repro.model.converters import from_text
from repro.query.planner import PhysHashJoin, PhysIndexedJoin
from repro.query.plans import ScanView
from repro.query.sql import parse_sql


class TestExecReport:
    def test_empty_report(self):
        report = ExecReport()
        assert report.finish_ms == 0.0
        assert report.bytes_shipped == 0

    def test_stage_lookup(self):
        report = ExecReport()
        report.record(StageTiming("scan", 5.0, 100))
        assert report.stage("scan").rows == 100
        with pytest.raises(KeyError):
            report.stage("ghost")

    def test_finish_is_max(self):
        report = ExecReport()
        report.record(StageTiming("a", 5.0, 1))
        report.record(StageTiming("b", 3.0, 1))
        assert report.finish_ms == 5.0


class TestClusterExtras:
    def test_ingest_batch_makespan(self):
        cluster = ImplianceCluster(n_data=2, n_grid=1)
        docs = [from_text(f"d{i}", "x" * 50) for i in range(10)]
        _, _, makespan = cluster.ingest_batch(docs)
        assert makespan > 0
        assert makespan == cluster.makespan()
        assert cluster.doc_count == 10

    def test_reset_clears_network_stats(self):
        cluster = ImplianceCluster(n_data=2, n_grid=1)
        cluster.network.transfer(1000, "a", "b")
        cluster.reset_timelines()
        assert cluster.network.stats.bytes_sent == 0

    def test_work_crew_validation(self):
        cluster = ImplianceCluster(n_data=1, n_grid=2)
        with pytest.raises(ValueError):
            cluster.work_crew(0)

    def test_node_lookup_error(self):
        cluster = ImplianceCluster(n_data=1)
        with pytest.raises(LookupError):
            cluster.node("ghost")


class TestApplianceConveniences:
    @pytest.fixture
    def app(self):
        return Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))

    def test_ingest_csv(self, app):
        docs = app.ingest("level,msg\ninfo,started\nwarn,slow\n", table="log")
        assert len(docs) == 2
        rows = app.sql("SELECT level FROM log ORDER BY level").rows
        assert [r["level"] for r in rows] == ["info", "warn"]

    def test_ingest_json(self, app):
        doc = app.ingest({"deep": {"nested": [1, 2, 3]}}, metadata={"src": "api"})
        assert app.lookup(doc.doc_id).metadata["src"] == "api"

    def test_explicit_doc_ids_respected(self, app):
        doc = app.ingest("hello", doc_id="my-id")
        assert doc.doc_id == "my-id"
        assert app.lookup("my-id") is not None

    def test_doc_count_property(self, app):
        app.ingest("a")
        app.ingest("b")
        assert app.doc_count == 2

    def test_search_empty_appliance(self, app):
        assert app.search("anything") == []

    def test_sql_before_any_rows_raises_cleanly(self, app):
        with pytest.raises(KeyError):
            app.sql("SELECT * FROM never_ingested")

    def test_duplicate_view_definition_rejected(self, app):
        app.ingest({"a": 1}, table="t")
        from repro.model.views import base_table_view

        with pytest.raises(ValueError):
            app.define_view(base_table_view("t", "t", ["a"]))


class TestPhysicalPlanDescriptions:
    def test_hash_join_description(self, sales_engine):
        logical = parse_sql(
            "SELECT * FROM orders JOIN customers ON cid = cid"
        )
        physical = PhysHashJoin(
            probe=ScanView("orders"), build=ScanView("customers"),
            probe_column="cid", build_column="cid",
        )
        result = sales_engine.run_physical(physical)
        assert "HashJoin" in result.plan_text
        assert "Scan(orders)" in result.plan_text

    def test_indexed_join_description(self, sales_engine):
        physical = PhysIndexedJoin(
            outer=ScanView("orders"), outer_column="cid",
            inner_view="customers", inner_column="cid",
        )
        result = sales_engine.run_physical(physical)
        assert "IndexedNLJoin" in result.plan_text

    def test_query_result_dunder(self, sales_engine):
        result = sales_engine.sql("SELECT * FROM orders")
        assert len(result) == len(result.rows)
        assert list(iter(result)) == result.rows
