"""Tests for the Figure-4 comparator systems and battery."""

import pytest

from repro.baselines.base import AdminActionKind, CapabilityNotSupported, Item
from repro.baselines.battery import (
    comparison_table,
    run_battery,
    standard_corpus,
)
from repro.baselines.contentmgr import ContentManager
from repro.baselines.filestore import FileStore
from repro.baselines.impliance_adapter import ImplianceSystem
from repro.baselines.rdbms import RelationalDBMS, SchemaViolation
from repro.baselines.searchengine import SearchEngine


def load(system, items=None):
    system.deploy()
    for item in items or standard_corpus():
        system.store(item)
    return system


class TestFileStore:
    def test_stores_and_greps_everything(self):
        fs = load(FileStore())
        assert "call-2" in fs.keyword_search("furious refund")
        assert fs.bytes_scanned > 0

    def test_retrieve(self):
        fs = load(FileStore())
        assert "Acme" in fs.retrieve("cust-1")

    def test_missing_file(self):
        fs = load(FileStore())
        with pytest.raises(LookupError):
            fs.retrieve("ghost")

    def test_no_structured_queries(self):
        fs = load(FileStore())
        with pytest.raises(CapabilityNotSupported):
            fs.structured_query("customers", "segment", "smb")
        with pytest.raises(CapabilityNotSupported):
            fs.join("a", "b", "x", "y")
        with pytest.raises(CapabilityNotSupported):
            fs.aggregate("orders", "region", "amount")

    def test_grep_cost_grows_with_corpus(self):
        fs = load(FileStore())
        fs.keyword_search("anything")
        first = fs.bytes_scanned
        fs.keyword_search("anything")
        assert fs.bytes_scanned == 2 * first  # every search rescans all


class TestContentManager:
    def test_metadata_search_misses_content(self):
        cm = load(ContentManager())
        # "refund" is deep inside the BLOB, never in the catalog fields
        assert cm.keyword_search("refund") == []

    def test_content_search_unsupported(self):
        cm = load(ContentManager())
        with pytest.raises(CapabilityNotSupported):
            cm.content_search("refund")

    def test_catalog_fields_queryable(self):
        cm = load(ContentManager())
        rows = cm.structured_query("items", "format", "email")
        assert [r["item_id"] for r in rows] == ["mail-1"]

    def test_non_catalog_column_rejected(self):
        cm = load(ContentManager())
        with pytest.raises(CapabilityNotSupported):
            cm.structured_query("customers", "segment", "smb")

    def test_blob_retrievable(self):
        cm = load(ContentManager())
        assert "furious" in cm.retrieve("call-2")

    def test_deploy_needs_integration_work(self):
        cm = ContentManager()
        cm.deploy()
        assert cm.ledger.count(AdminActionKind.INTEGRATION) >= 1
        assert cm.ledger.count(AdminActionKind.SCHEMA_DESIGN) >= 1


class TestRelationalDBMS:
    def test_structured_queries_work(self):
        db = load(RelationalDBMS())
        rows = db.structured_query("customers", "segment", "smb")
        assert len(rows) == 2

    def test_join_works(self):
        db = load(RelationalDBMS())
        rows = db.join("orders", "customers", "cid", "cid")
        assert len(rows) == 4

    def test_aggregate_works(self):
        db = load(RelationalDBMS())
        rows = db.aggregate("orders", "region", "amount")
        east = next(r for r in rows if r["region"] == "east")
        assert east["sum_amount"] == pytest.approx(1650.0)

    def test_schema_actions_accumulate_per_table(self):
        db = load(RelationalDBMS())
        assert db.ledger.count(AdminActionKind.SCHEMA_DESIGN) == db.table_count == 3

    def test_schema_violation(self):
        db = RelationalDBMS()
        db.deploy()
        db.create_table("t", ["a"])
        with pytest.raises(SchemaViolation):
            db.store(Item("x", "relational", {"a": 1, "rogue": 2}, "t"))

    def test_text_lands_in_unsearchable_blob(self):
        db = load(RelationalDBMS())
        assert "furious" in db.retrieve("call-2")
        with pytest.raises(CapabilityNotSupported):
            db.content_search("furious")
        with pytest.raises(CapabilityNotSupported):
            db.keyword_search("refund")

    def test_duplicate_table_rejected(self):
        db = RelationalDBMS()
        db.create_table("t", ["a"])
        with pytest.raises(ValueError):
            db.create_table("t", ["a"])


class TestSearchEngine:
    def test_content_search_works(self):
        se = load(SearchEngine())
        assert "call-2" in se.content_search("furious refund")

    def test_crawls_rows_as_text(self):
        se = load(SearchEngine())
        assert "cust-1" in se.keyword_search("Acme")

    def test_no_structured_power(self):
        se = load(SearchEngine())
        for call in (
            lambda: se.structured_query("customers", "segment", "smb"),
            lambda: se.join("a", "b", "x", "y"),
            lambda: se.aggregate("orders", "region", "amount"),
            lambda: se.annotate(),
        ):
            with pytest.raises(CapabilityNotSupported):
                call()


class TestImplianceAdapter:
    def test_full_battery_passes(self):
        report = run_battery(ImplianceSystem(products=("WidgetPro", "GadgetMax")))
        failed = [o.task for o in report.outcomes if not (o.supported and o.correct)]
        assert failed == []
        assert report.power_score == 1.0

    def test_deploy_is_cheap(self):
        report = run_battery(ImplianceSystem(products=("WidgetPro",)))
        assert report.admin_actions <= 2


class TestBatteryStoreFailures:
    def test_refused_items_are_counted_by_class(self):
        class NoEmail(FileStore):
            def store(self, item):
                if item.fmt == "email":
                    raise UnicodeError("mailbox codec missing")
                super().store(item)

        report = run_battery(NoEmail())
        assert report.store_failures == {"UnicodeError": 1}
        outcome = report.outcome("store_all_formats")
        assert outcome.correct is False
        assert outcome.detail == "11/12 stored; failed: UnicodeError x1"

    def test_clean_load_has_no_failures(self):
        report = run_battery(FileStore())
        assert report.store_failures == {}
        assert report.outcome("store_all_formats").detail == "12/12 stored"


class TestBatteryScoring:
    @pytest.fixture(scope="class")
    def reports(self):
        systems = [
            FileStore(),
            ContentManager(),
            RelationalDBMS(),
            SearchEngine(),
            ImplianceSystem(products=("WidgetPro", "GadgetMax")),
        ]
        return [run_battery(s) for s in systems]

    def test_impliance_dominates_power(self, reports):
        by_name = {r.system: r for r in reports}
        impliance = by_name.pop("impliance")
        assert all(impliance.power_score > r.power_score for r in by_name.values())

    def test_impliance_scales_furthest(self, reports):
        by_name = {r.system: r for r in reports}
        impliance = by_name.pop("impliance")
        assert all(
            impliance.scalability_score > r.scalability_score for r in by_name.values()
        )

    def test_rdbms_most_admin_heavy(self, reports):
        by_name = {r.system: r for r in reports}
        assert by_name["relational-dbms"].admin_actions == max(
            r.admin_actions for r in reports
        )

    def test_each_baseline_fails_archetypal_gap(self, reports):
        by_name = {r.system: r for r in reports}
        assert not by_name["file-server"].outcome("join").supported
        assert not by_name["content-manager"].outcome("content_search").supported
        assert not by_name["relational-dbms"].outcome("keyword_search").supported
        assert not by_name["enterprise-search"].outcome("aggregate").supported

    def test_comparison_table_renders(self, reports):
        table = comparison_table(reports)
        assert "impliance" in table
        assert table.splitlines()[2].split()[0] == "impliance"  # best power first

    def test_scores_bounded(self, reports):
        for report in reports:
            assert 0.0 <= report.power_score <= 1.0
            assert 0.0 < report.tco_score <= 1.0
            assert 0.0 <= report.scalability_score <= 1.0
