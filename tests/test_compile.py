"""Tests for compiled operator pipelines (docs/ADAPTIVE.md).

The compiled path must be observationally identical to a row-at-a-time
interpretation of the same plan (``tests/oracle/row_engine.py``) — same
rows in the same order, same per-operator row counts, same simulated
charges (up to float summation order) — while actually moving less data
(fused filter→project prunes columns before the gather; fused
filter→aggregate never materializes the filtered batch).
"""

import pytest

from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.compile import compile_plan, compile_selector, plan_fingerprint
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.planner import PhysHashJoin
from repro.query.plans import (
    CompareOp,
    Comparison,
    Conjunction,
    Filter,
    ScanView,
)
from repro.query.sql import parse_sql
from repro.storage.store import DocumentStore
from tests.oracle.row_engine import RowEngine, batch_counts, row_counts


@pytest.fixture
def wide_repo():
    """Orders/customers with enough rows for multiple batches."""
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("customers", "customers", ["cid", "name", "segment"]))
    repo.views.define(
        base_table_view("orders", "orders", ["oid", "cid", "amount", "region"])
    )
    regions = ["east", "west", "north", "south"]
    for i in range(40):
        store.put(from_relational_row(
            f"c{i}", "customers",
            {"cid": i, "name": f"C{i}", "segment": "smb" if i % 3 else "enterprise"},
        ))
    for i in range(500):
        store.put(from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "cid": i % 40, "amount": float(i % 97), "region": regions[i % 4]},
        ))
    return repo


QUERIES = [
    "SELECT * FROM orders",
    "SELECT * FROM orders WHERE amount > 50",
    "SELECT oid, region FROM orders WHERE amount > 50 AND region = 'east'",
    "SELECT region, sum(amount) AS total FROM orders GROUP BY region",
    "SELECT region, count(*) AS n FROM orders WHERE amount > 10 GROUP BY region",
    "SELECT DISTINCT region FROM orders",
    "SELECT * FROM orders ORDER BY amount DESC LIMIT 7",
    "SELECT name, amount FROM orders JOIN customers ON cid = cid WHERE amount > 90",
    "SELECT * FROM orders WHERE region = 'nowhere'",
]


class TestFingerprint:
    def test_deterministic(self, wide_repo):
        engine = QueryEngine(wide_repo)
        logical = parse_sql(QUERIES[2])
        a = engine.simple_planner.plan(logical)
        b = engine.simple_planner.plan(parse_sql(QUERIES[2]))
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_distinguishes_predicates(self):
        low = Filter(ScanView("orders"),
                     Conjunction((Comparison("amount", CompareOp.GT, 50),)))
        high = Filter(ScanView("orders"),
                      Conjunction((Comparison("amount", CompareOp.GT, 51),)))
        assert plan_fingerprint(low) != plan_fingerprint(high)

    def test_estimate_annotations_distinguish(self):
        clean = ScanView("orders")
        annotated = ScanView("orders")
        object.__setattr__(annotated, "estimated_rows", 500.0)
        assert plan_fingerprint(clean) != plan_fingerprint(annotated)

    def test_hash_join_sides_matter(self):
        ab = PhysHashJoin(ScanView("a"), ScanView("b"), "k", "k")
        ba = PhysHashJoin(ScanView("b"), ScanView("a"), "k", "k")
        assert plan_fingerprint(ab) != plan_fingerprint(ba)


class TestCompiledSelector:
    def test_matches_interpreted_selector(self, wide_repo):
        """The selector picks the rows ``predicate.matches`` picks."""
        engine = QueryEngine(wide_repo)
        from repro.query.engine import _CostMeter

        predicate = Conjunction((
            Comparison("amount", CompareOp.GT, 30),
            Comparison("region", CompareOp.EQ, "east"),
        ))
        select = compile_selector(predicate)
        for batch in engine._view_batches("orders", _CostMeter()):
            assert select(batch) == [
                i for i, row in enumerate(batch.to_rows()) if predicate.matches(row)
            ]

    def test_narrows_candidates(self, wide_repo):
        engine = QueryEngine(wide_repo)
        from repro.query.engine import _CostMeter

        first = compile_selector(
            Conjunction((Comparison("amount", CompareOp.GT, 30),))
        )
        second = compile_selector(
            Conjunction((Comparison("region", CompareOp.EQ, "east"),))
        )
        both = compile_selector(Conjunction((
            Comparison("amount", CompareOp.GT, 30),
            Comparison("region", CompareOp.EQ, "east"),
        )))
        for batch in engine._view_batches("orders", _CostMeter()):
            chained = second(batch, first(batch))
            assert chained == both(batch)


class TestCompiledIdentity:
    """Compiled output is indistinguishable from the row oracle's."""

    @pytest.mark.parametrize("query", QUERIES)
    def test_rows_and_charges_identical(self, wide_repo, query):
        compiled = QueryEngine(wide_repo).sql(query)
        oracle = RowEngine(wide_repo).sql(query)
        assert compiled.rows == oracle.rows
        # same per-row charges, possibly summed in a different order
        assert compiled.sim_ms == pytest.approx(oracle.sim_ms)
        assert row_counts(compiled.operator_stats) == row_counts(oracle.operator_stats)

    @pytest.mark.parametrize("query", QUERIES)
    def test_rows_match_row_engine(self, wide_repo, query):
        """Same again on small batches, where fused stages see many."""
        compiled_engine = QueryEngine(wide_repo, batch_size=64)
        assert compiled_engine.sql(query).rows == RowEngine(wide_repo).sql(query).rows

    def test_costbased_plans_compile_identically(self, wide_repo):
        query = QUERIES[7]
        compiled_engine = QueryEngine(wide_repo)
        stats = compiled_engine.collect_statistics(["customers", "orders"])
        compiled = compiled_engine.sql(query, planner="costbased", statistics=stats)
        oracle = RowEngine(wide_repo).sql(query, planner="costbased", statistics=stats)
        assert compiled.rows == oracle.rows
        assert compiled.sim_ms == pytest.approx(oracle.sim_ms)

    def test_batch_counters_pinned(self, wide_repo):
        """Batch counters have no row-side twin; pin them on 500 orders
        scanned as 8 batches of 64."""
        engine = QueryEngine(wide_repo, batch_size=64)

        def counters(query):
            return batch_counts(engine.sql(query).operator_stats)

        assert counters(QUERIES[2]) == {
            "scan": (0, 8), "filter": (8, 8), "project": (8, 8),
        }
        assert counters(QUERIES[4]) == {
            "scan": (0, 8), "filter": (8, 8), "aggregate": (8, 1),
        }
        assert counters(QUERIES[8]) == {"scan": (0, 8), "filter": (8, 0)}


class TestFusedStages:
    def test_filter_project_fuses(self, wide_repo):
        engine = QueryEngine(wide_repo)
        physical = engine.simple_planner.plan(parse_sql(QUERIES[2]))
        pipeline = compile_plan(physical)
        assert any(s.startswith("fused:filter") for s in pipeline.stages)

    def test_filter_aggregate_fuses(self, wide_repo):
        engine = QueryEngine(wide_repo)
        physical = engine.simple_planner.plan(parse_sql(QUERIES[4]))
        pipeline = compile_plan(physical)
        assert any("aggregate" in s and s.startswith("fused:") for s in pipeline.stages)

    def test_breakers_stay_separate_stages(self, wide_repo):
        engine = QueryEngine(wide_repo)
        physical = engine.simple_planner.plan(parse_sql(QUERIES[6]))
        pipeline = compile_plan(physical)
        assert any(s.startswith("sort(") for s in pipeline.stages)
        assert any(s.startswith("limit(") for s in pipeline.stages)


class TestCompiledCaching:
    def test_local_memo_hits(self, wide_repo):
        engine = QueryEngine(wide_repo)
        engine.sql(QUERIES[1])
        engine.sql(QUERIES[1])
        surface = engine.adaptive_stats()
        assert surface["compiled"]["built"] == 1
        assert surface["compiled"]["hits"] == 1

    def test_plan_cache_compiled_tier(self):
        from repro.core.appliance import Impliance

        app = Impliance()
        for i in range(30):
            app.ingest({"k": i, "v": float(i)}, table="points")
        query = "SELECT * FROM points WHERE v > 3"
        app.sql(query)
        app.sql(query)  # result-cache hit: no recompile, no extra build
        app.sql(query + "0")  # different plan: second compile
        plan_stats = app.caches.stats()["plan"]
        assert plan_stats["compiled_misses"] == 2
        # a flush clears the compiled tier with the rest
        app.caches.plans.flush()
        assert app.caches.plans.entry_count == 0

    def test_simple_planner_fingerprints_stable_across_plannings(self, wide_repo):
        engine = QueryEngine(wide_repo)
        logical = parse_sql(QUERIES[3])
        first = plan_fingerprint(engine.simple_planner.plan(logical))
        second = plan_fingerprint(engine.simple_planner.plan(logical))
        assert first == second
