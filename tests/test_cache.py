"""Tests for the cache hierarchy (repro.cache) and its appliance wiring.

Covers each tier in isolation (normalization, plan cache epochs, result
cache dependency invalidation, probe memo), the invalidation bus, the
engine integration (hits, misses, mid-query invalidation), and the
appliance-level behaviour: chaos events flush, degraded results are
never admitted, and ``CacheConfig(enabled=False)`` is a true off switch.
"""

import pytest

from repro.cache import (
    CacheConfig,
    CacheHierarchy,
    IndexProbeMemo,
    InvalidationBus,
    PlanCache,
    ResultCache,
    normalize_sql,
)
from repro.chaos.plan import FaultEvent, FaultKind, FaultPlan
from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.index.manager import IndexManager
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.keyword import KeywordHit, KeywordSearch
from repro.security.policy import AccessPolicy, Action, Principal, Rule
from repro.storage.store import DocumentStore


# ---------------------------------------------------------------------------
# SQL normalization
# ---------------------------------------------------------------------------
class TestNormalizeSql:
    def test_collapses_whitespace_and_case(self):
        assert (
            normalize_sql("SELECT   X \n FROM    T")
            == normalize_sql("select x from t")
        )

    def test_string_literals_survive_verbatim(self):
        key = normalize_sql("SELECT a FROM t WHERE name = 'Ab  Cd'")
        assert "'Ab  Cd'" in key
        assert key.startswith("select a from t")

    def test_distinct_literals_distinct_keys(self):
        assert normalize_sql("SELECT a FROM t WHERE x = 'A'") != normalize_sql(
            "SELECT a FROM t WHERE x = 'a'"
        )

    def test_strip_and_stability(self):
        key = normalize_sql("  SELECT a FROM t  ")
        assert key == normalize_sql(key)


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_parse_hits_share_entry(self):
        cache = PlanCache(capacity=8)
        key1, plan1 = cache.parse("SELECT a FROM t")
        key2, plan2 = cache.parse("select  a   from t")
        assert key1 == key2
        assert plan1 is plan2
        assert cache.stats.parse_hits == 1
        assert cache.stats.parse_misses == 1

    def test_parse_lru_bounded(self):
        cache = PlanCache(capacity=2)
        for name in ("a", "b", "c"):
            cache.parse(f"SELECT x FROM {name}")
        assert cache.entry_count <= 2  # only logical entries exist here

    def test_physical_epoch_validation(self):
        cache = PlanCache(capacity=8)
        calls = []
        plan = cache.physical("k", 0, lambda: calls.append(1) or "plan0")
        assert plan == "plan0"
        assert cache.physical("k", 0, lambda: calls.append(1) or "never") == "plan0"
        assert len(calls) == 1
        # any bus event since fill time forces a replan
        assert cache.physical("k", 1, lambda: calls.append(1) or "plan1") == "plan1"
        assert len(calls) == 2
        assert cache.stats.plan_hits == 1
        assert cache.stats.plan_misses == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------
ROWS = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]


class TestResultCache:
    def test_store_and_lookup(self):
        cache = ResultCache(capacity=4, byte_capacity=10_000)
        cache.store("f1", ROWS, frozenset({"orders"}), 1.5, "plan")
        hit = cache.lookup("f1")
        assert hit is not None
        assert hit.rows == ROWS
        assert hit.dependencies == frozenset({"orders"})
        assert hit.sim_ms == 1.5

    def test_rows_are_copies(self):
        cache = ResultCache(capacity=4, byte_capacity=10_000)
        rows = [dict(r) for r in ROWS]
        cache.store("f1", rows, frozenset(), 0.0)
        rows[0]["a"] = 999
        assert cache.lookup("f1").rows[0]["a"] == 1

    def test_dependency_invalidation_is_precise(self):
        cache = ResultCache(capacity=8, byte_capacity=10_000)
        cache.store("orders-q", ROWS, frozenset({"orders"}), 0.0)
        cache.store("cust-q", ROWS, frozenset({"customers"}), 0.0)
        dropped = cache.invalidate_table("orders")
        assert dropped == 1
        assert cache.lookup("orders-q") is None
        assert cache.lookup("cust-q") is not None

    def test_tableless_put_flushes_everything(self):
        cache = ResultCache(capacity=8, byte_capacity=10_000)
        cache.store("q", ROWS, frozenset({"orders"}), 0.0)
        cache.invalidate_table(None)
        assert cache.entry_count == 0

    def test_lru_entry_cap(self):
        cache = ResultCache(capacity=2, byte_capacity=10_000)
        for i in range(3):
            cache.store(f"f{i}", ROWS, frozenset(), 0.0)
        assert cache.entry_count == 2
        assert "f0" not in cache
        assert cache.stats.evictions == 1

    def test_byte_cap_evicts_and_oversized_rejected(self):
        wide = [{"k": "v" * 100} for _ in range(10)]
        small = ResultCache(capacity=100, byte_capacity=10)
        assert small.store("big", wide, frozenset(), 0.0) is None  # never fits
        assert small.entry_count == 0
        sized = ResultCache(capacity=100, byte_capacity=2000)  # fits one, not two
        sized.store("a", wide, frozenset(), 0.0)
        sized.store("b", wide, frozenset(), 0.0)
        assert sized.stats.bytes <= 2000
        assert sized.stats.evictions >= 1
        assert "a" not in sized and "b" in sized

    def test_bytes_accounting_on_overwrite(self):
        cache = ResultCache(capacity=4, byte_capacity=10_000)
        cache.store("f", ROWS, frozenset(), 0.0)
        before = cache.stats.bytes
        cache.store("f", ROWS, frozenset(), 0.0)  # same key, same rows
        assert cache.stats.bytes == before
        assert cache.entry_count == 1

    def test_generation_validated_at_lookup_and_overwritten_in_place(self):
        cache = ResultCache(capacity=4, byte_capacity=10_000)
        key = ("search", "refund", 10)
        hits = [KeywordHit("d1", 1.5)]
        cache.store(key, ROWS, frozenset(), 0.0, hits=hits, generation=7)
        assert cache.lookup(key, 7).hits is hits
        assert cache.lookup(key, 8) is None          # stale: a miss ...
        assert key in cache                          # ... that stays put
        cache.store(key, ROWS, frozenset(), 0.0, hits=hits, generation=8)
        assert cache.entry_count == 1                # overwritten, not re-keyed
        assert cache.lookup(key, 7) is None and cache.lookup(key, 8) is not None
        stats = cache.stats
        assert (stats.search_hits, stats.search_misses) == (2, 2)
        assert (stats.hits, stats.misses) == (0, 0)  # SQL counters untouched

    def test_sql_lookups_do_not_count_as_search(self):
        cache = ResultCache(capacity=4, byte_capacity=10_000)
        cache.store("f", ROWS, frozenset({"orders"}), 0.0)
        cache.lookup("f")
        cache.lookup("g")
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert (cache.stats.search_hits, cache.stats.search_misses) == (0, 0)

    def test_search_entries_survive_table_invalidation_not_flushes(self):
        cache = ResultCache(capacity=4, byte_capacity=10_000)
        key = ("search", "refund", 10)
        cache.store(key, ROWS, frozenset(), 0.0, hits=[], generation=1)
        cache.invalidate_table("orders")  # the generation covers this write
        assert key in cache
        cache.flush()                     # node events still drop everything
        assert key not in cache

    def test_search_entries_charge_their_documents(self):
        cache = ResultCache(capacity=4, byte_capacity=10_000)
        document = from_relational_row("o1", "orders", {"oid": 1, "note": "x" * 500})
        cache.store("bare", ROWS, frozenset(), 0.0)
        bare = cache.stats.bytes
        cache.store(("search", "x", 10), ROWS, frozenset(), 0.0,
                    hits=[KeywordHit("o1", 1.0, document)], generation=1)
        assert cache.stats.bytes == 2 * bare + document.size_bytes()


# ---------------------------------------------------------------------------
# probe memo
# ---------------------------------------------------------------------------
class TestProbeMemo:
    def test_memoizes_probe(self):
        memo = IndexProbeMemo(capacity=8)
        calls = []
        probe = lambda: calls.append(1) or {"d1", "d2"}
        assert memo.lookup(("t", "c"), 5, probe) == frozenset({"d1", "d2"})
        assert memo.lookup(("t", "c"), 5, probe) == frozenset({"d1", "d2"})
        assert len(calls) == 1
        assert memo.stats.hits == 1

    def test_flush_forces_recompute(self):
        memo = IndexProbeMemo(capacity=8)
        calls = []
        probe = lambda: calls.append(1) or set()
        memo.lookup(("t", "c"), 1, probe)
        memo.flush()
        memo.lookup(("t", "c"), 1, probe)
        assert len(calls) == 2
        assert memo.stats.flushes == 1

    def test_unhashable_value_bypasses(self):
        memo = IndexProbeMemo(capacity=8)
        assert memo.lookup(("t", "c"), ["un", "hashable"], lambda: {"d"}) == frozenset({"d"})
        assert memo.entry_count == 0

    def test_lru_bounded(self):
        memo = IndexProbeMemo(capacity=2)
        for i in range(4):
            memo.lookup(("t", "c"), i, lambda: set())
        assert memo.entry_count == 2


# ---------------------------------------------------------------------------
# invalidation bus + hierarchy
# ---------------------------------------------------------------------------
class TestInvalidationBus:
    def test_store_puts_flow_through(self):
        bus = InvalidationBus()
        store = DocumentStore()
        bus.attach_store(store)
        seen = []
        bus.subscribe_puts(seen.append)
        store.put(from_relational_row("r1", "orders", {"oid": 1}))
        assert len(seen) == 1
        assert seen[0].metadata["table"] == "orders"
        assert bus.epoch == 1
        assert bus.stats.put_events == 1

    def test_node_events_bump_epoch(self):
        bus = InvalidationBus()
        events = []
        bus.subscribe_node_events(lambda n, k: events.append((n, k)))
        bus.publish_node_event("data-0", "crash")
        assert events == [("data-0", "crash")]
        assert bus.epoch == 1
        assert bus.stats.node_events == 1


class TestCacheHierarchy:
    def test_put_invalidates_by_dependency(self):
        h = CacheHierarchy(CacheConfig())
        h.results.store("orders-q", ROWS, frozenset({"orders"}), 0.0)
        h.results.store("cust-q", ROWS, frozenset({"customers"}), 0.0)
        h.probes.lookup(("orders", "oid"), 1, lambda: {"d"})
        h.bus.publish_put(from_relational_row("r", "orders", {"oid": 2}))
        assert h.results.lookup("orders-q") is None
        assert h.results.lookup("cust-q") is not None
        assert h.probes.entry_count == 0  # puts flush the memo wholesale

    def test_node_event_flushes_results_and_probes(self):
        h = CacheHierarchy(CacheConfig())
        h.results.store("q", ROWS, frozenset({"orders"}), 0.0)
        h.probes.lookup(("t", "c"), 1, lambda: set())
        h.bus.publish_node_event("data-1", "corrupt")
        assert h.results.entry_count == 0
        assert h.probes.entry_count == 0

    def test_admission_guard(self):
        h = CacheHierarchy(CacheConfig())
        assert h.can_admit_results()  # no guard: admit everything
        h.admit_results = lambda: False
        assert not h.can_admit_results()

    def test_catalog_change_is_a_node_event(self):
        h = CacheHierarchy(CacheConfig())
        before = h.epoch
        h.results.store("q", ROWS, frozenset(), 0.0)
        h.on_catalog_change()
        assert h.epoch == before + 1
        assert h.results.entry_count == 0

    def test_stats_shape(self):
        h = CacheHierarchy(CacheConfig())
        stats = h.stats()
        assert set(stats) == {"enabled", "epoch", "plan", "result", "probe", "bus"}
        assert stats["enabled"] is True


# ---------------------------------------------------------------------------
# engine integration (standalone LocalRepository)
# ---------------------------------------------------------------------------
SQL = "SELECT region, sum(amount) AS total FROM orders GROUP BY region"


@pytest.fixture
def cached_setup():
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("orders", "orders", ["oid", "region", "amount"]))
    repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
    for i in range(12):
        store.put(from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "region": "east" if i % 2 else "west", "amount": float(i)},
        ))
    caches = CacheHierarchy(CacheConfig())
    caches.attach_to_store(store)
    engine = QueryEngine(repo, cache=caches)
    return store, engine, caches


class TestEngineCaching:
    def test_repeat_query_hits(self, cached_setup):
        _, engine, caches = cached_setup
        first = engine.sql(SQL)
        second = engine.sql(SQL)
        assert not first.cached
        assert second.cached
        assert second.rows == first.rows
        assert second.sim_ms < first.sim_ms
        assert caches.results.stats.hits == 1

    def test_whitespace_variants_share_entry(self, cached_setup):
        _, engine, _ = cached_setup
        engine.sql(SQL)
        variant = engine.sql(SQL.replace(" FROM ", "   from   "))
        assert variant.cached

    def test_dependency_put_invalidates(self, cached_setup):
        store, engine, _ = cached_setup
        before = engine.sql(SQL).rows
        store.put(from_relational_row(
            "o99", "orders", {"oid": 99, "region": "east", "amount": 500.0}))
        after = engine.sql(SQL)
        assert not after.cached
        east = lambda rows: next(r["total"] for r in rows if r["region"] == "east")
        assert east(after.rows) == east(before) + 500.0

    def test_unrelated_put_keeps_result_warm(self, cached_setup):
        store, engine, _ = cached_setup
        engine.sql(SQL)
        store.put(from_relational_row("c1", "customers", {"cid": 1, "name": "Acme"}))
        assert engine.sql(SQL).cached

    def test_mid_query_invalidation_blocks_admission(self, cached_setup):
        store, engine, caches = cached_setup
        # a put that lands while the query executes must keep the result
        # out of the cache (the lost-invalidation race, engine flavor)
        original = engine.run_physical

        def put_during_execution(physical, adaptive=False):
            result = original(physical, adaptive=adaptive)
            store.put(from_relational_row(
                "o77", "orders", {"oid": 77, "region": "west", "amount": 1.0}))
            return result

        engine.run_physical = put_during_execution
        engine.sql(SQL)
        engine.run_physical = original
        assert caches.results.entry_count == 0
        # and the next execution (post-put) sees the new row
        total = sum(r["total"] for r in engine.sql(SQL).rows)
        assert total == sum(float(i) for i in range(12)) + 1.0

    def test_admission_guard_respected(self, cached_setup):
        _, engine, caches = cached_setup
        caches.admit_results = lambda: False
        engine.sql(SQL)
        assert not engine.sql(SQL).cached
        assert caches.results.entry_count == 0

    def test_disabled_cache_is_noop(self):
        store = DocumentStore()
        repo = LocalRepository(store)
        repo.views.define(base_table_view("orders", "orders", ["oid", "amount"]))
        store.put(from_relational_row("o1", "orders", {"oid": 1, "amount": 5.0}))
        caches = CacheHierarchy(CacheConfig(enabled=False))
        caches.attach_to_store(store)
        engine = QueryEngine(repo, cache=caches)
        sql = "SELECT oid FROM orders"
        assert not engine.sql(sql).cached
        assert not engine.sql(sql).cached
        assert caches.results.entry_count == 0
        assert caches.plans.entry_count == 0

    def test_non_simple_paths_bypass_result_cache(self, cached_setup):
        _, engine, caches = cached_setup
        engine.sql(SQL, adaptive=True)
        assert caches.results.entry_count == 0


# ---------------------------------------------------------------------------
# appliance integration
# ---------------------------------------------------------------------------
def _load_app(app, n=10):
    for i in range(n):
        app.ingest({"oid": i, "region": "east" if i % 2 else "west",
                    "amount": float(i)}, table="orders", doc_id=f"o{i}")


class TestApplianceCaching:
    def test_repeat_sql_cached_and_counted(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        _load_app(app)
        q = "SELECT region, sum(amount) AS total FROM orders GROUP BY region"
        first = app.sql(q)
        second = app.sql(q)
        assert not first.cached
        assert second.cached
        assert second.rows == first.rows
        stats = app.stats()["cache"]
        assert stats["result"]["hits"] == 1
        assert stats["bus"]["put_events"] >= 10

    def test_ingest_invalidates(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        _load_app(app)
        q = "SELECT region, sum(amount) AS total FROM orders GROUP BY region"
        app.sql(q)
        app.ingest({"oid": 99, "region": "east", "amount": 100.0},
                   table="orders", doc_id="o99")
        result = app.sql(q)
        assert not result.cached
        east = next(r["total"] for r in result.rows if r["region"] == "east")
        assert east == sum(float(i) for i in range(10) if i % 2) + 100.0

    def test_fail_node_flushes_cache(self, chaos_cluster):
        app = chaos_cluster
        q = "SELECT source FROM __dummy__"  # any cacheable statement
        app.views.define(base_table_view("__dummy__", "__dummy__", ["source"]))
        app.sql(q)
        assert app.caches.results.entry_count >= 0  # may or may not admit
        app.sql(q)
        victim = app.cluster.data_nodes[0].node_id
        app.fail_node(victim)
        assert app.caches.results.entry_count == 0
        assert app.caches.bus.stats.node_events >= 1

    def test_chaos_partition_flushes(self, chaos_cluster):
        app = chaos_cluster
        nodes = [n.node_id for n in app.cluster.data_nodes]
        plan = FaultPlan([
            FaultEvent(at_ms=10.0, kind=FaultKind.PARTITION,
                       target=nodes[0], peer=nodes[1]),
        ], seed=3)
        q = "SELECT amount FROM orders"
        app.views.define(base_table_view("orders", "orders", ["oid", "amount"]))
        app.sql(q)
        app.sql(q)
        controller = app.chaos(plan)
        controller.advance_to(10.0)
        assert app.caches.results.entry_count == 0
        assert app.sql(q).cached is False

    def test_degraded_results_never_admitted(self, chaos_cluster):
        app = chaos_cluster
        app.views.define(base_table_view("orders", "orders", ["oid", "amount"]))
        # Force the degradation signal the admission guard watches.
        original = Impliance.missing_segments
        try:
            Impliance.missing_segments = lambda self: 3
            result = app.sql("SELECT amount FROM orders")
            assert result.degraded
            assert app.caches.results.entry_count == 0
        finally:
            Impliance.missing_segments = original

    def test_cache_off_switch(self):
        app = Impliance(ApplianceConfig(
            n_data_nodes=2, n_grid_nodes=1, cache=CacheConfig(enabled=False)))
        _load_app(app, n=4)
        q = "SELECT oid FROM orders"
        app.sql(q)
        assert not app.sql(q).cached
        assert app.stats()["cache"]["enabled"] is False

    def test_define_view_flushes(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        _load_app(app, n=4)
        q = "SELECT oid FROM orders"
        app.sql(q)
        app.sql(q)
        app.define_view(base_table_view("other", "other", ["x"]))
        assert app.caches.results.entry_count == 0

    def test_materializations_ride_the_bus(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        _load_app(app, n=6)
        mv = app.materialize(
            "totals", "SELECT region, sum(amount) AS total FROM orders GROUP BY region")
        mv.rows()
        assert mv.is_fresh
        app.ingest({"oid": 50, "region": "west", "amount": 9.0},
                   table="orders", doc_id="o50")
        assert not mv.is_fresh
        # node events dirty materializations too
        mv.rows()
        app.fail_node(app.cluster.data_nodes[0].node_id)
        assert not mv.is_fresh


# ---------------------------------------------------------------------------
# keyword search on the result tier (open sessions only)
# ---------------------------------------------------------------------------
def _search_app(**config) -> Impliance:
    app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1, **config))
    app.ingest_many(
        [{"oid": i, "note": f"refund request {i} widget"} for i in range(12)],
        table="orders",
    )
    return app


def _ranking(result):
    return [(h.doc_id, h.score, h.via_annotation) for h in result.hits]


def _projected_add(app):
    app.indexes.text.add_projected("p1", {"refund": [0, 2], "late": [1]}, 3)


def _deferred_apply(app):
    # Queued puts leave the index (and every cached answer) as it was;
    # applying them is the mutation.
    manager = app.indexes
    manager.deferred = True
    generation = manager.text.generation
    document = from_relational_row("o77", "orders", {"oid": 77, "note": "refund deferred"})
    manager._on_put_batch([(document, None)])
    assert manager.pending_count == 1 and manager.text.generation == generation
    assert app.search("refund").cached is app.caches.enabled
    assert manager.apply_pending() == 1


ROUTES = {
    "ingest": lambda app: app.ingest({"oid": 50, "note": "late refund"}, table="orders"),
    "ingest_many": lambda app: app.ingest_many(
        [{"oid": 60 + i, "note": "bulk refund"} for i in range(3)], table="orders"),
    "update": lambda app: app.update_document(
        app.search("refund").hits[0].doc_id, {"orders": {"oid": 0, "note": "settled"}}),
    "delete": lambda app: app.delete_document(app.search("refund").hits[0].doc_id),
    "text.add": lambda app: app.indexes.text.add("x1", "one more refund"),
    "text.add_projected": _projected_add,
    "text.remove": lambda app: app.indexes.text.remove(app.search("refund").hits[0].doc_id),
    "text.rebuild": lambda app: app.indexes.text.rebuild([("r1", "refund"), ("r2", "widget")]),
    "manager.rebuild_from": lambda app: app.indexes.rebuild_from(
        app.cluster.data_nodes[0].store),
    "manager.apply_pending": _deferred_apply,
}


class TestSearchCaching:
    def test_repeat_search_is_a_free_hit(self):
        app = _search_app()
        first = app.search("refund")
        second = app.search("refund")
        assert not first.cached and second.cached
        assert _ranking(second) == _ranking(first) and second.rows == first.rows
        assert [h.document for h in second.hits] == [h.document for h in first.hits]
        assert second.sim_ms == 0.0  # search is unpriced, hit or miss
        stats = app.stats()
        assert stats["cache"]["result"]["search_hits"] == 1
        assert stats["cache"]["result"]["search_misses"] == 1
        assert stats["cache"]["result"]["hits"] == stats["cache"]["result"]["misses"] == 0
        assert stats["counters"]["cache.result.hits.search"] == 1
        assert stats["counters"]["cache.result.misses.search"] == 1
        assert "cache.result.hits" not in stats["counters"]
        assert app.caches.results.entry_count == 1

    def test_top_k_is_part_of_the_key(self):
        app = _search_app()
        app.search("refund", top_k=3)
        wide = app.search("refund", top_k=5)
        assert not wide.cached and len(wide.hits) == 5
        assert len(app.search("refund", top_k=3).hits) == 3

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_index_mutation_is_a_miss_overwritten_in_place(self, route):
        app = _search_app()
        twin = _search_app(cache=CacheConfig(enabled=False))
        app.search("refund")
        assert app.search("refund").cached
        entries = app.caches.results.entry_count
        for side in (app, twin):
            ROUTES[route](side)
        after = app.search("refund")
        assert not after.cached
        assert _ranking(after) == _ranking(twin.search("refund"))
        assert app.caches.results.entry_count == entries  # no second entry
        assert app.search("refund").cached

    def test_discovery_folding_invalidates(self):
        config = dict(product_lexicon=("WidgetPro",))
        app, twin = _search_app(**config), _search_app(cache=CacheConfig(enabled=False), **config)
        for side in (app, twin):
            side.ingest("the widgetpro keeps crashing", "text", doc_id="t1")
        before = app.search("widgetpro")
        assert app.search("widgetpro").cached and not app.search("mention").hits
        for side in (app, twin):
            assert side.discover() > 0
        after = app.search("widgetpro")
        assert not after.cached
        assert _ranking(after) == _ranking(twin.search("widgetpro")) != _ranking(before)
        folded = app.search("mention")  # only the annotation says "mention"
        assert not folded.cached and _ranking(folded) == _ranking(twin.search("mention"))
        assert folded.hits[0].doc_id == "t1" and folded.hits[0].via_annotation

    def test_degraded_answers_are_never_admitted(self, monkeypatch):
        app = _search_app()
        monkeypatch.setattr(Impliance, "missing_segments", lambda self: 3)
        result = app.search("refund")
        assert result.degraded and not result.cached
        assert app.caches.results.entry_count == 0
        assert not app.search("refund").cached

    def test_node_events_flush_search_entries(self):
        app = _search_app()
        app.search("refund")
        app.fail_node(app.cluster.data_nodes[0].node_id)
        assert app.caches.results.entry_count == 0

    def test_mid_search_invalidation_blocks_admission(self, monkeypatch):
        app = _search_app()
        original = KeywordSearch.search

        def racing(self, *args, **kwargs):
            hits = original(self, *args, **kwargs)
            app.caches.bus.publish_node_event("n", "crash")  # epoch moves mid-flight
            return hits

        monkeypatch.setattr(KeywordSearch, "search", racing)
        assert app.search("refund").hits
        assert app.caches.results.entry_count == 0

    def test_policy_sessions_never_read_or_write_the_tier(self):
        app = _search_app()
        policy = AccessPolicy([Rule("all", ("analyst",), (Action.READ, Action.QUERY))])
        scoped = app.connect(Principal("alice", ("analyst",)), policy=policy)
        assert scoped.search("refund").hits and not scoped.search("refund").cached
        assert app.caches.results.entry_count == 0      # never written
        warm = app.search("refund")
        before = dict(app.stats()["cache"]["result"])
        again = scoped.search("refund")
        assert not again.cached and _ranking(again) == _ranking(warm)
        assert app.stats()["cache"]["result"] == before  # never read
        grants = [r for r in scoped.audit.accesses_by("alice") if r.action is Action.QUERY]
        assert len(grants) == 3 * len(warm.hits)         # every search audited

    def test_callers_cannot_corrupt_the_cached_answer(self):
        app = _search_app()
        first = app.search("refund")
        want = _ranking(first)
        for result in (first, app.search("refund")):  # the admitted one, then a hit
            result.hits[0].score = -1.0
            result.hits[0].doc_id = "tampered"
            result.rows[0]["score"] = -1.0
            result.hits.clear()
            fresh = app.search("refund")
            assert fresh.cached and _ranking(fresh) == want
            assert fresh.rows == [{"doc_id": d, "score": s} for d, s, _ in want]

    def test_disabled_cache_is_a_noop_for_search(self):
        app = _search_app(cache=CacheConfig(enabled=False))
        assert _ranking(app.search("refund")) == _ranking(app.search("refund"))
        assert not app.search("refund").cached
        result = app.stats()["cache"]["result"]
        assert result["entries"] == 0
        assert result["search_hits"] == result["search_misses"] == 0
        assert result["hits"] == result["misses"] == 0

    def test_deferred_index_generation_moves_only_when_applied(self):
        store = DocumentStore()
        manager = IndexManager(store, deferred=True)
        generation = manager.text.generation
        store.put(from_relational_row("o1", "orders", {"oid": 1, "note": "refund"}))
        assert manager.text.generation == generation  # queued, index untouched
        manager.apply_pending()
        applied = manager.text.generation
        assert applied != generation
        manager.rebuild_from(store)  # a new index object, never an old generation
        assert manager.text.generation not in (generation, applied)
