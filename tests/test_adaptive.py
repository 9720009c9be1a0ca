"""Tests for adaptive query processing (Section 3.3 extension)."""

import random

import pytest

from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.adaptive import adaptive_indexed_join
from repro.query.engine import LocalRepository, QueryEngine
from repro.storage.store import DocumentStore


CUSTOMERS = [{"cid": i, "name": f"C{i}"} for i in range(10)]


def probe(key):
    return [c for c in CUSTOMERS if c["cid"] == key]


def inner_scan():
    return list(CUSTOMERS)


class TestAdaptiveOperator:
    def test_small_outer_never_switches(self):
        outer = [{"cid": i % 10, "v": i} for i in range(20)]
        rows, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=64
        )
        assert not report.switched
        assert report.probes_done == 20
        assert report.rows_out == 20

    def test_large_outer_switches(self):
        outer = [{"cid": i % 10, "v": i} for i in range(500)]
        rows, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=64
        )
        assert report.switched
        assert report.probes_done == 64
        assert report.hash_build_rows == 10

    def test_results_identical_regardless_of_switch(self):
        outer = [{"cid": i % 12, "v": i} for i in range(300)]  # some unmatched
        small, _ = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=10_000
        )
        switched, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=5
        )
        assert report.switched
        normalize = lambda rows: sorted(sorted(r.items()) for r in rows)
        assert normalize(small) == normalize(switched)

    def test_none_keys_skipped_without_consuming_budget(self):
        outer = [{"cid": None}] * 50 + [{"cid": 1}]
        rows, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=10
        )
        assert not report.switched
        assert report.probes_done == 1
        assert len(rows) == 1

    def test_switch_cost_is_bounded(self):
        """The migrated plan pays at most budget probes + one hash build."""
        outer = [{"cid": i % 10, "v": i} for i in range(10_000)]
        _, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=64
        )
        from repro.exec import costs

        bound = (
            64 * costs.INDEX_PROBE_MS
            + 10 * costs.HASH_BUILD_MS_PER_ROW
            + 10_000 * costs.HASH_PROBE_MS_PER_ROW
        )
        assert report.sim_ms <= bound + 1e-9

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            adaptive_indexed_join([], "k", probe, inner_scan, "k", probe_budget=0)


class TestEngineAdaptiveMode:
    @pytest.fixture
    def engine(self):
        store = DocumentStore()
        repo = LocalRepository(store)
        repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
        repo.views.define(base_table_view("orders", "orders", ["oid", "cid", "amount"]))
        rng = random.Random(5)
        for i in range(300):
            store.put(from_relational_row(f"c{i}", "customers", {"cid": i, "name": f"C{i}"}))
        for i in range(600):
            store.put(from_relational_row(
                f"o{i}", "orders",
                {"oid": i, "cid": rng.randrange(300), "amount": float(i)},
            ))
        return QueryEngine(repo)

    QUERY = "SELECT name, amount FROM orders JOIN customers ON cid = cid"

    def test_adaptive_same_rows(self, engine):
        static = engine.sql(self.QUERY)
        adaptive = engine.sql(self.QUERY, adaptive=True)
        normalize = lambda rows: sorted(sorted(r.items()) for r in rows)
        assert normalize(static.rows) == normalize(adaptive.rows)

    def test_adaptive_cheaper_on_huge_outer(self, engine):
        static = engine.sql(self.QUERY)
        adaptive = engine.sql(self.QUERY, adaptive=True)
        assert adaptive.sim_ms < static.sim_ms
        assert adaptive.adaptive_reports[0].switched

    def test_adaptive_noop_on_selective_outer(self, engine):
        query = self.QUERY + " WHERE amount > 595"
        adaptive = engine.sql(query, adaptive=True)
        assert adaptive.adaptive_reports[0].switched is False
        assert len(adaptive.rows) == 4

    def test_adaptive_rescues_stale_optimizer(self, engine):
        """The combination the paper implies: simple/stale plans become
        safe because the operator self-corrects at runtime."""
        stats = engine.collect_statistics(["customers", "orders"])
        static = engine.sql(self.QUERY, planner="costbased", statistics=stats)
        adaptive = engine.sql(
            self.QUERY, planner="costbased", statistics=stats, adaptive=True
        )
        assert adaptive.sim_ms <= static.sim_ms


class TestNullKeyCostParity:
    """Regression: the migrated hash path must charge null-keyed outer
    rows exactly like the probe path does — not at all.  Before the fix
    the hash loop charged HASH_PROBE_MS_PER_ROW for every remaining row,
    nulls included, so the two strategies priced identical work
    differently and the break-even budget lied."""

    def test_nulls_free_on_migrated_path(self):
        from repro.exec import costs

        nulls = [{"cid": None, "v": i} for i in range(40)]
        keyed = [{"cid": i % 10, "v": i} for i in range(20)]
        outer = keyed[:5] + nulls + keyed[5:]
        rows, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=5
        )
        assert report.switched
        assert report.probes_done == 5
        # remaining = 40 nulls + 15 keyed rows; only the keyed 15 pay
        expected = (
            5 * costs.INDEX_PROBE_MS
            + report.hash_build_rows * costs.HASH_BUILD_MS_PER_ROW
            + 15 * costs.HASH_PROBE_MS_PER_ROW
        )
        assert report.sim_ms == pytest.approx(expected)

    def test_cost_parity_between_strategies(self):
        """Same outer (with nulls), both strategies: per-row charges may
        use different rates, but the *set* of rows charged is identical —
        verified by pricing each side with its own rate card."""
        from repro.exec import costs

        outer = [{"cid": None}] * 30 + [{"cid": 3, "v": 1}, {"cid": 4, "v": 2}]
        _, probed = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=10_000
        )
        _, migrated = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=1
        )
        # probe path charged exactly the two non-null rows
        assert probed.sim_ms == pytest.approx(2 * costs.INDEX_PROBE_MS)
        # migrated path: 1 probe, then exactly ONE remaining non-null row
        assert migrated.sim_ms == pytest.approx(
            costs.INDEX_PROBE_MS
            + migrated.hash_build_rows * costs.HASH_BUILD_MS_PER_ROW
            + 1 * costs.HASH_PROBE_MS_PER_ROW
        )


class TestNullPrefixRegression:
    """Regression: an all-null outer prefix longer than the budget must
    not trigger a migration — before the fix the budget check preceded
    the null skip, so a null run ate the budget and forced a pointless
    hash build."""

    def test_all_null_prefix_longer_than_budget(self):
        outer = [{"cid": None, "v": i} for i in range(200)] + [{"cid": 1}]
        rows, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=10
        )
        assert not report.switched
        assert report.probes_done == 1
        assert len(rows) == 1

    def test_nulls_after_budget_exhaustion_are_dropped_free(self):
        from repro.exec import costs

        keyed = [{"cid": i % 10, "v": i} for i in range(20)]
        outer = keyed + [{"cid": None}] * 100
        rows, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid", probe_budget=5
        )
        assert report.switched
        # 5 probed + 15 keyed on the hash path; the 100 nulls cost nothing
        assert report.sim_ms == pytest.approx(
            5 * costs.INDEX_PROBE_MS
            + report.hash_build_rows * costs.HASH_BUILD_MS_PER_ROW
            + 15 * costs.HASH_PROBE_MS_PER_ROW
        )
        assert report.rows_out == 20

    def test_inflated_probe_cost_charged(self):
        from repro.exec import costs

        outer = [{"cid": 1}, {"cid": 2}]
        _, report = adaptive_indexed_join(
            outer, "cid", probe, inner_scan, "cid",
            probe_budget=100, probe_cost_ms=costs.INDEX_PROBE_MS * 4,
        )
        assert report.sim_ms == pytest.approx(2 * 4 * costs.INDEX_PROBE_MS)


class TestAdaptiveConfig:
    def test_defaults_valid(self):
        from repro.query.adaptive import AdaptiveConfig

        config = AdaptiveConfig()
        assert config.enabled
        assert config.divergence_ratio >= 1.0

    def test_validation(self):
        from repro.query.adaptive import AdaptiveConfig

        with pytest.raises(ValueError):
            AdaptiveConfig(divergence_ratio=0.5)
        with pytest.raises(ValueError):
            AdaptiveConfig(max_replans=-1)
        with pytest.raises(ValueError):
            AdaptiveConfig(probe_budget=0)

    def test_appliance_config_carries_adaptive(self):
        from repro.core.config import ApplianceConfig
        from repro.query.adaptive import AdaptiveConfig

        config = ApplianceConfig(adaptive=AdaptiveConfig(divergence_ratio=4.0))
        assert config.adaptive.divergence_ratio == 4.0


class TestReOptimizerUnits:
    def _reoptimizer(self, **kwargs):
        from repro.query.adaptive import AdaptiveConfig, ReOptimizer
        from repro.query.stats import Statistics

        defaults = dict(
            config=AdaptiveConfig(),
            statistics=Statistics(),
            optimizer_factory=lambda stats: None,
        )
        defaults.update(kwargs)
        return ReOptimizer(**defaults)

    def test_divergence_is_bidirectional(self):
        reopt = self._reoptimizer()
        assert reopt.diverged(10.0, 25.0)       # 2.5x over
        assert reopt.diverged(100.0, 40.0)      # 2.5x under
        assert not reopt.diverged(10.0, 15.0)   # 1.5x: inside the band
        assert not reopt.diverged(None, 1000.0)  # no estimate, no signal
        assert not reopt.diverged(0.0, 1000.0)

    def test_can_replan_requires_everything(self):
        from repro.query.adaptive import AdaptiveConfig

        assert self._reoptimizer().can_replan
        assert not self._reoptimizer(statistics=None).can_replan
        assert not self._reoptimizer(optimizer_factory=None).can_replan
        assert not self._reoptimizer(config=AdaptiveConfig(enabled=False)).can_replan

    def test_max_replans_bounds_splices(self):
        from repro.query.adaptive import AdaptiveConfig, ReplanReport

        reopt = self._reoptimizer(config=AdaptiveConfig(max_replans=1))
        assert reopt.can_replan
        reopt.record(ReplanReport(
            stage="s", reason="test", observed_rows=1.0, estimated_rows=1.0,
            old_strategy="a", new_strategy="b",
        ))
        assert not reopt.can_replan

    def test_reports_flow_to_sink(self):
        from repro.query.adaptive import ReplanReport

        sink = []
        reopt = self._reoptimizer(report_sink=sink)
        report = ReplanReport(
            stage="s", reason="test", observed_rows=2.0, estimated_rows=1.0,
            old_strategy="a", new_strategy="b",
        )
        reopt.record(report)
        assert sink == [report]
        assert report.switched

    def test_hash_checkpoint_flips_only_when_cheaper(self):
        from repro.query.plans import ScanView

        reopt = self._reoptimizer()
        # probe overestimated 10x AND smaller than the build side: flip
        assert reopt.checkpoint_hash_join(
            stage="j", observed_probe=300, estimated_probe=3000,
            estimated_build=2000, probe_logical=ScanView("orders"),
        )
        # probe diverged but building over it would cost MORE: keep
        reopt2 = self._reoptimizer()
        assert not reopt2.checkpoint_hash_join(
            stage="j", observed_probe=5000, estimated_probe=100,
            estimated_build=200, probe_logical=ScanView("orders"),
        )
        # no divergence: keep
        reopt3 = self._reoptimizer()
        assert not reopt3.checkpoint_hash_join(
            stage="j", observed_probe=210, estimated_probe=200,
            estimated_build=2000, probe_logical=ScanView("orders"),
        )


def _grown_repo(n_customers=300, n_orders_initial=5, n_orders_grown=2000):
    """A repo whose orders table grows after statistics collection."""
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
    repo.views.define(base_table_view("orders", "orders", ["oid", "cid", "amount"]))
    for i in range(n_customers):
        store.put(from_relational_row(f"c{i}", "customers", {"cid": i, "name": f"C{i}"}))
    for i in range(n_orders_initial):
        store.put(from_relational_row(
            f"o{i}", "orders", {"oid": i, "cid": i % n_customers, "amount": float(i)}
        ))
    engine = QueryEngine(repo)
    stats = engine.collect_statistics(["customers", "orders"])
    for i in range(n_orders_initial, n_orders_grown):
        store.put(from_relational_row(
            f"o{i}", "orders", {"oid": i, "cid": i % n_customers, "amount": float(i)}
        ))
    return engine, stats


class TestMidQueryReplan:
    QUERY = "SELECT name, amount FROM orders JOIN customers ON cid = cid"

    def test_stale_estimate_triggers_replan(self):
        from repro.query.adaptive import ReplanReport

        engine, stats = _grown_repo()
        static = engine.sql(self.QUERY, planner="costbased", statistics=stats)
        adaptive = engine.sql(
            self.QUERY, planner="costbased", statistics=stats, adaptive=True
        )
        replans = [r for r in adaptive.adaptive_reports if isinstance(r, ReplanReport)]
        assert len(replans) == 1
        assert replans[0].old_strategy == "indexed-nl"
        assert replans[0].new_strategy == "hash"
        assert replans[0].reason == "cardinality-divergence"
        normalize = lambda rows: sorted(sorted(r.items()) for r in rows)
        assert normalize(static.rows) == normalize(adaptive.rows)
        assert adaptive.sim_ms < static.sim_ms

    def test_replan_closes_most_of_the_gap(self):
        """The acceptance bar: adaptive recovers >= 2x of the static
        plan's overshoot against a fresh-statistics oracle plan."""
        engine, stale = _grown_repo()
        static = engine.sql(self.QUERY, planner="costbased", statistics=stale)
        adaptive = engine.sql(
            self.QUERY, planner="costbased", statistics=stale, adaptive=True
        )
        oracle_stats = engine.collect_statistics(["customers", "orders"])
        oracle = engine.sql(self.QUERY, planner="costbased", statistics=oracle_stats)
        gap_static = static.sim_ms - oracle.sim_ms
        gap_adaptive = adaptive.sim_ms - oracle.sim_ms
        assert gap_static > 0
        assert gap_static / max(gap_adaptive, 1e-9) >= 2.0

    def test_accurate_estimates_never_replan(self):
        engine, _ = _grown_repo()
        fresh = engine.collect_statistics(["customers", "orders"])
        result = engine.sql(
            self.QUERY, planner="costbased", statistics=fresh, adaptive=True
        )
        from repro.query.adaptive import ReplanReport

        assert not [r for r in result.adaptive_reports if isinstance(r, ReplanReport)]
        assert engine.adaptive_stats()["replan"]["count"] == 0

    def test_max_replans_zero_disables_splices(self):
        from repro.query.adaptive import AdaptiveConfig, ReplanReport

        engine, stats = _grown_repo()
        engine.adaptive_config = AdaptiveConfig(max_replans=0)
        result = engine.sql(
            self.QUERY, planner="costbased", statistics=stats, adaptive=True
        )
        assert not [r for r in result.adaptive_reports if isinstance(r, ReplanReport)]

    def test_caller_statistics_never_mutated(self):
        from repro.query.plans import ScanView

        engine, stats = _grown_repo()
        before = stats.estimate(ScanView("orders"))
        engine.sql(self.QUERY, planner="costbased", statistics=stats, adaptive=True)
        assert stats.estimate(ScanView("orders")) == pytest.approx(before)

    def test_adaptive_counters_surface(self):
        engine, stats = _grown_repo()
        engine.sql(self.QUERY, planner="costbased", statistics=stats, adaptive=True)
        surface = engine.adaptive_stats()
        assert surface["replan"]["count"] == 1
        assert surface["replan"]["checkpoints"] >= 1
        assert surface["compiled"]["built"] >= 1


class TestDegradedNodeReplan:
    QUERY = "SELECT * FROM orders JOIN customers ON cid = cid"

    def test_degraded_probe_target_escapes_to_hash(self):
        from repro.query.adaptive import ReplanReport
        from repro.query.planner import PhysIndexedJoin
        from repro.query.sql import parse_sql

        # accurate stats: a healthy cluster keeps the indexed-NL plan
        engine, _ = _grown_repo(n_customers=300, n_orders_initial=20, n_orders_grown=20)
        stats = engine.collect_statistics(["customers", "orders"])
        physical = engine.optimizer(stats).plan(parse_sql(self.QUERY))
        assert isinstance(physical, PhysIndexedJoin)

        # the probed node degrades after planning, before execution
        engine.repository.probe_penalty = lambda: 8.0
        degraded_static = engine.run_physical(physical)
        degraded_adaptive = engine.run_physical(
            physical, adaptive=True, statistics=stats
        )
        replans = [
            r for r in degraded_adaptive.adaptive_reports
            if isinstance(r, ReplanReport)
        ]
        assert len(replans) == 1
        assert replans[0].reason == "degraded-node"
        assert degraded_adaptive.sim_ms < degraded_static.sim_ms
        normalize = lambda rows: sorted(sorted(r.items()) for r in rows)
        assert normalize(degraded_static.rows) == normalize(degraded_adaptive.rows)

    def test_healthy_cluster_keeps_probing(self):
        from repro.query.adaptive import ReplanReport
        from repro.query.sql import parse_sql

        engine, _ = _grown_repo(n_customers=300, n_orders_initial=20, n_orders_grown=20)
        stats = engine.collect_statistics(["customers", "orders"])
        physical = engine.optimizer(stats).plan(parse_sql(self.QUERY))
        result = engine.run_physical(physical, adaptive=True, statistics=stats)
        assert not [r for r in result.adaptive_reports if isinstance(r, ReplanReport)]


class TestHashBuildSideFlip:
    def test_overestimated_probe_flips_build_side(self):
        from repro.query.adaptive import ReplanReport
        from repro.query.planner import PhysHashJoin
        from repro.query.plans import ScanView

        store = DocumentStore()
        repo = LocalRepository(store)
        repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
        repo.views.define(base_table_view("orders", "orders", ["oid", "cid"]))
        for i in range(2000):
            store.put(from_relational_row(f"c{i}", "customers", {"cid": i, "name": f"C{i}"}))
        for i in range(300):
            store.put(from_relational_row(f"o{i}", "orders", {"oid": i, "cid": i}))
        engine = QueryEngine(repo)
        stats = engine.collect_statistics(["customers", "orders"])

        probe = ScanView("orders")
        build = ScanView("customers")
        object.__setattr__(probe, "estimated_rows", 3000.0)  # stale: 10x over
        object.__setattr__(build, "estimated_rows", 2000.0)
        physical = PhysHashJoin(probe, build, "cid", "cid")

        static = engine.run_physical(physical)
        adaptive = engine.run_physical(physical, adaptive=True, statistics=stats)
        replans = [
            r for r in adaptive.adaptive_reports if isinstance(r, ReplanReport)
        ]
        assert len(replans) == 1
        assert replans[0].new_strategy == "hash(build=probe)"
        # the swapped join is byte-identical, not just multiset-equal
        assert adaptive.rows == static.rows
        assert adaptive.sim_ms < static.sim_ms
