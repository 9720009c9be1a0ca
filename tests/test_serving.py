"""The serving layer: config validation, sessions, the fair-share
scheduler, stats surfacing, and the workload driver."""

from __future__ import annotations

import pytest

from repro import ApplianceConfig, Impliance, Principal, ServingConfig
from repro.cache.config import CacheConfig
from repro.ingest.config import IngestConfig
from repro.ingest.queue import ADMITTED, SHED, STALLED
from repro.security.policy import (
    AccessDenied,
    Action,
    AccessPolicy,
    Rule,
    Scope,
    open_policy,
)
from repro.serving import (
    ArrivalSpec,
    QOS_BATCH,
    QOS_DISCOVERY,
    QOS_INTERACTIVE,
    TenantSpec,
    WorkloadDriver,
    percentile,
)
from repro.serving.scheduler import Request, RequestScheduler, RequestShed


# ----------------------------------------------------------------------
# one shared validation surface across the three sub-configs
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_concurrency=0),
            dict(global_queue_cap=0),
            dict(tenant_queue_cap=0),
            dict(retry_backoff_ms=0),
            dict(default_qos="platinum"),
            dict(block_tiers=("gold",)),
            dict(qos_weights={"interactive": 8, "batch": 2}),  # missing tier
            dict(
                qos_weights={"interactive": 0, "batch": 2, "discovery": 1}
            ),
            dict(tenant_quotas={"acme": 0}),
            dict(global_queue_cap=8, tenant_quotas={"acme": 9}),
            dict(global_queue_cap=8, tenant_queue_cap=9),
        ],
    )
    def test_serving_config_rejects(self, bad):
        with pytest.raises(ValueError, match="ServingConfig"):
            ServingConfig(**bad)

    def test_all_three_subconfigs_share_message_shape(self):
        with pytest.raises(ValueError, match="CacheConfig.plan_entries"):
            CacheConfig(plan_entries=0)
        with pytest.raises(ValueError, match="IngestConfig.batch_size"):
            IngestConfig(batch_size=0)
        with pytest.raises(ValueError, match="ServingConfig.max_concurrency"):
            ServingConfig(max_concurrency=0)

    def test_appliance_config_carries_serving(self):
        config = ApplianceConfig(serving=ServingConfig(tenant_queue_cap=7))
        assert config.serving.tenant_queue_cap == 7
        assert ApplianceConfig().serving.default_qos == QOS_INTERACTIVE

    def test_quota_helpers(self):
        config = ServingConfig(tenant_queue_cap=10, tenant_quotas={"acme": 3})
        assert config.quota_for("acme") == 3
        assert config.quota_for("other") == 10
        assert config.weight_for(QOS_INTERACTIVE) > config.weight_for(QOS_BATCH)
        assert config.blocks(QOS_INTERACTIVE)
        assert not config.blocks(QOS_BATCH)


# ----------------------------------------------------------------------
# sessions: connect(), identity with the legacy entry points, policy
# ----------------------------------------------------------------------
@pytest.fixture
def loaded_app():
    app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
    app.ingest_many(
        [
            {"oid": i, "amount": 10.0 * i, "region": "east" if i % 2 else "west"}
            for i in range(1, 7)
        ],
        table="orders",
    )
    app.ingest("Ms. Alice Johnson praised the WidgetPro at the office.")
    app.ingest("Bob filed a complaint about the WidgetPro crashing.")
    app.discover()
    return app


class TestSessions:
    def test_connect_returns_session(self, loaded_app):
        alice = Principal("alice", ("user",))
        with loaded_app.connect(principal=alice, qos=QOS_BATCH) as s:
            assert s.tenant == "alice"
            assert s.qos == QOS_BATCH
            assert s.search("widgetpro").hits
        assert s.closed
        with pytest.raises(RuntimeError):
            s.search("widgetpro")

    def test_connect_rejects_a_non_principal_at_the_boundary(self, loaded_app):
        # Used to surface as an AttributeError deep in Session.__init__.
        with pytest.raises(TypeError, match="Principal"):
            loaded_app.connect(principal="alice")
        assert loaded_app.connect().principal.name == "default"

    def test_default_qos_comes_from_config(self, loaded_app):
        s = loaded_app.connect(principal=Principal("p", ("user",)))
        assert s.qos == loaded_app.config.serving.default_qos

    def test_session_results_match_legacy_entry_points(self, loaded_app):
        s = loaded_app.connect()
        legacy = loaded_app.search("widgetpro")
        assert [h.doc_id for h in s.search("widgetpro").hits] == [
            h.doc_id for h in legacy.hits
        ]
        stmt = "SELECT region, count(*) AS n FROM orders GROUP BY region"
        assert s.sql(stmt).rows == loaded_app.sql(stmt).rows
        assert (
            s.faceted("widgetpro").facet_counts("format")
            == loaded_app.faceted("widgetpro").facet_counts("format")
        )
        assert s.graph().hubs(top=5) == loaded_app.graph().hubs(top=5)

    def test_legacy_entry_points_are_shims_over_default_session(self, loaded_app):
        loaded_app.search("widgetpro")
        default = loaded_app.default_session()
        assert default.tenant == "default"
        # Shim traffic is attributed to the default tenant in stats.
        assert loaded_app.stats()["serving"]["tenants"]["default"]["completed"] >= 1

    def test_session_ingest_is_tenant_attributed(self, loaded_app):
        writer = Principal("acme", ("writer",))
        with loaded_app.connect(principal=writer) as s:
            docs = s.ingest_many(["fresh memo about gadgets", "another memo"])
        assert len(docs) == 2
        assert all(loaded_app.lookup(d.doc_id) for d in docs)
        stats = loaded_app.stats()["serving"]["tenants"]["acme"]
        assert stats["completed"] == 1 and stats["admitted"] == 1

    def test_policy_session_filters_results(self, loaded_app):
        policy = AccessPolicy(
            [
                Rule("orders-only", ["analyst"], [Action.READ, Action.QUERY],
                     Scope(table="orders")),
            ]
        )
        analyst = Principal("ana", ("analyst",))
        with loaded_app.connect(principal=analyst, policy=policy) as s:
            # Text documents are invisible: search returns nothing...
            assert not s.search("widgetpro").hits
            # ...but the granted relational scope still answers.
            assert s.sql("SELECT count(*) AS n FROM orders").rows == [{"n": 6}]
        # The unrestricted default session is unaffected.
        assert loaded_app.search("widgetpro").hits

    def test_policy_session_gates_writes(self, loaded_app):
        reader = Principal("ro", ("user",))
        with loaded_app.connect(principal=reader, policy=open_policy()) as s:
            with pytest.raises(AccessDenied):
                s.ingest("should be refused")
        writer = Principal("rw", ("writer",))
        with loaded_app.connect(principal=writer, policy=open_policy()) as s:
            assert s.ingest("writers may add memos") is not None

    def test_session_stats_slice(self, loaded_app):
        s = loaded_app.connect(principal=Principal("t9", ("user",)))
        assert s.stats()["completed"] == 0
        s.search("widgetpro")
        assert s.stats()["completed"] == 1


# ----------------------------------------------------------------------
# the scheduler: fair share, quotas, QoS-aware eviction, stats
# ----------------------------------------------------------------------
def _req(tenant, qos, **kw):
    return Request(tenant=tenant, qos=qos, kind="search", **kw)


class TestScheduler:
    def test_stride_fair_share_tracks_weights(self):
        sched = RequestScheduler(ServingConfig(global_queue_cap=600,
                                               tenant_queue_cap=300))
        for _ in range(200):
            assert sched.submit(_req("a", QOS_INTERACTIVE)) == ADMITTED
            assert sched.submit(_req("b", QOS_BATCH)) == ADMITTED
        picks = {"a": 0, "b": 0}
        for _ in range(180):
            picks[sched.next_request().tenant] += 1
        # interactive weight 8 vs batch 2 -> 4:1 service under backlog
        assert picks["a"] == 4 * picks["b"]

    def test_no_lane_starves(self):
        sched = RequestScheduler(ServingConfig(global_queue_cap=600,
                                               tenant_queue_cap=300))
        for _ in range(100):
            sched.submit(_req("a", QOS_INTERACTIVE))
            sched.submit(_req("b", QOS_DISCOVERY))
        served = [sched.next_request().tenant for _ in range(100)]
        # Weight ratio is 8:1, yet discovery is served within the window.
        assert "b" in served

    def test_per_tenant_quota_blocks_or_sheds(self):
        config = ServingConfig(tenant_queue_cap=2, global_queue_cap=100)
        sched = RequestScheduler(config)
        assert sched.submit(_req("t", QOS_BATCH)) == ADMITTED
        assert sched.submit(_req("t", QOS_BATCH)) == ADMITTED
        assert sched.submit(_req("t", QOS_BATCH)) == SHED       # same tier: shed
        # A higher-tier arrival displaces the tenant's own batch work
        # instead of queueing behind it.
        assert sched.submit(_req("t", QOS_INTERACTIVE)) == ADMITTED
        assert sched.evicted == 1
        assert sched.tenant_depth("t") == 2
        # Interactive-on-interactive at the quota stalls (block tier).
        assert sched.submit(_req("t", QOS_INTERACTIVE)) == ADMITTED  # evicts batch
        assert sched.submit(_req("t", QOS_INTERACTIVE)) == STALLED
        # Another tenant is unaffected by t's quota.
        assert sched.submit(_req("u", QOS_BATCH)) == ADMITTED

    def test_global_cap_evicts_lowest_tier_first(self):
        config = ServingConfig(global_queue_cap=4, tenant_queue_cap=4)
        sched = RequestScheduler(config)
        sched.submit(_req("bat", QOS_BATCH))
        sched.submit(_req("bat", QOS_BATCH))
        sched.submit(_req("disc", QOS_DISCOVERY))
        sched.submit(_req("disc", QOS_DISCOVERY))
        assert sched.total_queued == 4
        # Interactive arrival displaces discovery (the lowest tier), not batch.
        assert sched.submit(_req("int", QOS_INTERACTIVE)) == ADMITTED
        assert sched.evicted == 1
        assert sched.tenant_depth("disc") == 1
        assert sched.tenant_depth("bat") == 2
        # Batch arrival then displaces the remaining discovery backlog.
        assert sched.submit(_req("bat2", QOS_BATCH)) == ADMITTED
        assert sched.tenant_depth("disc") == 0
        # With nothing lower-priority left, a batch arrival sheds itself.
        assert sched.submit(_req("bat3", QOS_BATCH)) == SHED
        # ... and an interactive arrival evicts batch.
        assert sched.submit(_req("int", QOS_INTERACTIVE)) == ADMITTED
        assert sched.evicted == 3

    def test_eviction_never_displaces_equal_or_higher_tier(self):
        config = ServingConfig(global_queue_cap=2, tenant_queue_cap=2)
        sched = RequestScheduler(config)
        sched.submit(_req("a", QOS_INTERACTIVE))
        sched.submit(_req("b", QOS_INTERACTIVE))
        assert sched.submit(_req("c", QOS_INTERACTIVE)) == STALLED
        assert sched.submit(_req("c", QOS_BATCH)) == SHED
        assert sched.evicted == 0

    def test_on_evict_hook_fires(self):
        config = ServingConfig(global_queue_cap=1, tenant_queue_cap=1)
        sched = RequestScheduler(config)
        victims = []
        sched.on_evict = victims.append
        low = _req("d", QOS_DISCOVERY)
        sched.submit(low)
        sched.submit(_req("i", QOS_INTERACTIVE))
        assert victims == [low]
        assert low.outcome == SHED

    def test_execute_inline_runs_and_accounts(self):
        sched = RequestScheduler(ServingConfig())
        out = sched.execute_inline(_req("t", QOS_INTERACTIVE, fn=lambda: 41 + 1))
        assert out == 42
        stats = sched.stats()["tenants"]["t"]
        assert stats["admitted"] == 1 and stats["completed"] == 1
        assert stats["queued"] == 0  # withdrawn, not left staged

    def test_execute_inline_sheds_raise(self):
        config = ServingConfig(tenant_queue_cap=1, global_queue_cap=1)
        sched = RequestScheduler(config)
        sched.submit(_req("t", QOS_BATCH))  # fill the quota
        with pytest.raises(RequestShed):
            sched.execute_inline(_req("t", QOS_BATCH, fn=lambda: None))
        assert sched.stats()["tenants"]["t"]["shed"] == 1

    def test_execute_inline_failure_counts(self):
        sched = RequestScheduler(ServingConfig())

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            sched.execute_inline(_req("t", QOS_INTERACTIVE, fn=boom))
        stats = sched.stats()["tenants"]["t"]
        assert stats["failed"] == 1 and stats["completed"] == 0


# ----------------------------------------------------------------------
# stats surfacing through Impliance.stats()["serving"]
# ----------------------------------------------------------------------
class TestStatsSurfacing:
    def test_outcomes_land_in_stats_and_telemetry(self):
        app = Impliance(
            ApplianceConfig(
                n_data_nodes=2,
                n_grid_nodes=1,
                serving=ServingConfig(tenant_queue_cap=1, global_queue_cap=1),
            )
        )
        app.ingest("a memo about widgets")
        s = app.connect(principal=Principal("acme", ("user",)), qos=QOS_BATCH)
        s.search("widgets")
        # Saturate acme's quota, then observe a shed being accounted.
        app.serving.submit(s.request("search"))
        with pytest.raises(RequestShed):
            s.search("widgets")
        serving = app.stats()["serving"]
        acme = serving["tenants"]["acme"]
        assert acme["completed"] == 1
        assert acme["shed"] == 1
        assert acme["queued"] == 1
        assert serving["shed"] >= 1 and serving["submitted"] >= 3
        counters = app.telemetry.snapshot()["counters"]
        assert counters.get("serving.tenant.acme.admitted", 0) >= 1
        assert counters.get("serving.tenant.acme.shed", 0) >= 1

    def test_lane_depth_gauges(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        s = app.connect(principal=Principal("g", ("user",)), qos=QOS_BATCH)
        app.serving.submit(s.request("search"))
        gauges = app.telemetry.snapshot()["gauges"]
        assert gauges.get("serving.tenant.g.queue_depth") == 1
        assert app.stats()["serving"]["lanes"]["g/batch"]["depth"] == 1


# ----------------------------------------------------------------------
# the workload driver
# ----------------------------------------------------------------------
class TestWorkloadDriver:
    SPECS = [
        TenantSpec("cc", corpus="callcenter", qos=QOS_INTERACTIVE, sessions=6,
                   requests_per_session=3,
                   arrival=ArrivalSpec(process="closed", think_ms=20.0)),
        TenantSpec("lg", corpus="legal", qos=QOS_BATCH, sessions=4,
                   arrival=ArrivalSpec(process="open", rate_rps=150.0)),
    ]

    def _run(self, duration_ms=200.0):
        app = Impliance(
            ApplianceConfig(
                n_data_nodes=2,
                n_grid_nodes=1,
                serving=ServingConfig(global_queue_cap=16, tenant_queue_cap=16),
            )
        )
        return WorkloadDriver(app, self.SPECS, seed=7).run(duration_ms=duration_ms)

    def test_driver_reports_real_work(self):
        report = self._run()
        assert report.sessions == 10
        assert report.completed > 0
        assert report.offered >= report.completed + report.shed
        assert report.goodput_rps > 0
        cc = report.latency("cc")
        assert 0 < cc["p50"] <= cc["p99"] <= cc["p999"] <= cc["max"]
        assert set(report.tenants) == {"cc", "lg"}

    def test_driver_is_deterministic(self):
        a, b = self._run().to_dict(), self._run().to_dict()
        assert a == b

    def test_mixed_replay_runs_every_kind_without_errors(self):
        # The SQL third of the replay used to die on a TypeError the
        # driver swallowed (a missing _sql_impl argument).
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        spec = TenantSpec(
            "cc", sessions=4, requests_per_session=12,
            arrival=ArrivalSpec(process="closed", think_ms=5.0),
            mix={"search": 1.0, "sql": 1.0, "faceted": 1.0},
        )
        before = app.stats()["counters"]
        report = WorkloadDriver(app, [spec], seed=3).run(duration_ms=2_000.0)
        after = app.stats()["counters"]
        assert report.errors == 0 and report.errors_by_class == {}
        assert report.completed == report.offered == 48
        # (faceted sessions keep no counter; completed == offered covers them)
        for counter in ("query.sql", "query.search"):
            assert after.get(counter, 0) > before.get(counter, 0), counter

    def test_failures_are_recorded_by_exception_class(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        spec = TenantSpec("cc", corpus="callcenter", mix={"sql": 1.0})
        driver = WorkloadDriver(app, [spec], seed=3)
        driver._queries["callcenter"]["sqls"] = ["SELECT * FROM no_such_view"]
        report = driver.run(duration_ms=200.0)
        assert report.errors == report.offered > 0
        assert sum(report.errors_by_class.values()) == report.errors
        assert report.to_dict()["errors_by_class"] == report.errors_by_class

    def test_driver_rejects_bad_specs(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        with pytest.raises(ValueError):
            WorkloadDriver(app, [])
        dup = [TenantSpec("x"), TenantSpec("x")]
        with pytest.raises(ValueError):
            WorkloadDriver(app, dup)
        with pytest.raises(ValueError):
            TenantSpec("x", qos="gold")
        with pytest.raises(ValueError):
            ArrivalSpec(process="bursty")

    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0
