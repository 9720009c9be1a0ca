"""The serving layer: sessions, tier validation, and per-tenant
accounting of inline requests."""

from __future__ import annotations

import pytest

from repro import ApplianceConfig, Impliance, Principal
from repro.cache.config import CacheConfig
from repro.ingest.config import IngestConfig
from repro.security.policy import (
    AccessDenied,
    Action,
    AccessPolicy,
    Rule,
    Scope,
    open_policy,
)
from repro.serving import QOS_BATCH, QOS_INTERACTIVE
from repro.serving.scheduler import Request, RequestScheduler


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

    def test_connect_rejects_an_unknown_tier_at_the_boundary(self, loaded_app):
        # Used to succeed, then fail the first request with a bare KeyError.
        with pytest.raises(ValueError, match="'interactive', 'batch', 'discovery'"):
            loaded_app.connect(qos="bogus")
        assert loaded_app.connect().qos == QOS_INTERACTIVE

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
# the scheduler: run inline, account per tenant, failures by class
# ----------------------------------------------------------------------
def _req(tenant, qos, **kw):
    return Request(tenant=tenant, qos=qos, kind="search", **kw)


class TestScheduler:
    def test_execute_inline_runs_and_accounts(self):
        sched = RequestScheduler()
        out = sched.execute_inline(_req("t", QOS_INTERACTIVE, fn=lambda: 41 + 1))
        assert out == 42
        stats = sched.stats()["tenants"]["t"]
        assert stats["admitted"] == 1 and stats["completed"] == 1
        assert stats["by_qos"] == {QOS_INTERACTIVE: 1}

    def test_execute_inline_failure_counts(self):
        sched = RequestScheduler()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            sched.execute_inline(_req("t", QOS_INTERACTIVE, fn=boom))
        stats = sched.stats()["tenants"]["t"]
        assert stats["failed"] == 1 and stats["completed"] == 0

    def test_failures_are_counted_by_exception_class(self):
        sched = RequestScheduler()

        def raising(exc):
            def fn():
                raise exc
            return fn

        for tenant, exc in [("a", KeyError("k")), ("a", ValueError("v")),
                            ("b", KeyError("k")), ("b", None)]:
            fn = raising(exc) if exc is not None else (lambda: None)
            try:
                sched.execute_inline(_req(tenant, QOS_BATCH, fn=fn))
            except Exception:
                pass
        stats = sched.stats()
        assert stats["failed"] == 3 and stats["completed"] == 1
        assert stats["failed_by_class"] == {"KeyError": 2, "ValueError": 1}
        assert stats["tenants"]["a"]["failed_by_class"] == {
            "KeyError": 1, "ValueError": 1,
        }
        assert stats["tenants"]["b"]["failed_by_class"] == {"KeyError": 1}
        assert stats["shed"] == 0


# ----------------------------------------------------------------------
# configuration: one validation message shape, no serving knobs
# ----------------------------------------------------------------------
def test_validation_errors_share_message_shape():
    with pytest.raises(ValueError, match="CacheConfig.plan_entries"):
        CacheConfig(plan_entries=0)
    with pytest.raises(ValueError, match="IngestConfig.batch_size"):
        IngestConfig(batch_size=0)
    with pytest.raises(ValueError, match="Impliance.connect.qos must be one of"):
        Impliance(ApplianceConfig(n_data_nodes=1, n_grid_nodes=1)).connect(qos="gold")


@pytest.mark.parametrize("serving", [None, {}, object()], ids=["none", "dict", "object"])
def test_appliance_config_has_no_serving_knobs(serving):
    # Every request runs inline, so there is no queue to size, weight or
    # shed, and no ServingConfig to pass.
    with pytest.raises(TypeError):
        ApplianceConfig(serving=serving)
