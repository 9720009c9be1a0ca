"""Tests for the Section-4 security extension: policy, audit, enforcement."""

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.model.converters import from_relational_row, from_text
from repro.security import (
    AccessDenied,
    AccessPolicy,
    Action,
    AuditLog,
    Effect,
    Principal,
    Rule,
    Scope,
    SYSTEM_ROLE,
    open_policy,
)


@pytest.fixture
def docs():
    return {
        "order": from_relational_row("o1", "orders", {"oid": 1, "amount": 10}),
        "salary": from_relational_row("s1", "salaries", {"emp": 1, "amount": 90000}),
        "memo": from_text("m1", "internal memo about the merger"),
    }


class TestPrincipal:
    def test_roles_frozen(self):
        principal = Principal("alice", ["analyst"])
        assert principal.has_any_role(frozenset({"analyst", "admin"}))
        assert not principal.has_any_role(frozenset({"admin"}))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Principal("", ["x"])


class TestScope:
    def test_table_scope(self, docs):
        scope = Scope(table="salaries")
        assert scope.matches(docs["salary"])
        assert not scope.matches(docs["order"])

    def test_format_scope(self, docs):
        scope = Scope(source_format="text")
        assert scope.matches(docs["memo"])
        assert not scope.matches(docs["order"])

    def test_predicate_scope(self, docs):
        scope = Scope(predicate=lambda d: d.first(("orders", "amount"), 0) > 5)
        assert scope.matches(docs["order"])
        assert not scope.matches(docs["memo"])

    def test_empty_scope_matches_all(self, docs):
        scope = Scope()
        assert all(scope.matches(d) for d in docs.values())


class TestPolicyEvaluation:
    def test_default_deny(self, docs):
        policy = AccessPolicy()
        alice = Principal("alice", ["analyst"])
        assert not policy.allows(alice, Action.READ, docs["order"])

    def test_grant_by_role(self, docs):
        policy = AccessPolicy([Rule("r", ["analyst"], [Action.READ])])
        assert policy.allows(Principal("a", ["analyst"]), Action.READ, docs["order"])
        assert not policy.allows(Principal("b", ["intern"]), Action.READ, docs["order"])

    def test_action_granularity(self, docs):
        policy = AccessPolicy([Rule("r", ["analyst"], [Action.READ])])
        alice = Principal("a", ["analyst"])
        assert not policy.allows(alice, Action.UPDATE, docs["order"])

    def test_deny_overrides_allow(self, docs):
        policy = AccessPolicy(
            [
                Rule("all", ["analyst"], [Action.READ, Action.QUERY]),
                Rule("hr-only", ["analyst"], [Action.READ, Action.QUERY],
                     Scope(table="salaries"), Effect.DENY),
            ]
        )
        alice = Principal("a", ["analyst"])
        assert policy.allows(alice, Action.READ, docs["order"])
        assert not policy.allows(alice, Action.READ, docs["salary"])

    def test_system_role_bypasses(self, docs):
        policy = AccessPolicy()  # empty = deny everything
        system = Principal("discovery", [SYSTEM_ROLE])
        assert policy.allows(system, Action.UPDATE, docs["salary"])

    def test_check_raises(self, docs):
        policy = AccessPolicy()
        with pytest.raises(AccessDenied):
            policy.check(Principal("a", ["x"]), Action.READ, docs["order"])

    def test_filter(self, docs):
        policy = AccessPolicy(
            [Rule("orders-only", ["analyst"], [Action.QUERY], Scope(table="orders"))]
        )
        visible = policy.filter(
            Principal("a", ["analyst"]), Action.QUERY, docs.values()
        )
        assert [d.doc_id for d in visible] == ["o1"]

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("", ["x"], [Action.READ])
        with pytest.raises(ValueError):
            Rule("r", [], [Action.READ])
        with pytest.raises(ValueError):
            Rule("r", ["x"], [])

    def test_duplicate_rule_rejected(self):
        policy = AccessPolicy([Rule("r", ["x"], [Action.READ])])
        with pytest.raises(ValueError):
            policy.add(Rule("r", ["y"], [Action.READ]))

    def test_remove_rule(self, docs):
        policy = AccessPolicy([Rule("r", ["x"], [Action.READ])])
        policy.remove("r")
        assert not policy.allows(Principal("a", ["x"]), Action.READ, docs["order"])
        with pytest.raises(KeyError):
            policy.remove("ghost")


class TestAuditLog:
    def test_records_indexed_both_ways(self):
        log = AuditLog()
        log.record("alice", Action.READ, "d1", True, "lookup")
        log.record("bob", Action.READ, "d1", False, "lookup")
        log.record("alice", Action.QUERY, "d2", True, "search:merger")
        assert len(log.accesses_by("alice")) == 2
        assert len(log.accesses_to("d1")) == 2
        assert [r.principal for r in log.denials()] == ["bob"]

    def test_timestamps_monotone(self):
        log = AuditLog()
        first = log.record("a", Action.READ, "d", True)
        second = log.record("a", Action.READ, "d", True)
        assert second.ts > first.ts

    def test_between(self):
        log = AuditLog()
        r1 = log.record("a", Action.READ, "d1", True)
        r2 = log.record("a", Action.READ, "d2", True)
        r3 = log.record("a", Action.READ, "d3", True)
        assert log.between(r2.ts, r3.ts) == [r2, r3]


@pytest.fixture
def secured_app():
    app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
    app.ingest({"oid": 1, "amount": 10.0}, table="orders", doc_id="o1")
    app.ingest({"emp": 1, "amount": 90000.0}, table="salaries", doc_id="s1")
    app.ingest("public product announcement for everyone", doc_id="m1")
    policy = AccessPolicy(
        [
            Rule("read-most", ["analyst"], [Action.READ, Action.QUERY]),
            Rule("no-salaries", ["analyst"], [Action.READ, Action.QUERY],
                 Scope(table="salaries"), Effect.DENY),
            Rule("writers", ["writer"], [Action.READ, Action.QUERY, Action.UPDATE]),
        ]
    )
    return app, policy


class TestSecureSession:
    def test_lookup_enforced_and_audited(self, secured_app):
        app, policy = secured_app
        session = app.secure_session(Principal("alice", ["analyst"]), policy)
        assert session.lookup("o1") is not None
        assert session.lookup("s1") is None  # denied, not an error
        records = session.audit.accesses_to("s1")
        assert records and not records[0].granted

    def test_search_filters_results(self, secured_app):
        app, policy = secured_app
        session = app.secure_session(Principal("alice", ["analyst"]), policy)
        hits = session.search("announcement")
        assert [h.doc_id for h in hits] == ["m1"]

    def test_search_audits_one_read_per_candidate(self, secured_app):
        # One fetch per candidate: the top-k used to be read (and audited)
        # a second time through SecureSession.lookup.
        app, policy = secured_app
        app.ingest("second public announcement", doc_id="m2")
        app.ingest({"emp": 2, "note": "announcement"}, table="salaries", doc_id="s2")
        session = app.connect(Principal("alice", ["analyst"]), policy=policy)
        hits = session.search("announcement").hits
        assert sorted(h.doc_id for h in hits) == ["m1", "m2"]
        assert all(h.document is not None for h in hits)
        records = session.audit.accesses_by("alice")
        reads = [(r.doc_id, r.granted) for r in records if r.action is Action.READ]
        assert sorted(reads) == [("m1", True), ("m2", True), ("s2", False)]
        grants = [r for r in records if r.action is Action.QUERY]
        assert sorted(r.doc_id for r in grants) == ["m1", "m2"]
        assert all(r.granted and r.context == "search:announcement" for r in grants)
        # ... per search: a repeat audits again (policy sessions are never
        # served from the result cache).
        assert not session.search("announcement").cached
        assert len(session.audit.accesses_by("alice")) == 2 * len(records)

    def test_sql_scoped_to_visible_documents(self, secured_app):
        app, policy = secured_app
        session = app.secure_session(Principal("alice", ["analyst"]), policy)
        assert session.sql("SELECT * FROM orders").rows
        assert session.sql("SELECT * FROM salaries").rows == []

    def test_writer_sees_salaries(self, secured_app):
        app, policy = secured_app
        session = app.secure_session(Principal("hr", ["writer"]), policy)
        assert len(session.sql("SELECT * FROM salaries").rows) == 1

    def test_update_enforced(self, secured_app):
        app, policy = secured_app
        analyst = app.secure_session(Principal("alice", ["analyst"]), policy)
        with pytest.raises(AccessDenied):
            analyst.update_document("o1", {"orders": {"oid": 1, "amount": 0.0}})
        writer = app.secure_session(Principal("bob", ["writer"]), policy)
        updated = writer.update_document("o1", {"orders": {"oid": 1, "amount": 0.0}})
        assert updated.version == 2

    def test_denied_update_audited(self, secured_app):
        app, policy = secured_app
        analyst = app.secure_session(Principal("alice", ["analyst"]), policy)
        with pytest.raises(AccessDenied):
            analyst.update_document("o1", {"orders": {}})
        assert analyst.audit.denials()

    def test_faceted_respects_policy(self, secured_app):
        app, policy = secured_app
        session = app.secure_session(Principal("alice", ["analyst"]), policy)
        counts = dict(session.faceted().facet_counts("table"))
        assert "salaries" not in counts
        assert counts.get("orders") == 1

    def test_open_policy_defaults(self, secured_app):
        app, _ = secured_app
        session = app.secure_session(Principal("u", ["user"]), open_policy())
        assert session.lookup("s1") is not None
        with pytest.raises(AccessDenied):
            session.update_document("o1", {"orders": {}})
