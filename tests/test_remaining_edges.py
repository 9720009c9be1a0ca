"""Remaining edge-path tests across security, groups, lineage, faceted."""

import pytest

from repro.cluster.groups import ConsistencyGroup
from repro.cluster.network import Network
from repro.cluster.node import NodeKind, SimNode
from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.index.joins import JoinEdge
from repro.model.document import Document, DocumentKind
from repro.security import AccessPolicy, Action, Principal, Rule, Scope, Effect
from repro.storage.lineage import LineageIndex


class TestSecureGraphInterface:
    def test_graph_over_secured_session(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        a = app.ingest("doc a", doc_id="a")
        b = app.ingest("doc b", doc_id="b")
        app.indexes.joins.add(JoinEdge("rel", "a", "b"))
        policy = AccessPolicy([Rule("all", ["user"], [Action.READ, Action.QUERY])])
        session = app.secure_session(Principal("u", ["user"]), policy)
        connection = session.graph().how_connected("a", "b")
        assert connection is not None and connection.hops == 1

    def test_audit_context_recorded(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        app.ingest("needle in haystack", doc_id="n1")
        policy = AccessPolicy([Rule("all", ["user"], [Action.READ, Action.QUERY])])
        session = app.secure_session(Principal("u", ["user"]), policy)
        session.search("needle")
        contexts = [r.context for r in session.audit.accesses_by("u")]
        assert any(c.startswith("search:") for c in contexts)

    def test_annotation_scope_rule(self):
        """Deny access to discovery output while base data stays open."""
        app = Impliance(ApplianceConfig(
            n_data_nodes=2, n_grid_nodes=1, product_lexicon=("WidgetPro",)
        ))
        app.ingest("the WidgetPro report", doc_id="t1")
        app.discover()
        policy = AccessPolicy([
            Rule("all", ["user"], [Action.READ, Action.QUERY]),
            Rule("no-annotations", ["user"], [Action.READ, Action.QUERY],
                 Scope(kind=DocumentKind.ANNOTATION), Effect.DENY),
        ])
        session = app.secure_session(Principal("u", ["user"]), policy)
        visible_kinds = {d.kind for d in session.documents()}
        assert DocumentKind.ANNOTATION not in visible_kinds
        assert session.lookup("t1") is not None


class TestGroupMembershipEdges:
    def test_leave_releases_dangling_locks(self):
        network = Network()
        members = [SimNode(f"c{i}", NodeKind.CLUSTER) for i in range(3)]
        group = ConsistencyGroup("g", members, network)
        group.acquire("key-1", "txn", "r")
        departing = group.owner_of("key-1")
        if group.size > 1:
            group.leave(departing)
        # group survives, lock table is consistent
        assert group.size == 2
        group.release("key-1", "txn")  # never raises on re-release

    def test_owner_skips_dead_members(self):
        network = Network()
        members = [SimNode(f"c{i}", NodeKind.CLUSTER) for i in range(3)]
        group = ConsistencyGroup("g", members, network)
        members[0].fail()
        for key in ("a", "b", "c", "d"):
            assert group.owner_of(key).alive

    def test_no_live_members_raises(self):
        network = Network()
        members = [SimNode("c0", NodeKind.CLUSTER)]
        group = ConsistencyGroup("g", members, network)
        members[0].fail()
        with pytest.raises(RuntimeError):
            group.owner_of("k")


class TestLineageDiamonds:
    def test_diamond_depth_and_sources(self):
        #      base
        #     /    \
        #   mid1  mid2
        #     \    /
        #      top
        docs = [
            Document(doc_id="base", content={"x": 1}),
            Document(doc_id="mid1", content={"x": 1}, kind=DocumentKind.DERIVED,
                     refs=("base",)),
            Document(doc_id="mid2", content={"x": 1}, kind=DocumentKind.DERIVED,
                     refs=("base",)),
            Document(doc_id="top", content={"x": 1}, kind=DocumentKind.DERIVED,
                     refs=("mid1", "mid2")),
        ]
        index = LineageIndex(docs)
        trace = index.trace("top")
        assert trace.depth == 2
        assert trace.base_sources() == ["base"]
        assert index.ancestry("top") == {"base", "mid1", "mid2"}
        assert index.impact("base") == {"mid1", "mid2", "top"}


class TestFacetedWithin:
    def test_within_restricts_everything_view(self):
        from repro.index.facets import source_format_facet
        from repro.model.converters import from_text
        from repro.query.engine import LocalRepository
        from repro.query.faceted import FacetedSession
        from repro.storage.store import DocumentStore

        store = DocumentStore()
        repo = LocalRepository(store)
        repo.indexes.facets.define(source_format_facet())
        store.put_listeners.append(lambda d, a: repo.indexes.index_document(d))
        for i in range(6):
            store.put(from_text(f"t{i}", f"text number {i}"))
        session = FacetedSession(repo, within={"t0", "t1"})
        assert session.count() == 2
        assert dict(session.facet_counts("format")) == {"text": 2}

    def test_within_intersects_query(self):
        from repro.index.facets import source_format_facet
        from repro.model.converters import from_text
        from repro.query.engine import LocalRepository
        from repro.query.faceted import FacetedSession
        from repro.storage.store import DocumentStore

        store = DocumentStore()
        repo = LocalRepository(store)
        repo.indexes.facets.define(source_format_facet())
        store.put_listeners.append(lambda d, a: repo.indexes.index_document(d))
        store.put(from_text("a", "wanted term here"))
        store.put(from_text("b", "wanted term too"))
        session = FacetedSession(repo, query="wanted", within={"a"})
        assert session.selection == {"a"}
