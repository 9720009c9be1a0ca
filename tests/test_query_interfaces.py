"""Tests for keyword, faceted, and graph query interfaces."""

import pytest

from repro.index.facets import path_facet, source_format_facet
from repro.index.joins import JoinEdge
from repro.model.annotations import Annotation, make_annotation_document
from repro.model.converters import from_relational_row, from_text
from repro.query.engine import LocalRepository
from repro.query.faceted import FacetedSession
from repro.query.graph import GraphQuery
from repro.query.keyword import KeywordSearch
from repro.storage.store import DocumentStore


@pytest.fixture
def media_repo():
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.indexes.facets.define(source_format_facet())
    repo.indexes.facets.define(path_facet("region", ("orders", "region")))
    store.put(from_text("t1", "the widget assembly broke during testing"))
    store.put(from_text("t2", "widget shipment delayed due to weather"))
    store.put(from_text("t3", "gadget sales exceeded forecast"))
    store.put(from_relational_row("o1", "orders", {"oid": 1, "region": "east", "amount": 10}))
    store.put(from_relational_row("o2", "orders", {"oid": 2, "region": "west", "amount": 30}))
    ann = Annotation(
        annotator="product", label="product_mention", subject_id="t3",
        payload={"product": "GadgetMax special identifier xyzzy"},
    )
    store.put(make_annotation_document("ann-1", ann))
    return repo


class TestKeywordSearch:
    def test_ranked_hits(self, media_repo):
        hits = KeywordSearch(media_repo).search("widget")
        assert {h.doc_id for h in hits} == {"t1", "t2"}
        assert hits[0].document is not None

    def test_annotation_folding(self, media_repo):
        hits = KeywordSearch(media_repo).search("xyzzy")
        assert hits[0].doc_id == "t3"
        assert hits[0].via_annotation == "ann-1"

    def test_no_folding_when_disabled(self, media_repo):
        hits = KeywordSearch(media_repo).search("xyzzy", fold_annotations=False)
        assert hits[0].doc_id == "ann-1"

    def test_within_restriction(self, media_repo):
        hits = KeywordSearch(media_repo).search("widget", within={"t2"})
        assert [h.doc_id for h in hits] == ["t2"]

    def test_phrase_and_boolean(self, media_repo):
        search = KeywordSearch(media_repo)
        assert search.phrase("widget shipment") == {"t2"}
        assert search.all_terms("widget weather") == {"t2"}


class TestFacetedSession:
    def test_facet_counts_unrestricted(self, media_repo):
        session = FacetedSession(media_repo)
        counts = dict(session.facet_counts("format"))
        assert counts["text"] == 3
        assert counts["relational"] == 2

    def test_drill_narrows(self, media_repo):
        session = FacetedSession(media_repo)
        session.drill("format", "relational")
        assert session.count() == 2
        session.drill("region", "east")
        assert session.count() == 1
        assert session.selection == {"o1"}

    def test_back_undoes(self, media_repo):
        session = FacetedSession(media_repo)
        session.drill("format", "relational").drill("region", "east")
        session.back()
        assert session.count() == 2
        assert len(session.breadcrumbs) == 1

    def test_across_replaces_sibling(self, media_repo):
        session = FacetedSession(media_repo)
        session.drill("format", "relational").drill("region", "east")
        session.across("region", "west")
        assert session.selection == {"o2"}
        assert len(session.breadcrumbs) == 2

    def test_query_seeded_session(self, media_repo):
        session = FacetedSession(media_repo, query="widget")
        assert session.count() == 2
        counts = dict(session.facet_counts("format"))
        assert counts == {"text": 2}

    def test_results_ranked(self, media_repo):
        session = FacetedSession(media_repo, query="widget")
        results = session.results(top_k=1)
        assert len(results) == 1
        assert results[0].document is not None

    def test_aggregate_measure(self, media_repo):
        session = FacetedSession(media_repo)
        report = dict(session.aggregate("region", ("orders", "amount")))
        assert report["east"]["sum"] == 10.0
        assert report["west"]["sum"] == 30.0

    def test_unknown_facet_raises(self, media_repo):
        with pytest.raises(KeyError):
            FacetedSession(media_repo).drill("ghost", 1)


class TestGraphQuery:
    @pytest.fixture
    def graph_repo(self, media_repo):
        joins = media_repo.indexes.joins
        joins.add(JoinEdge("mentions", "t1", "o1"))
        joins.add(JoinEdge("mentions", "t2", "o1"))
        joins.add(JoinEdge("follows", "t2", "t3"))
        return media_repo

    def test_how_connected(self, graph_repo):
        result = GraphQuery(graph_repo).how_connected("t1", "t3")
        assert result is not None
        assert result.path[0] == "t1" and result.path[-1] == "t3"
        assert result.hops == 3
        assert "-->" in result.render()

    def test_not_connected(self, graph_repo):
        query = GraphQuery(graph_repo)
        assert query.how_connected("t1", "nonexistent") is None

    def test_relation_filter(self, graph_repo):
        query = GraphQuery(graph_repo)
        assert query.how_connected("t1", "t3", relations={"mentions"}) is None

    def test_related_with_fetch(self, graph_repo):
        related = GraphQuery(graph_repo).related("o1", fetch=True)
        assert set(related) == {"t1", "t2"}
        assert related["t1"].doc_id == "t1"

    def test_closure(self, graph_repo):
        closure = GraphQuery(graph_repo).closure("t1")
        assert closure == {"o1", "t2", "t3"}

    def test_hubs(self, graph_repo):
        hubs = GraphQuery(graph_repo).hubs(top=2)
        assert hubs[0][0] in ("o1", "t2")
        assert hubs[0][1] >= hubs[1][1]
