"""Tests for hybrid search: content + structure + values in one query."""

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.index.structural import RangeQuery
from repro.model.converters import from_relational_row, from_text, from_xml
from repro.query.engine import LocalRepository
from repro.query.hybrid import HybridQuery, HybridSearch
from repro.storage.store import DocumentStore


@pytest.fixture
def repo():
    store = DocumentStore()
    repository = LocalRepository(store)
    from repro.index.facets import source_format_facet

    repository.indexes.facets.define(source_format_facet())
    store.put_listeners.append(lambda d, a: repository.indexes.index_document(d))
    store.put(from_relational_row("c1", "claims", {"cid": 1, "procedure": "biopsy", "amount": 400.0}))
    store.put(from_relational_row("c2", "claims", {"cid": 2, "procedure": "biopsy", "amount": 4000.0}))
    store.put(from_relational_row("c3", "claims", {"cid": 3, "procedure": "dialysis", "amount": 900.0}))
    store.put(from_xml("x1", "<report><estimate>4100</estimate><part>door</part></report>"))
    store.put(from_text("t1", "the expensive biopsy estimate looks suspicious and high"))
    store.put(from_text("t2", "routine dialysis claim, nothing suspicious at all"))
    return repository


class TestConstraints:
    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            HybridQuery()

    def test_text_only(self, repo):
        hits = HybridSearch(repo).search(HybridQuery(text="suspicious"))
        assert {h.doc_id for h in hits} == {"t1", "t2"}

    def test_phrase(self, repo):
        hits = HybridSearch(repo).search(HybridQuery(phrase="biopsy estimate"))
        assert [h.doc_id for h in hits] == ["t1"]

    def test_structural_path(self, repo):
        search = HybridSearch(repo)
        assert search.candidates(HybridQuery(has_path=[("claims", "amount")])) == {
            "c1", "c2", "c3",
        }

    def test_structural_suffix_spans_schemas(self, repo):
        search = HybridSearch(repo)
        got = search.candidates(HybridQuery(has_path_suffix=[("estimate",)]))
        assert got == {"x1"}

    def test_value_equality(self, repo):
        search = HybridSearch(repo)
        got = search.candidates(
            HybridQuery(value_equals=[(("claims", "procedure"), "biopsy")])
        )
        assert got == {"c1", "c2"}

    def test_value_range(self, repo):
        search = HybridSearch(repo)
        got = search.candidates(
            HybridQuery(value_ranges=[RangeQuery(("claims", "amount"), low=1000)])
        )
        assert got == {"c2"}

    def test_facet_constraint(self, repo):
        search = HybridSearch(repo)
        got = search.candidates(HybridQuery(facets=[("format", "xml")]))
        assert got == {"x1"}

    def test_conjunction_narrows(self, repo):
        search = HybridSearch(repo)
        got = search.candidates(
            HybridQuery(
                value_equals=[(("claims", "procedure"), "biopsy")],
                value_ranges=[RangeQuery(("claims", "amount"), high=1000)],
            )
        )
        assert got == {"c1"}

    def test_impossible_conjunction_empty(self, repo):
        search = HybridSearch(repo)
        got = search.candidates(
            HybridQuery(text="suspicious", has_path=[("claims", "amount")])
        )
        assert got == set()

    def test_ranking_with_text(self, repo):
        hits = HybridSearch(repo).search(HybridQuery(text="suspicious dialysis"))
        assert hits[0].doc_id == "t2"
        assert hits[0].score > 0
        assert hits[0].document is not None

    def test_ranking_without_text_id_order(self, repo):
        hits = HybridSearch(repo).search(HybridQuery(has_path=[("claims", "amount")]))
        assert [h.doc_id for h in hits] == ["c1", "c2", "c3"]
        assert all(h.score == 0.0 for h in hits)

    def test_count(self, repo):
        assert HybridSearch(repo).count(HybridQuery(text="suspicious")) == 2

    def test_top_k(self, repo):
        hits = HybridSearch(repo).search(
            HybridQuery(has_path=[("claims", "amount")]), top_k=2
        )
        assert len(hits) == 2


class TestApplianceIntegration:
    def test_annotated_with_constraint(self):
        app = Impliance(ApplianceConfig(
            n_data_nodes=2, n_grid_nodes=1, procedure_lexicon=("biopsy",)
        ))
        app.ingest("the biopsy result arrived, great news", doc_id="note-pos")
        app.ingest("weather is fine today", doc_id="note-noise")
        app.discover()
        hits = app.find(HybridQuery(annotated_with=["procedure_mention"]))
        assert [h.doc_id for h in hits] == ["note-pos"]

    def test_combined_annotation_and_sentiment(self):
        app = Impliance(ApplianceConfig(
            n_data_nodes=2, n_grid_nodes=1, procedure_lexicon=("biopsy",)
        ))
        app.ingest("the biopsy went great, excellent care", doc_id="good")
        app.ingest("the biopsy was botched, terrible experience", doc_id="bad")
        app.discover()
        hits = app.find(
            HybridQuery(
                text="terrible",
                annotated_with=["procedure_mention", "sentiment"],
            )
        )
        assert [h.doc_id for h in hits] == ["bad"]
