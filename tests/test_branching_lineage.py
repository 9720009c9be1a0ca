"""Tests for branching versions and lineage tracing (Section 4 extensions)."""

import pytest

from repro.model.annotations import Annotation, make_annotation_document
from repro.model.converters import from_text
from repro.model.document import Document, DocumentKind
from repro.storage.branching import (
    BranchManager,
    MergeConflict,
    TRUNK,
    three_way_merge,
)
from repro.storage.lineage import LineageIndex
from repro.storage.store import DocumentStore


class TestThreeWayMerge:
    BASE = {"contract": {"term": "1 year", "fee": 100, "party": "Acme"}}

    def test_no_changes(self):
        assert three_way_merge(self.BASE, self.BASE, self.BASE) == self.BASE

    def test_one_side_change_wins(self):
        ours = {"contract": {"term": "2 years", "fee": 100, "party": "Acme"}}
        merged = three_way_merge(self.BASE, ours, self.BASE)
        assert merged["contract"]["term"] == "2 years"

    def test_disjoint_changes_combine(self):
        ours = {"contract": {"term": "2 years", "fee": 100, "party": "Acme"}}
        theirs = {"contract": {"term": "1 year", "fee": 150, "party": "Acme"}}
        merged = three_way_merge(self.BASE, ours, theirs)
        assert merged["contract"]["term"] == "2 years"
        assert merged["contract"]["fee"] == 150

    def test_addition_merges(self):
        theirs = {"contract": {**self.BASE["contract"], "rider": "added"}}
        merged = three_way_merge(self.BASE, self.BASE, theirs)
        assert merged["contract"]["rider"] == "added"

    def test_deletion_merges(self):
        ours = {"contract": {"term": "1 year", "party": "Acme"}}  # fee deleted
        merged = three_way_merge(self.BASE, ours, self.BASE)
        assert "fee" not in merged["contract"]

    def test_conflict_raises_with_paths(self):
        ours = {"contract": {**self.BASE["contract"], "fee": 120}}
        theirs = {"contract": {**self.BASE["contract"], "fee": 180}}
        with pytest.raises(MergeConflict) as excinfo:
            three_way_merge(self.BASE, ours, theirs)
        assert ("contract", "fee") in excinfo.value.paths

    def test_same_change_both_sides_no_conflict(self):
        both = {"contract": {**self.BASE["contract"], "fee": 120}}
        merged = three_way_merge(self.BASE, both, both)
        assert merged["contract"]["fee"] == 120


class TestBranchManager:
    @pytest.fixture
    def managed(self):
        store = DocumentStore()
        store.put(Document(doc_id="doc", content={"body": {"text": "v1", "tag": "a"}}))
        return BranchManager(store), store

    def test_create_branch_snapshots(self, managed):
        manager, store = managed
        fork = manager.create_branch("doc", "draft")
        assert fork.doc_id == "doc@draft"
        assert fork.first(("body", "text")) == "v1"
        assert manager.branches_of("doc") == [TRUNK, "draft"]

    def test_branch_commits_independent(self, managed):
        manager, store = managed
        manager.create_branch("doc", "draft")
        manager.commit("doc", "draft", {"body": {"text": "draft edit", "tag": "a"}})
        assert manager.head("doc").first(("body", "text")) == "v1"
        assert manager.head("doc", "draft").first(("body", "text")) == "draft edit"

    def test_branch_from_older_version(self, managed):
        manager, store = managed
        manager.commit("doc", TRUNK, {"body": {"text": "v2", "tag": "a"}})
        fork = manager.create_branch("doc", "old", at_version=1)
        assert fork.first(("body", "text")) == "v1"

    def test_merge_fast_forwardish(self, managed):
        manager, store = managed
        manager.create_branch("doc", "draft")
        manager.commit("doc", "draft", {"body": {"text": "improved", "tag": "a"}})
        merged = manager.merge("doc", "draft")
        assert merged.doc_id == "doc"
        assert merged.first(("body", "text")) == "improved"
        assert merged.version == 2

    def test_merge_combines_disjoint_edits(self, managed):
        manager, store = managed
        manager.create_branch("doc", "draft")
        manager.commit("doc", TRUNK, {"body": {"text": "trunk edit", "tag": "a"}})
        manager.commit("doc", "draft", {"body": {"text": "v1", "tag": "b"}})
        merged = manager.merge("doc", "draft")
        assert merged.first(("body", "text")) == "trunk edit"
        assert merged.first(("body", "tag")) == "b"

    def test_merge_conflict_detected(self, managed):
        manager, store = managed
        manager.create_branch("doc", "draft")
        manager.commit("doc", TRUNK, {"body": {"text": "trunk way", "tag": "a"}})
        manager.commit("doc", "draft", {"body": {"text": "branch way", "tag": "a"}})
        with pytest.raises(MergeConflict):
            manager.merge("doc", "draft")

    def test_diverged(self, managed):
        manager, store = managed
        manager.create_branch("doc", "draft")
        assert not manager.diverged("doc", "draft")
        manager.commit("doc", TRUNK, {"body": {"text": "v2", "tag": "a"}})
        assert manager.diverged("doc", "draft")

    def test_duplicate_branch_rejected(self, managed):
        manager, _ = managed
        manager.create_branch("doc", "draft")
        with pytest.raises(ValueError):
            manager.create_branch("doc", "draft")

    def test_trunk_name_reserved(self, managed):
        manager, _ = managed
        with pytest.raises(ValueError):
            manager.create_branch("doc", TRUNK)

    def test_unknown_branch_operations_raise(self, managed):
        manager, _ = managed
        with pytest.raises(LookupError):
            manager.merge("doc", "ghost")
        with pytest.raises(LookupError):
            manager.head("doc", "ghost")

    def test_sequential_primitive_underneath(self, managed):
        """Branches are ordinary version chains in the store — the
        paper's 'built on top of it' hypothesis."""
        manager, store = managed
        manager.create_branch("doc", "draft")
        manager.commit("doc", "draft", {"body": {"text": "x", "tag": "a"}})
        chain = store.history("doc@draft")
        assert [d.version for d in chain] == [1, 2]


class TestLineageIndex:
    @pytest.fixture
    def corpus(self):
        base = from_text("t1", "Alice praised the WidgetPro")
        ann1 = make_annotation_document(
            "ann-1",
            Annotation("product", "product_mention", "t1", {"product": "WidgetPro"}),
        )
        ann2 = make_annotation_document(
            "ann-2",
            Annotation("sentiment", "sentiment", "t1", {"polarity": "positive"}),
        )
        derived = Document(
            doc_id="summary-1",
            content={"summary": {"of": "t1"}},
            kind=DocumentKind.DERIVED,
            refs=("ann-1", "ann-2"),
        )
        return [base, ann1, ann2, derived]

    def test_sources_and_derivatives(self, corpus):
        index = LineageIndex(corpus)
        assert index.sources_of("ann-1") == ["t1"]
        assert index.derivatives("t1") == ["ann-1", "ann-2"]

    def test_ancestry_transitive(self, corpus):
        index = LineageIndex(corpus)
        assert index.ancestry("summary-1") == {"ann-1", "ann-2", "t1"}

    def test_impact_transitive(self, corpus):
        index = LineageIndex(corpus)
        assert index.impact("t1") == {"ann-1", "ann-2", "summary-1"}

    def test_trace_structure(self, corpus):
        index = LineageIndex(corpus)
        trace = index.trace("summary-1")
        assert trace.root == "summary-1"
        assert set(trace.nodes) == {"summary-1", "ann-1", "ann-2", "t1"}
        assert ("ann-1", "t1") in trace.edges
        assert trace.depth == 2
        assert trace.base_sources() == ["t1"]

    def test_unknown_source_rendered(self, corpus):
        index = LineageIndex(corpus[1:])  # t1 missing
        trace = index.trace("ann-1")
        assert trace.nodes["t1"].kind == "unknown"

    def test_new_version_replaces_edges(self, corpus):
        index = LineageIndex(corpus)
        rewired = Document(
            doc_id="summary-1",
            content={"summary": {"of": "t1"}},
            kind=DocumentKind.DERIVED,
            version=2,
            refs=("ann-1",),
        )
        index.record(rewired)
        assert index.derivatives("ann-2") == []
        assert index.sources_of("summary-1") == ["ann-1"]

    def test_stale_version_ignored(self, corpus):
        index = LineageIndex(corpus)
        old = Document(doc_id="summary-1", content={}, version=1, refs=("t1",))
        index.record(old)  # same version: no change
        assert index.sources_of("summary-1") == ["ann-1", "ann-2"]

    def test_appliance_lineage_end_to_end(self):
        """Annotation lineage is traceable directly from discovery output."""
        from repro.core.appliance import Impliance
        from repro.core.config import ApplianceConfig

        app = Impliance(ApplianceConfig(
            n_data_nodes=2, n_grid_nodes=1, product_lexicon=("WidgetPro",)
        ))
        doc = app.ingest("the WidgetPro is excellent")
        app.discover()
        index = LineageIndex(app.documents())
        derived = index.impact(doc.doc_id)
        assert derived  # annotations hang off the base document
        for ann_id in derived:
            assert index.ancestry(ann_id) == {doc.doc_id}
