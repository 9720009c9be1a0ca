"""Index manager: keeps every index current as documents arrive.

An :class:`IndexManager` learns of writes from the change feed
(:mod:`repro.storage.bus`): the appliance's global index and each data
node's own index take one :meth:`IndexManager.index_batch` per published
change set, upserts and tombstones together, so "this indexing need not
take place as part of the same transaction that infused that document
initially" (Section 3.2) and maintenance stays incremental (Section 3.3).
:meth:`IndexManager.rebuild_from` is the periodic full-rebuild baseline
the IDX experiment measures against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.index.facets import FacetDefinition, FacetIndex
from repro.index.joins import JoinIndex
from repro.index.structural import StructuralIndex, ValueIndex
from repro.index.text import InvertedIndex
from repro.model.document import Document
from repro.model.projection import projection_of
from repro.storage.store import DocumentStore


class IndexManager:
    """One handle owning the text, structural, value, and facet indexes.

    Parameters
    ----------
    facets:
        Facet definitions to maintain.
    """

    def __init__(
        self,
        facets: Iterable[FacetDefinition] = (),
        telemetry=None,
    ) -> None:
        # Telemetry stays None-guarded (not the DISABLED singleton):
        # per-node index managers are numerous and sit on every commit.
        self.telemetry = telemetry
        self.text = InvertedIndex()
        self.structure = StructuralIndex()
        self.values = ValueIndex()
        self.facets = FacetIndex(facets)
        self.joins = JoinIndex()

    def index_document(self, document: Document) -> None:
        """(Re-)index one document version across all indexes.

        Indexing the same doc_id again replaces the previous version's
        entries — superseded versions never pollute search results.  A
        tombstone version removes the document from every index: deleted
        documents must stop matching immediately.
        """
        if document.is_tombstone:
            self.unindex(document.doc_id)
            return
        self.text.add(document.doc_id, document.text)
        self.structure.add(document)
        self.values.add(document)
        self.facets.add(document)
        if self.telemetry is not None:
            self.telemetry.inc("index.documents_indexed")

    def index_batch(self, documents: List[Document]) -> int:
        """Group index maintenance: one bulk pass over every index.

        Each document's projection (one content walk: text, postings,
        structure, value entries — see ``repro.model.projection``) feeds
        all four indexes, and documents sharing a structural signature are
        loaded into the structural index as one group.  Final index state
        and probe answers are identical to calling :meth:`index_document`
        per document in the same order.

        A batch that mentions the same doc_id twice (two versions in one
        group commit) falls back to the sequential path — replacement
        semantics depend on arrival order, which grouping would lose.
        """
        if not documents:
            return 0
        if any(document.is_tombstone for document in documents):
            # Deletes take the sequential path: arrival order decides
            # whether a doc_id ends the batch indexed or removed.
            for document in documents:
                self.index_document(document)
            return len(documents)
        doc_ids = [document.doc_id for document in documents]
        if len(set(doc_ids)) != len(doc_ids):
            for document in documents:
                self.index_document(document)
            return len(documents)

        projections = [projection_of(document) for document in documents]
        for document, projection in zip(documents, projections):
            self.text.add_projected(
                document.doc_id, projection.term_positions, projection.token_count
            )
        groups: Dict[frozenset, List[str]] = {}
        group_order: List[frozenset] = []
        for document, projection in zip(documents, projections):
            members = groups.get(projection.structure)
            if members is None:
                groups[projection.structure] = members = []
                group_order.append(projection.structure)
            members.append(document.doc_id)
        for signature in group_order:
            self.structure.add_group(signature, groups[signature])
        for document, projection in zip(documents, projections):
            self.values.add_entries(document.doc_id, projection.value_entries)
            self.facets.add(document)
        if self.telemetry is not None:
            self.telemetry.inc("index.documents_indexed", len(documents))
        return len(documents)

    def unindex(self, doc_id: str) -> None:
        self.text.remove(doc_id)
        self.structure.remove(doc_id)
        self.values.remove(doc_id)
        self.facets.remove(doc_id)
        self.joins.remove_doc(doc_id)

    # ------------------------------------------------------------------
    def rebuild_from(self, store: DocumentStore) -> None:
        """Full rebuild from a store scan (the IDX baseline strategy)."""
        self.text = InvertedIndex()
        self.structure = StructuralIndex()
        self.values = ValueIndex()
        rebuilt_facets = FacetIndex()
        for name in self.facets.facet_names():
            rebuilt_facets.define(self.facets._definitions[name])
        self.facets = rebuilt_facets
        for document in store.scan(latest_only=True):
            self.index_document(document)
