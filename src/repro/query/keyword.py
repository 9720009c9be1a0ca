"""Keyword search interface: works "out of the box" (Section 3.2.1).

The simplest of Impliance's two query interfaces: BM25-ranked keyword
retrieval over everything ever infused, regardless of format.  Results
can be *enriched*: hits on annotation documents are folded back onto
their subjects, so a query matching a discovered product mention
surfaces the transcript it was found in (the Figure 1 story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.model.annotations import is_annotation_document, subject_of
from repro.model.document import Document


@dataclass
class KeywordHit:
    """One retrieval result: the document and how it was reached."""

    doc_id: str
    score: float
    document: Optional[Document] = None
    via_annotation: Optional[str] = None  # annotation doc id, when folded


def copy_hits(hits: List[KeywordHit]) -> List[KeywordHit]:
    """Fresh hit objects over the same (frozen) documents — what the
    result cache keeps and hands out, so no caller can edit a cached
    answer."""
    return [KeywordHit(h.doc_id, h.score, h.document, h.via_annotation) for h in hits]


class KeywordSearch:
    """Keyword retrieval over a repository (engine-protocol object)."""

    def __init__(self, repository) -> None:
        self.repository = repository

    def search(
        self,
        query: str,
        top_k: int = 10,
        fetch: bool = True,
        fold_annotations: bool = True,
        within: Optional[Set[str]] = None,
    ) -> List[KeywordHit]:
        """Ranked search.

        With *fold_annotations* (the default), a hit on an annotation
        document is replaced by a hit on its subject (keeping the best
        score per subject) — users asked for their data, not the system's
        bookkeeping; the annotation id is retained for provenance.

        Every candidate is fetched once: the documents read while folding
        are the ones the top-k carry (a policy-scoped repository therefore
        audits one READ per candidate per search).
        """
        raw = self.repository.indexes.text.search(query, top_k=top_k * 3, candidates=within)
        lookup = self.repository.lookup
        fetched: Dict[str, Optional[Document]] = {}
        best: Dict[str, KeywordHit] = {}
        for hit in raw:
            document = fetched[hit.doc_id] = lookup(hit.doc_id)
            target_id = hit.doc_id
            via = None
            if (
                fold_annotations
                and document is not None
                and is_annotation_document(document)
            ):
                target_id = subject_of(document)
                via = hit.doc_id
            existing = best.get(target_id)
            if existing is None or hit.score > existing.score:
                best[target_id] = KeywordHit(
                    doc_id=target_id, score=hit.score, via_annotation=via
                )
        ranked = sorted(best.values(), key=lambda h: (-h.score, h.doc_id))[:top_k]
        if fetch:
            for hit in ranked:
                # A folded hit's subject may not have been a candidate.
                if hit.doc_id not in fetched:
                    fetched[hit.doc_id] = lookup(hit.doc_id)
                hit.document = fetched[hit.doc_id]
        return ranked

    def phrase(self, phrase: str) -> Set[str]:
        """Exact-phrase match (doc-id set)."""
        return self.repository.indexes.text.match_phrase(phrase)

    def all_terms(self, query: str) -> Set[str]:
        """Boolean-AND match (doc-id set)."""
        return self.repository.indexes.text.match_all(query)
