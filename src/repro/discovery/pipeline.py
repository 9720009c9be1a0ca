"""The discovery engine: asynchronous enrichment passes (Figure 1).

"All data entering into Impliance will also go through a number of
asynchronous analysis phases."  Documents queue up as they are infused;
:meth:`DiscoveryEngine.run_pass` is the background task that drains the
queue under a budget, running annotators, persisting annotation
documents, resolving entities, and registering discovered relationships
as join-index edges.  Ingest never waits on any of this — the property
the DISC experiment measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set

from repro.discovery.annotators import Annotator
from repro.discovery.relationships import CoMentionRule, RelationshipDiscoverer, RelationshipRule
from repro.discovery.resolution import EntityResolver, Mention
from repro.model.annotations import Annotation, make_annotation_document
from repro.model.document import Document, DocumentKind
from repro.model.schema import SchemaRegistry
from repro.obs.telemetry import DISABLED, Telemetry
from repro.util import IdGenerator

#: Queue ids resolved per dequeue chunk inside a pass (one commit each).
DRAIN_BATCH = 64


@dataclass
class DiscoveryStats:
    docs_processed: int = 0
    annotations_created: int = 0
    edges_added: int = 0
    passes: int = 0


class DiscoveryEngine:
    """Coordinates annotators, resolution, and relationship discovery.

    Parameters
    ----------
    repository:
        Engine-protocol repository (indexes + lookup) whose join index
        receives discovered edges.
    persist:
        Callable committing a list of new annotation documents (the
        appliance passes its ingest pipeline's ``commit``: one group
        commit per call).  Returns the stored documents.
    annotators:
        The annotator suite to run.
    rules:
        Declarative relationship rules (annotation → master data).
    entity_labels:
        Payload fields per annotation label to feed entity resolution,
        e.g. ``{"person": "name"}``; resolved entities generate
        co-mention edges.
    """

    def __init__(
        self,
        repository,
        persist: Callable[[Sequence[Document]], List[Document]],
        annotators: Sequence[Annotator],
        rules: Iterable[RelationshipRule] = (),
        entity_labels: Optional[Dict[str, str]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.repository = repository
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._persist = persist
        self.annotators = list(annotators)
        self.schema_registry = SchemaRegistry()
        self.resolver = EntityResolver()
        self._entity_labels = dict(entity_labels or {"person": "name"})
        self._relationships = RelationshipDiscoverer(
            rules, repository.indexes.values, repository.indexes.joins
        )
        self._co_mentions = CoMentionRule(repository.indexes.joins)
        self._queue: Deque[str] = deque()
        self._queued: Set[str] = set()
        self._processed: Set[tuple] = set()  # (doc_id, version) already done
        self._ids = IdGenerator("ann")
        self.stats = DiscoveryStats()

    # ------------------------------------------------------------------
    def enqueue(self, document: Document) -> None:
        """Register a newly infused document for future discovery.

        Annotation documents are not re-annotated by default (that keeps
        the pipeline loop-free); everything else queues once per version.
        """
        if document.kind is DocumentKind.ANNOTATION:
            return
        if document.doc_id in self._queued:
            return
        if document.vid in self._processed:
            # Already annotated this exact version — chains promoted onto
            # survivors after a node failure must not trigger duplicate
            # discovery.
            return
        self._queue.append(document.doc_id)
        self._queued.add(document.doc_id)

    def enqueue_many(self, documents: Sequence[Document]) -> int:
        """Register one ingest batch, in arrival order.

        Queue order (and therefore annotation-id assignment, which is
        sequential) is exactly what per-document :meth:`enqueue` calls
        over the same sequence would produce.  Returns how many joined
        the queue; the backlog gauge updates once for the batch.
        """
        before = len(self._queue)
        for document in documents:
            self.enqueue(document)
        added = len(self._queue) - before
        self.telemetry.set_gauge("discovery.backlog", len(self._queue))
        return added

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def add_rule(self, rule: RelationshipRule) -> None:
        """Install a relationship rule at runtime."""
        self._relationships.add_rule(rule)

    # ------------------------------------------------------------------
    def run_pass(self, budget: Optional[int] = None) -> int:
        """Process up to *budget* queued documents; returns how many.

        The queue drains in chunks of up to :data:`DRAIN_BATCH`
        documents, each annotated, committed in one persister call, then
        book-kept document by document in annotation-at-a-time order.
        """
        processed = 0
        with self.telemetry.span("discovery.pass") as span:
            while self._queue and (budget is None or processed < budget):
                room = DRAIN_BATCH if budget is None else min(DRAIN_BATCH, budget - processed)
                chunk = self._dequeue_batch(room)
                self._run_chunk(chunk)
                processed += len(chunk)
            span.tag("processed", processed)
        if processed:
            self.stats.passes += 1
            self.telemetry.inc("discovery.passes")
        self.telemetry.set_gauge("discovery.backlog", len(self._queue))
        return processed

    def _dequeue_batch(self, limit: int) -> List[Document]:
        """Pop up to *limit* resolvable documents off the queue.

        Ids whose document vanished (superseded before discovery got to
        them and then unreachable) are skipped without consuming budget,
        matching the old one-at-a-time behavior.
        """
        batch: List[Document] = []
        while self._queue and len(batch) < limit:
            doc_id = self._queue.popleft()
            self._queued.discard(doc_id)
            document = self.repository.lookup(doc_id)
            if document is not None:
                batch.append(document)
        return batch

    def _run_chunk(self, chunk: List[Document]) -> None:
        """Annotate, commit and book-keep one dequeued chunk.

        A commit that raises re-issues the chunk's ids and puts it back
        at the front of the queue untouched.  A follow-up (relationship
        rules, entity resolution) that raises after the commit does not
        stop the rest of the chunk's bookkeeping.  Both count by class
        and propagate.
        """
        issued = self._ids.issued
        annotated = [(document, self.process_document(document)) for document in chunk]
        pending = [
            make_annotation_document(self._ids.next(), annotation)
            for _, annotations in annotated for annotation in annotations
        ]
        if pending:
            try:
                self._persist(pending)
            except Exception as exc:
                self._ids.issued = issued
                ids = [document.doc_id for document in chunk]
                self._queue.extendleft(reversed(ids))
                self._queued.update(ids)
                self.telemetry.inc(f"discovery.persist_failed.{type(exc).__name__}")
                raise
        failure: Optional[Exception] = None
        for document, annotations in annotated:
            self.schema_registry.register(document)
            self._processed.add(document.vid)
            for annotation in annotations:
                try:
                    self._handle_annotation(annotation)
                except Exception as exc:
                    self.telemetry.inc(f"discovery.followup_failed.{type(exc).__name__}")
                    failure = failure or exc
            self.stats.docs_processed += 1
            self.telemetry.inc("discovery.docs_processed")
        if failure is not None:
            raise failure

    def process_document(self, document: Document) -> List[Annotation]:
        """Run every applicable annotator over one document; returns the
        annotations, in annotator order (nothing is persisted here)."""
        with self.telemetry.span("discovery.doc", doc=document.doc_id) as span:
            annotations: List[Annotation] = []
            for annotator in self.annotators:
                if annotator.applies_to(document):
                    annotations.extend(annotator.annotate(document))
            span.tag("annotations", len(annotations))
        return annotations

    def _handle_annotation(self, annotation: Annotation) -> None:
        self.stats.annotations_created += 1
        self.telemetry.inc("discovery.annotations")

        edges = self._relationships.on_annotation(annotation)
        self.stats.edges_added += len(edges)
        if edges:
            self.telemetry.inc("discovery.edges", len(edges))

        payload_field = self._entity_labels.get(annotation.label)
        if payload_field is not None:
            value = annotation.payload.get(payload_field)
            if value:
                entity = self.resolver.resolve(
                    Mention(annotation.subject_id, str(value), annotation.label)
                )
                co_edges = self._co_mentions.on_entity_docs(
                    annotation.subject_id, entity.doc_ids
                )
                self.stats.edges_added += len(co_edges)
                if co_edges:
                    self.telemetry.inc("discovery.edges", len(co_edges))

    # ------------------------------------------------------------------
    def drain(self, batch: int = 64) -> int:
        """Run passes until the backlog is empty; returns total processed."""
        total = 0
        while self._queue:
            total += self.run_pass(batch)
        return total
