"""Annotation-at-a-time discovery: the reference a chunk commit answers to.

This is how the appliance ran discovery before a chunk's annotations
became one group commit.  Nothing under ``src/`` imports it.

- :func:`per_annotation_persister` commits each annotation document on
  its own: routed to its home data node like ``ImplianceCluster.ingest``
  routes a document, and committed there as its own ``put_many`` — so
  each one is its own invalidation epoch and standby shipment, and is
  indexed by the appliance's reactive store listeners before the next
  one lands.
- :func:`annotation_at_a_time_pass` is the pass loop that went with it:
  per document, schema registration, then per annotation: allocate the
  id, persist, apply relationship rules and entity resolution — each
  annotation fully book-kept before the next is even built.

Install both on an appliance with ``app.discovery._persist =
per_annotation_persister(app)`` and drive it with
``annotation_at_a_time_pass(app.discovery, 64)``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.discovery.pipeline import DRAIN_BATCH
from repro.model.annotations import make_annotation_document
from repro.model.document import Document


def per_annotation_persister(app) -> Callable[[Sequence[Document]], List[Document]]:
    """A discovery persister for *app* committing one annotation per
    ``put_many``; returns the stored documents in order."""

    def persist(documents: Sequence[Document]) -> List[Document]:
        stored: List[Document] = []
        for document in documents:
            home = app.cluster.home_of(document.doc_id)
            stored.extend(home.store.put_many([document]))
        return stored

    return persist


def annotation_at_a_time_pass(engine, budget: Optional[int] = None) -> int:
    """Process up to *budget* queued documents of the discovery *engine*
    one annotation at a time; returns how many documents."""
    processed = 0
    while engine._queue and (budget is None or processed < budget):
        room = DRAIN_BATCH if budget is None else min(DRAIN_BATCH, budget - processed)
        for document in engine._dequeue_batch(room):
            engine.schema_registry.register(document)
            engine._processed.add(document.vid)
            for annotator in engine.annotators:
                if not annotator.applies_to(document):
                    continue
                for annotation in annotator.annotate(document):
                    ann_doc = make_annotation_document(engine._ids.next(), annotation)
                    engine._persist([ann_doc])
                    engine._handle_annotation(annotation)
            engine.stats.docs_processed += 1
            processed += 1
    if processed:
        engine.stats.passes += 1
    return processed
