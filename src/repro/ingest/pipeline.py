"""The staged ingest pipeline: validate → stage → group commit.

Ingest is Impliance's front door (Figure 1): everything — prose, rows,
XML, email — enters here, is normalized into the uniform model, and only
then flows to storage, indexing, and the asynchronous discovery phases.
This module turns that flow into explicit stages with a bounded staging
queue between producer and group commit:

1. **validate** — :func:`repro.model.projection.projection_of` walks the
   content tree once, rejecting unclassifiable values and caching the
   projection every later stage reuses.
2. **stage** — the document enters the :class:`BackpressureQueue`; a
   full queue stalls (or sheds) the producer instead of growing without
   bound.
3. **group commit** — one batch takes one sharded storage write across
   the data nodes, one index-maintenance round, one coalesced cache
   invalidation epoch, and one discovery enqueue.

The pipeline drives the same appliance components the per-document
reactive path uses; it merely orchestrates them batch-at-a-time.  While
a batch commits, the appliance's store listeners stand down
(``_pipeline_active``) so stages run exactly once per document.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from repro.ingest.config import IngestConfig
from repro.ingest.queue import ADMITTED, SHED, STALLED, BackpressureQueue
from repro.model.document import Document
from repro.model.projection import projection_of


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause cyclic GC for the duration of a bulk run.

    The collector's cost is proportional to the *live* set, and a bulk
    load grows that set as fast as anything in the system — letting the
    periodic collection re-traverse every stored document and posting
    list mid-load dominates the batched path's runtime.  Reference
    counting still reclaims everything the pipeline drops (its batch
    structures are acyclic); cycle collection resumes on exit and the
    deferred sweep happens at the next natural trigger instead of
    hundreds of times during the load.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class IngestReport:
    """Outcome of one bulk/stream ingest run."""

    offered: int = 0        #: documents presented to the pipeline
    stored: int = 0         #: documents that reached storage
    shed: int = 0           #: documents dropped by shed admission
    stalls: int = 0         #: producer stalls while waiting for a drain
    batches: int = 0        #: group commits performed
    finish_ms: float = 0.0  #: latest simulated finish across commits

    @property
    def all_stored(self) -> bool:
        return self.stored == self.offered


class IngestPipeline:
    """Batched write path over an :class:`repro.core.Impliance`.

    The public appliance ``ingest*`` methods all funnel here — a single
    document is simply a batch of one, so both paths share validation,
    storage ordering, index maintenance, and invalidation semantics.
    """

    def __init__(self, appliance, config: IngestConfig) -> None:
        self.appliance = appliance
        self.config = config
        telemetry = appliance.telemetry if appliance.telemetry.enabled else None
        self.queue: BackpressureQueue[Document] = BackpressureQueue(config, telemetry)

    # ------------------------------------------------------------------
    # bulk entry points
    # ------------------------------------------------------------------
    def run_documents(self, documents: Sequence[Document]) -> List[Document]:
        """Ingest a list through the staged pipeline; returns the stored
        documents in arrival order.

        Bulk callers must not lose documents, so admission never sheds
        here: a full queue drains a batch downstream and re-offers
        (counted as a backpressure stall).  A validation error mid-list
        still commits the documents admitted before it — the same
        prefix-survives semantics as a sequential ingest loop.
        """
        if len(documents) >= self.config.batch_size:
            # A genuinely bulk run: keep the cycle collector out of the
            # hot loop (a batch of one must not pay a full collection).
            with _gc_paused():
                return self._run_documents(documents)
        return self._run_documents(documents)

    def _run_documents(self, documents: Sequence[Document]) -> List[Document]:
        stored: List[Document] = []
        try:
            for document in documents:
                projection_of(document)  # validate stage; caches the walk
                while self.queue.admit(document, can_shed=False) is not ADMITTED:
                    stored.extend(self._flush_batch())
                if self.queue.depth >= self.config.batch_size:
                    stored.extend(self._flush_batch())
        finally:
            while self.queue.depth:
                stored.extend(self._flush_batch())
        return stored

    def commit(self, documents: Sequence[Document]) -> List[Document]:
        """Validate *documents*, then commit them as one group commit
        however many there are — discovery's chunk commit: one epoch and
        at most one standby shipment per node.  A validation error
        commits nothing."""
        for document in documents:
            projection_of(document)
        return self._commit_batch(list(documents))

    def run_stream(self, documents: Iterable[Document]) -> IngestReport:
        """Ingest a stream under the configured admission policy.

        Unlike :meth:`run_documents`, a ``"shed"``-configured pipeline
        may drop documents when the queue is full — the report says how
        many.  Under ``"block"`` the stream stalls and drains like the
        bulk path.
        """
        report = IngestReport()
        stalls_before = self.queue.stats.stalls
        shed_before = self.queue.stats.shed
        with _gc_paused():
            for document in documents:
                report.offered += 1
                projection_of(document)
                outcome = self.queue.admit(document)
                if outcome is SHED:
                    continue
                while outcome is STALLED:
                    self._drain_into(report)
                    outcome = self.queue.admit(document)
                    if outcome is SHED:  # pragma: no cover - shed after stall
                        break
                if self.queue.depth >= self.config.batch_size:
                    self._drain_into(report)
            while self.queue.depth:
                self._drain_into(report)
        report.stalls = self.queue.stats.stalls - stalls_before
        report.shed = self.queue.stats.shed - shed_before
        return report

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------
    def _drain_into(self, report: IngestReport) -> None:
        batch = self._flush_batch()
        if batch:
            report.stored += len(batch)
            report.batches += 1
            report.finish_ms = max(report.finish_ms, self._last_finish)

    def _flush_batch(self) -> List[Document]:
        batch = self.queue.take_batch(self.config.batch_size)
        if not batch:
            return []
        return self._commit_batch(batch)

    def _commit_batch(self, batch: List[Document]) -> List[Document]:
        """One group commit: storage shards, indexes, views, discovery.

        The appliance's reactive store listeners are suppressed for the
        duration — the pipeline calls each maintenance stage explicitly,
        once per batch — and every per-store put event lands in a single
        coalesced invalidation publication (one cache epoch, one change
        set per batch, however many nodes the batch sharded across).

        Index and auto-view maintenance run *inside* the coalescing
        window: the change set is published when the window closes, so
        delta consumers — incremental materializations, standing-query
        notifications that may re-evaluate through the engine — always
        observe the batch fully committed (stores, indexes, and catalog
        views consistent), exactly like the reactive path, where store
        listeners index before the bus publishes.  Tombstones in the
        batch (batched deletes) are unindexed instead of indexed and
        skip discovery/view growth.
        """
        app = self.appliance
        telemetry = app.telemetry
        with telemetry.span("ingest.batch", docs=len(batch)):
            app._pipeline_active = True
            try:
                with app.caches.bus.coalescing():
                    stored, finish = app.executor.ingest_batch(batch)
                    live = [d for d in stored if not d.is_tombstone]
                    app.indexes.index_batch(live)
                    for tombstone in stored:
                        if tombstone.is_tombstone:
                            app.indexes.unindex(tombstone.doc_id)
                    app._maintain_auto_views(live)
                    app.discovery.enqueue_many(live)
            finally:
                app._pipeline_active = False
        self._last_finish = finish
        telemetry.inc("ingest.docs", len(stored))
        telemetry.inc("ingest.batches")
        telemetry.observe("ingest.batch_size", len(stored))
        return stored

    _last_finish = 0.0
