"""The bounded staging queue between pipeline stages.

The simulation is single-threaded, so backpressure is modeled as control
flow rather than blocked threads: :meth:`BackpressureQueue.admit` either
accepts an item or reports why not.  Under ``"block"`` admission a full
queue *stalls* the producer — it must drain a batch downstream and
re-offer; each stall is counted and exported as the
``ingest.backpressure_stalls`` counter.  Under ``"shed"`` admission the
item is dropped and counted instead — load shedding for streams where
staleness beats queueing collapse.  Queue depth is exported as the
``ingest.queue_depth`` gauge after every transition.

The ingest pipeline stages through one such queue (``ingest.*`` metrics).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, List, TypeVar

from repro.ingest.config import ADMISSION_SHED, IngestConfig

T = TypeVar("T")

#: Admission outcomes.
ADMITTED = "admitted"
STALLED = "stalled"  # full under block admission: drain a batch, re-offer
SHED = "shed"        # full under shed admission: the item is gone


@dataclass
class QueueStats:
    enqueued: int = 0
    drained: int = 0
    stalls: int = 0
    shed: int = 0


class BackpressureQueue(Generic[T]):
    """Bounded FIFO with explicit admission control, sized and
    policed by an :class:`IngestConfig`."""

    def __init__(self, config: IngestConfig, telemetry=None) -> None:
        self.capacity = config.queue_capacity
        self.shed_on_full = config.admission == ADMISSION_SHED
        self.telemetry = telemetry
        self.stats = QueueStats()
        self._items: Deque[T] = deque()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def _gauge(self) -> None:
        if self.telemetry is not None:
            self.telemetry.set_gauge("ingest.queue_depth", len(self._items))

    # ------------------------------------------------------------------
    def admit(self, item: T, can_shed: bool = True) -> str:
        """Try to enqueue *item*; returns the admission outcome.

        ``ADMITTED``: enqueued.  ``STALLED``: full — the caller must
        drain a batch and offer again (backpressure).  ``SHED``: full
        under shed admission — the item was rejected outright.  Bulk
        callers that must not lose documents pass ``can_shed=False`` to
        force stall semantics regardless of policy.
        """
        if self.full:
            if self.shed_on_full and can_shed:
                self.stats.shed += 1
                if self.telemetry is not None:
                    self.telemetry.inc("ingest.shed")
                return SHED
            self.stats.stalls += 1
            if self.telemetry is not None:
                self.telemetry.inc("ingest.backpressure_stalls")
            return STALLED
        self._items.append(item)
        self.stats.enqueued += 1
        self._gauge()
        return ADMITTED

    def take_batch(self, limit: int) -> List[T]:
        """Dequeue up to *limit* items in FIFO order."""
        take = min(limit, len(self._items))
        batch = [self._items.popleft() for _ in range(take)]
        if batch:
            self.stats.drained += len(batch)
            self._gauge()
        return batch
