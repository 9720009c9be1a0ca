"""The document store: segments + version chains + buffer pool.

This is the persistence service a single data node runs.  Documents are
appended into paged segments (never updated in place), every version is
retained in a chain, and all reads flow through the buffer pool so the
prefetching and piggybacked-discovery machinery sees real page traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.model.document import Document
from repro.storage.bufferpool import AccessHint, BufferPool, Prefetcher
from repro.storage.columnstore import ColumnStore, is_columnar_view
from repro.storage.pages import (
    DEFAULT_PAGE_BYTES,
    DEFAULT_SEGMENT_PAGES,
    Page,
    PageAddress,
    Segment,
)
from repro.storage.versions import VersionChain, VersionConflictError, VersionIndex
from repro.util import LogicalClock


@dataclass
class StoreStats:
    """Aggregate counters of one store instance."""

    puts: int = 0
    gets: int = 0
    scans: int = 0
    bytes_stored: int = 0


class DocumentStore:
    """Append-only, versioned document storage with paged layout.

    Parameters
    ----------
    clock:
        Logical clock supplying ingest timestamps; a private clock is
        created when none is shared in.
    page_bytes / segment_pages:
        Physical layout parameters.
    buffer_capacity:
        Page frames in the buffer pool.
    prefetcher:
        Read-ahead policy (defaults to none; the executor installs a
        hinted prefetcher).
    """

    def __init__(
        self,
        clock: Optional[LogicalClock] = None,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        segment_pages: int = DEFAULT_SEGMENT_PAGES,
        buffer_capacity: int = 128,
        prefetcher: Optional[Prefetcher] = None,
    ) -> None:
        self.clock = clock if clock is not None else LogicalClock()
        self.page_bytes = page_bytes
        self.segment_pages = segment_pages
        self._segments: Dict[int, Segment] = {}
        self._open_segment_id: Optional[int] = None
        self._next_segment_id = 0
        self.versions = VersionIndex()
        self._addresses: Dict[Tuple[str, int], PageAddress] = {}
        self.stats = StoreStats()
        #: Monotone group-commit sequence number: bumped once per commit
        #: (``put`` is a commit of one; ``delete`` rides ``put``) before
        #: any listener fires, so a replication subscriber reading it
        #: during the announcement sees the LSN of the batch it carries.
        #: This is the recovery layer's replay cursor (docs/RECOVERY.md).
        self.commit_lsn = 0
        #: Documents whose head version is live (not tombstoned).
        #: Maintained incrementally at commit so the columnar scan path
        #: can charge the exact per-document scan cost the row path pays
        #: without re-walking the version index.
        self.live_doc_count = 0
        #: Commit-time columnar mirror of table-shaped documents; column
        #: segments draw ids from the same counter as row segments so
        #: buffer-pool keys never collide.
        self.column_store = ColumnStore(
            allocate_segment_id=self._allocate_segment_id,
            segment_pages=segment_pages,
        )
        self.buffer_pool = BufferPool(
            capacity_pages=buffer_capacity,
            fetch=self._fetch_page,
            segment_pages=self._segment_page_count,
            prefetcher=prefetcher,
        )
        #: Hooks called after every successful put; indexes subscribe here
        #: so maintenance is incremental (Section 3.3 last paragraph).
        #: Fired once per document, and only after the whole commit — a
        #: listener never observes a document whose page address is not
        #: durable yet.
        self.put_listeners: List[Callable[[Document, PageAddress], None]] = []
        #: Batch-granular hooks: one call per group commit with the whole
        #: ``[(document, address), ...]`` batch (a plain :meth:`put` is a
        #: batch of one).  Index maintenance and cache invalidation
        #: subscribe here so their work amortizes across the batch.
        self.batch_put_listeners: List[
            Callable[[List[Tuple[Document, PageAddress]]], None]
        ] = []
        #: Hooks called when a segment seals; the replica manager places
        #: sealed segments.
        self.seal_listeners: List[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # physical plumbing
    # ------------------------------------------------------------------
    def _allocate_segment_id(self) -> int:
        """Next id from the shared row/column segment-id space."""
        segment_id = self._next_segment_id
        self._next_segment_id += 1
        return segment_id

    def _fetch_page(self, segment_id: int, page_id: int):
        segment = self._segments.get(segment_id)
        if segment is not None:
            return segment.page(page_id)
        return self.column_store.page(segment_id, page_id)

    def _segment_page_count(self, segment_id: int) -> int:
        segment = self._segments.get(segment_id)
        if segment is not None:
            return segment.page_count
        return self.column_store.page_count(segment_id)

    def _open_segment(self) -> Segment:
        if self._open_segment_id is not None:
            return self._segments[self._open_segment_id]
        segment = Segment(
            segment_id=self._allocate_segment_id(),
            page_bytes=self.page_bytes,
            max_pages=self.segment_pages,
        )
        self._segments[segment.segment_id] = segment
        self._open_segment_id = segment.segment_id
        return segment

    def _seal_open_segment(self) -> None:
        sealed_id = self._open_segment_id
        self._open_segment_id = None
        if sealed_id is not None:
            for listener in self.seal_listeners:
                listener(sealed_id)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, document: Document) -> Document:
        """Persist *document*; returns the stored (timestamped) version.

        A zero ``ingest_ts`` is replaced by the next clock tick.  Version
        numbering is validated against the chain — callers create new
        versions with :meth:`Document.new_version`, never by mutating.

        Ordering matters: validate → append to a page → record the
        version → notify.  Validation happens *before* the physical
        append, and the version is recorded *after* it, so a crash (or
        injected fault) at any point leaves no phantom version whose
        address was never written — listeners only ever see durable
        documents.
        """
        if document.ingest_ts == 0:
            document = document.stamped(self.clock.tick())
        self.versions.validate(document)
        address = self._append_physical(document)
        self._commit_version(document, address)
        self.stats.puts += 1
        self.stats.bytes_stored += document.size_bytes()
        self._notify_put([(document, address)])
        return document

    def put_many(self, documents) -> List[Document]:
        """Group commit: persist *documents* as one batch, in order.

        Store state afterwards is exactly what sequential :meth:`put`
        calls would produce — same timestamps, same page layout, same
        version chains.  What changes is the announcement protocol: every
        document in the batch is physically durable (page address written,
        version recorded) before *any* listener fires, and the batch
        listeners fire exactly once for the whole group.

        The batch is admitted as a unit: every document is validated
        against the version chains (and against earlier documents in the
        same batch) before the first page is touched, so a conflicting
        batch is rejected wholesale rather than half-applied.
        """
        staged: List[Document] = []
        batch_next: Dict[str, int] = {}
        batch_last_ts: Dict[str, int] = {}
        for document in documents:
            if document.ingest_ts == 0:
                document = document.stamped(self.clock.tick())
            expected = batch_next.get(document.doc_id)
            if expected is None:
                self.versions.validate(document)
            else:
                if document.version != expected:
                    raise VersionConflictError(
                        f"{document.doc_id}: expected version {expected},"
                        f" got {document.version}"
                    )
                if document.ingest_ts < batch_last_ts[document.doc_id]:
                    raise VersionConflictError(
                        f"{document.doc_id}: version {document.version} has"
                        " ingest_ts earlier than its in-batch predecessor"
                    )
            batch_next[document.doc_id] = document.version + 1
            batch_last_ts[document.doc_id] = document.ingest_ts
            staged.append(document)
        if not staged:
            return []

        pairs: List[Tuple[Document, PageAddress]] = []
        total_bytes = 0
        for document in staged:
            address = self._append_physical(document)
            self._commit_version(document, address)
            total_bytes += document.size_bytes()
            pairs.append((document, address))
        self.stats.puts += len(staged)
        self.stats.bytes_stored += total_bytes
        self._notify_put(pairs)
        return staged

    def _commit_version(self, document: Document, address: PageAddress) -> None:
        """Record one durably-appended version: version chain, address
        map, live-document count, and the columnar mirror.

        Columnar maintenance happens here — at group-commit time, after
        the physical append — so the column pages only ever describe
        durable rows, and a put that fails validation or the page append
        never touches them.
        """
        doc_id = document.doc_id
        was_live = (
            doc_id in self.versions and not self.versions.head(doc_id).is_tombstone
        )
        self.versions.record(document)
        self._addresses[document.vid] = address
        now_live = not document.is_tombstone
        self.live_doc_count += int(now_live) - int(was_live)
        self.column_store.on_put(document, address)

    def _append_physical(self, document: Document) -> PageAddress:
        """Append *document* into the open segment, sealing as needed."""
        segment = self._open_segment()
        address = segment.append(document)
        if address is None:
            self._seal_open_segment()
            segment = self._open_segment()
            address = segment.append(document)
            if address is None:
                raise RuntimeError("fresh segment refused an append")
        return address

    def _notify_put(self, pairs: List[Tuple[Document, PageAddress]]) -> None:
        """Announce a committed batch: batch listeners once, then the
        per-document compat hooks in batch order."""
        self.commit_lsn += 1
        for listener in self.batch_put_listeners:
            listener(pairs)
        for document, address in pairs:
            for listener in self.put_listeners:
                listener(document, address)

    def update(self, doc_id: str, content, metadata: Optional[dict] = None) -> Document:
        """Convenience: derive and persist the next version of *doc_id*."""
        head = self.versions.head(doc_id)
        return self.put(head.new_version(content, metadata))

    def delete(self, doc_id: str) -> Document:
        """Delete *doc_id* by appending a tombstone version.

        The appliance never removes bytes: the tombstone supersedes the
        head, so ``lookup`` answers None and scans skip the chain, while
        ``history``/``as_of`` still see every earlier version.  Listeners
        are notified like any put — the tombstone flows down the
        invalidation bus as a delete change.  Idempotent: deleting a
        deleted document returns the existing tombstone without a new
        version.  Raises LookupError for an unknown doc_id.
        """
        head = self.versions.head(doc_id)
        if head.is_tombstone:
            return head
        return self.put(head.tombstone())

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read_at(self, address: PageAddress, hint: AccessHint) -> Document:
        page = self.buffer_pool.get(address.segment_id, address.page_id, hint)
        return page.read(address.slot)

    def get(self, doc_id: str, hint: AccessHint = AccessHint.RANDOM) -> Document:
        """Latest version of *doc_id* (LookupError when absent)."""
        head = self.versions.head(doc_id)
        self.stats.gets += 1
        return self._read_at(self._addresses[head.vid], hint)

    def get_version(self, doc_id: str, version: int) -> Document:
        doc = self.versions.chain(doc_id).get(version)
        self.stats.gets += 1
        return self._read_at(self._addresses[doc.vid], AccessHint.RANDOM)

    def as_of(self, doc_id: str, ts: int) -> Optional[Document]:
        """Snapshot read: latest version visible at logical time *ts*."""
        doc = self.versions.as_of(doc_id, ts)
        if doc is None:
            return None
        self.stats.gets += 1
        return self._read_at(self._addresses[doc.vid], AccessHint.RANDOM)

    def lookup(self, doc_id: str) -> Optional[Document]:
        """Latest *live* version or ``None`` — the non-throwing form views
        use.  A tombstoned document answers None, like one never stored;
        ``get``/``history``/``as_of`` still reach the physical chain."""
        if doc_id not in self.versions:
            return None
        if self.versions.head(doc_id).is_tombstone:
            return None
        return self.get(doc_id)

    def contains(self, doc_id: str) -> bool:
        return doc_id in self.versions

    def has_version(self, doc_id: str, version: int) -> bool:
        """True when this store committed exactly (*doc_id*, *version*).

        Address-map membership, not a chain walk: the replication layer
        attributes each change in a coalesced multi-node publication to
        the one store that committed it, without touching any page.
        """
        return (doc_id, version) in self._addresses

    def history(self, doc_id: str) -> VersionChain:
        return self.versions.chain(doc_id)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan(self, latest_only: bool = True) -> Iterator[Document]:
        """Sequential scan of every stored document, through the pool.

        With ``latest_only`` (the default) superseded versions are
        skipped, so query processing sees current state while audits can
        still scan everything.

        Not itself a generator: the scan is *counted* at the call site,
        not at first iteration — deferred ``stats.scans`` accounting made
        the counter disagree with the number of scans callers issued.
        """
        self.stats.scans += 1
        return self._scan_documents(latest_only)

    def _scan_documents(self, latest_only: bool) -> Iterator[Document]:
        for segment_id in sorted(self._segments):
            segment = self._segments[segment_id]
            for page_id in range(segment.page_count):
                page = self.buffer_pool.get(segment_id, page_id, AccessHint.SEQUENTIAL)
                for document in page.documents():
                    if latest_only:
                        head = self.versions.head(document.doc_id)
                        if head.version != document.version:
                            continue
                        if document.is_tombstone:
                            continue  # deleted: live scans skip the chain
                    yield document

    def scan_batches(
        self, batch_size: int = 256, latest_only: bool = True
    ) -> Iterator[List[Document]]:
        """Sequential scan yielding documents in fixed-size batches.

        The vectorized execution path consumes scans batch-at-a-time;
        this is the storage end of that pipeline.  Page traffic and scan
        accounting are identical to :meth:`scan` — only the hand-off
        granularity changes.

        Validation is eager: a bad *batch_size* raises here, at the call
        site, not at first ``next()`` deep inside an operator pipeline
        (the wrapper-over-generator pattern :meth:`scan` also uses for
        its accounting).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self._batched(self.scan(latest_only=latest_only), batch_size)

    @staticmethod
    def _batched(
        documents: Iterator[Document], batch_size: int
    ) -> Iterator[List[Document]]:
        batch: List[Document] = []
        for document in documents:
            batch.append(document)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def scan_view_batches(self, view, batch_size: int = 256, lookup=None):
        """Columnar scan of *view* straight off the encoded pages, or
        ``None`` when the view cannot be answered columnar (non-table
        views, views with predicates — anything failing
        :func:`~repro.storage.columnstore.is_columnar_view`).

        Returns an iterator of still-encoded
        :class:`~repro.exec.batch.ColumnBatch`\\ es whose rows/order are
        byte-identical to projecting :meth:`scan` output through *view*.
        Page traffic flows through the buffer pool with a SEQUENTIAL
        hint — same caching, prefetch, and observer behavior as a row
        scan — and the scan is counted here at the call site, like
        :meth:`scan`.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not is_columnar_view(view):
            return None
        self.stats.scans += 1
        self.column_store.stats.scans += 1
        return self.column_store.scan_view_batches(
            view,
            fetch_page=lambda s, p: self.buffer_pool.get(s, p, AccessHint.SEQUENTIAL),
            read_document=lambda address: self._read_at(address, AccessHint.RANDOM),
            lookup=lookup if lookup is not None else self.lookup,
            batch_size=batch_size,
        )

    def scan_addresses(self) -> Iterator[Tuple[PageAddress, Document]]:
        """Scan with physical addresses, for index builders."""
        for segment_id in sorted(self._segments):
            segment = self._segments[segment_id]
            for page_id in range(segment.page_count):
                page = self.buffer_pool.get(segment_id, page_id, AccessHint.SEQUENTIAL)
                for slot in range(page.doc_count):
                    yield PageAddress(segment_id, page_id, slot), page.read(slot)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def doc_count(self) -> int:
        """Distinct documents (not counting superseded versions)."""
        return len(self.versions)

    @property
    def version_count(self) -> int:
        return len(self._addresses)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def segment_ids(self) -> List[int]:
        return sorted(self._segments)

    def segment(self, segment_id: int) -> Segment:
        return self._segments[segment_id]

    def doc_ids(self) -> List[str]:
        return self.versions.doc_ids()
