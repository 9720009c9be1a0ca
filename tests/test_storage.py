"""Unit tests for pages, segments, and the document store."""

import pytest

from repro.model.converters import from_text
from repro.model.document import Document
from repro.storage.pages import Page, Segment
from repro.storage.versions import VersionConflictError


def tiny_doc(i: int, size: int = 50) -> Document:
    return from_text(f"t{i}", f"document number {i} " + "pad " * (size // 4))


class TestPage:
    def test_append_and_read(self):
        page = Page(page_id=0, segment_id=0, capacity_bytes=10_000)
        doc = tiny_doc(1)
        slot = page.append(doc)
        assert page.read(slot).doc_id == "t1"
        assert page.doc_count == 1
        assert page.used_bytes == doc.size_bytes()

    def test_fits_respects_capacity(self):
        page = Page(page_id=0, segment_id=0, capacity_bytes=100)
        big = tiny_doc(1, size=400)
        small_page_doc = Document(doc_id="s", content={"d": {"x": 1}})
        page.append(small_page_doc)
        assert not page.fits(big)

    def test_oversized_doc_gets_empty_page(self):
        page = Page(page_id=0, segment_id=0, capacity_bytes=10)
        big = tiny_doc(1, size=400)
        assert page.fits(big)  # empty page takes anything
        page.append(big)
        assert not page.fits(tiny_doc(2))

    def test_append_overflow_raises(self):
        page = Page(page_id=0, segment_id=0, capacity_bytes=10)
        page.append(tiny_doc(1))
        with pytest.raises(ValueError):
            page.append(tiny_doc(2))


class TestSegment:
    def test_allocates_pages_on_demand(self):
        segment = Segment(segment_id=0, page_bytes=500, max_pages=8)
        for i in range(8):
            assert segment.append(tiny_doc(i)) is not None
        assert 1 < segment.page_count <= 8

    def test_returns_none_when_full(self):
        segment = Segment(segment_id=0, page_bytes=150, max_pages=1)
        results = [segment.append(tiny_doc(i, size=200)) for i in range(3)]
        assert results[0] is not None
        assert None in results

    def test_address_readable(self):
        segment = Segment(segment_id=3, page_bytes=1000, max_pages=2)
        address = segment.append(tiny_doc(0))
        assert address.segment_id == 3
        assert segment.page(address.page_id).read(address.slot).doc_id == "t0"

    def test_documents_iterates_all(self):
        segment = Segment(segment_id=0, page_bytes=300, max_pages=8)
        for i in range(5):
            segment.append(tiny_doc(i))
        assert sum(1 for _ in segment.documents()) == 5


class TestDocumentStore:
    def test_put_assigns_timestamp(self, store):
        stored = store.put(from_text("a", "hello"))
        assert stored.ingest_ts > 0

    def test_put_preserves_explicit_timestamp(self, store):
        doc = Document(doc_id="a", content={"x": 1}, ingest_ts=42)
        assert store.put(doc).ingest_ts == 42

    def test_get_latest(self, store):
        store.put(from_text("a", "v1 content here"))
        store.update("a", {"document": {"body": "v2 content"}})
        assert store.get("a").version == 2

    def test_get_version(self, store):
        store.put(from_text("a", "v1 content here"))
        store.update("a", {"document": {"body": "v2"}})
        assert "v1" in store.get_version("a", 1).text

    def test_get_missing_raises(self, store):
        with pytest.raises(LookupError):
            store.get("ghost")

    def test_lookup_returns_none(self, store):
        assert store.lookup("ghost") is None

    def test_version_number_must_chain(self, store):
        store.put(from_text("a", "v1"))
        rogue = Document(doc_id="a", content={"x": 1}, version=5)
        with pytest.raises(VersionConflictError):
            store.put(rogue)

    def test_scan_latest_only_skips_superseded(self, small_store):
        for i in range(10):
            small_store.put(tiny_doc(i))
        small_store.update("t0", {"document": {"body": "new"}})
        ids = [d.doc_id for d in small_store.scan()]
        assert sorted(ids) == sorted(f"t{i}" for i in range(10))
        versions = {d.doc_id: d.version for d in small_store.scan()}
        assert versions["t0"] == 2

    def test_scan_all_versions(self, small_store):
        small_store.put(tiny_doc(0))
        small_store.update("t0", {"document": {"body": "new"}})
        assert sum(1 for _ in small_store.scan(latest_only=False)) == 2

    def test_as_of_snapshot(self, store):
        v1 = store.put(from_text("a", "v1"))
        store.update("a", {"document": {"body": "v2"}})
        assert store.as_of("a", v1.ingest_ts).version == 1
        assert store.as_of("a", store.clock.now).version == 2
        assert store.as_of("a", 0) is None

    def test_history(self, store):
        store.put(from_text("a", "v1"))
        store.update("a", {"document": {"body": "v2"}})
        chain = store.history("a")
        assert len(chain) == 2
        records = chain.records()
        assert [r.version for r in records] == [1, 2]

    def test_segments_roll_over(self, small_store):
        for i in range(40):
            small_store.put(tiny_doc(i))
        assert small_store.segment_count > 1
        assert small_store.doc_count == 40

    def test_put_publishes_one_change_set(self, store):
        seen = []

        def listener(changeset):
            # One commit, one publication, made once the document is durable.
            assert store.get("a").vid == changeset.documents[0].vid
            seen.append([change.doc_id for change in changeset])

        store.feed.subscribe_deltas(listener)
        store.put(from_text("a", "x"))
        assert seen == [["a"]]
        assert store.feed.epoch == store.commit_lsn == 1

    def test_seal_listeners_called(self, small_store):
        sealed = []
        small_store.seal_listeners.append(sealed.append)
        for i in range(40):
            small_store.put(tiny_doc(i))
        assert sealed  # at least one segment sealed
        assert sealed == sorted(sealed)

    def test_scan_addresses_aligns(self, small_store):
        for i in range(10):
            small_store.put(tiny_doc(i))
        for address, doc in small_store.scan_addresses():
            direct = small_store.segment(address.segment_id).page(address.page_id).read(address.slot)
            assert direct.doc_id == doc.doc_id

    def test_stats_counters(self, store):
        store.put(from_text("a", "x"))
        store.get("a")
        list(store.scan())
        assert store.stats.puts == 1
        assert store.stats.gets == 1
        assert store.stats.scans == 1
        assert store.stats.bytes_stored > 0

    def test_update_missing_raises(self, store):
        with pytest.raises(LookupError):
            store.update("ghost", {"x": 1})


class TestEagerScanAccounting:
    """Regression: scan() and scan_batches() are generator *wrappers* —
    validation and the ``stats.scans`` bump happen at the call site, not
    lazily at first iteration."""

    def test_scan_counted_at_call_time(self, store):
        store.put(from_text("a", "hello"))
        iterator = store.scan()  # never iterated
        assert store.stats.scans == 1
        next(iterator)  # still consumable
        assert store.stats.scans == 1

    def test_scan_batches_counted_at_call_time(self, store):
        store.put(from_text("a", "hello"))
        store.scan_batches(batch_size=4)  # never iterated
        assert store.stats.scans == 1

    def test_bad_batch_size_raises_eagerly(self, store):
        store.put(from_text("a", "hello"))
        with pytest.raises(ValueError):
            store.scan_batches(batch_size=0)  # no next() needed
        with pytest.raises(ValueError):
            store.scan_batches(batch_size=-3)
        # the failed calls must not have touched the scan counter
        assert store.stats.scans == 0

    def test_batches_match_scan(self, small_store):
        for i in range(9):
            small_store.put(from_text(f"d{i}", f"doc number {i}"))
        flat = [d.doc_id for d in small_store.scan()]
        batched = [
            d.doc_id
            for batch in small_store.scan_batches(batch_size=4)
            for d in batch
        ]
        assert batched == flat
        sizes = [len(b) for b in small_store.scan_batches(batch_size=4)]
        assert sizes == [4, 4, 1]
