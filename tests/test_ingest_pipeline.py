"""The staged ingest pipeline: batching, backpressure, group semantics."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.ingest import ADMITTED, SHED, STALLED, BackpressureQueue, IngestConfig
from repro.model.converters import from_relational_row, from_text
from repro.storage.store import DocumentStore
from repro.storage.versions import VersionConflictError


def order_doc(i: int, table: str = "orders"):
    return from_relational_row(
        f"o{i}", table, {"oid": i, "amount": float(i), "region": "east"}
    )


def make_app(**ingest_kwargs) -> Impliance:
    config = ApplianceConfig(ingest=IngestConfig(**ingest_kwargs))
    return Impliance(config)


# ----------------------------------------------------------------------
# coalesced invalidation: one epoch bump per ingest batch
# ----------------------------------------------------------------------
class TestCoalescedInvalidation:
    def test_one_epoch_bump_per_batch_across_nodes(self):
        """A 40-document batch shards across all four data nodes, yet the
        cache sees exactly ONE invalidation epoch bump — not one per
        document, not one per node group commit."""
        app = make_app()
        bus = app.caches.bus
        docs = [order_doc(i) for i in range(40)]
        epoch_before = bus.epoch
        events_before = bus.stats.put_events

        stored = app.ingest_many(docs)

        homes = {app.cluster.home_of(d.doc_id).node_id for d in stored}
        assert len(homes) > 1, "corpus too small to shard — weak test"
        assert bus.epoch - epoch_before == 1
        assert bus.stats.put_events - events_before == 1

    def test_one_epoch_bump_per_batch_not_per_document(self):
        app = make_app(batch_size=8, queue_capacity=16)
        bus = app.caches.bus
        epoch_before = bus.epoch
        app.ingest_many([order_doc(i) for i in range(24)])
        assert bus.epoch - epoch_before == 3  # 24 docs / 8 per batch

    def test_batch_invalidation_counters(self):
        app = make_app(batch_size=16, queue_capacity=32)
        app.ingest_many([order_doc(i) for i in range(32)])
        counters = app.stats()["counters"]
        assert counters["ingest.batches"] == 2
        assert counters["ingest.docs"] == 32
        assert counters["cache.invalidation.put_batches"] == 2
        assert counters["cache.invalidation.puts"] == 32

    def test_single_document_ingest_still_one_event(self):
        app = make_app()
        bus = app.caches.bus
        before = bus.stats.put_events
        app.ingest("solo document text")
        assert bus.stats.put_events - before == 1

    def test_invalidation_still_fires_per_batch_content(self):
        """A cached SQL answer over a table is invalidated by a batch
        that writes that table."""
        app = make_app()
        app.ingest_many([order_doc(i) for i in range(10)])
        first = app.sql("SELECT count(*) AS n FROM orders").rows
        assert first == [{"n": 10}]
        app.ingest_many([order_doc(i) for i in range(10, 25)])
        assert app.sql("SELECT count(*) AS n FROM orders").rows == [{"n": 25}]


# ----------------------------------------------------------------------
# storage group commit ordering (put listeners fire after durability)
# ----------------------------------------------------------------------
class TestGroupCommitOrdering:
    def test_listener_sees_durable_document_single_put(self):
        store = DocumentStore()
        seen = []

        def listener(document, address):
            # At listener time the put must be fully durable: address
            # recorded, version chain current, readable through get().
            assert store.contains(document.doc_id)
            assert store.get(document.doc_id).vid == document.vid
            assert store.versions.head(document.doc_id).vid == document.vid
            seen.append(document.doc_id)

        store.put_listeners.append(listener)
        store.put(from_text("t1", "hello"))
        assert seen == ["t1"]

    def test_batch_listener_sees_whole_batch_durable(self):
        store = DocumentStore()
        checked = []

        def batch_listener(pairs):
            # EVERY document of the batch is durable before ANY listener
            # observes the first one.
            for document, address in pairs:
                assert store.get(document.doc_id).vid == document.vid
            checked.append([d.doc_id for d, _ in pairs])

        store.batch_put_listeners.append(batch_listener)
        store.put_many([from_text(f"b{i}", f"text {i}") for i in range(5)])
        assert checked == [["b0", "b1", "b2", "b3", "b4"]]

    def test_failed_append_leaves_no_phantom_version(self, monkeypatch):
        store = DocumentStore()
        store.put(from_text("keep", "kept"))

        def boom(document):
            raise RuntimeError("disk full")

        monkeypatch.setattr(store, "_append_physical", boom)
        with pytest.raises(RuntimeError):
            store.put(from_text("ghost", "never lands"))
        monkeypatch.undo()

        # No phantom: the version index never recorded the failed put,
        # so reads don't explode and a retry starts from version 1.
        assert not store.contains("ghost")
        assert store.lookup("ghost") is None
        stored = store.put(from_text("ghost", "second try"))
        assert stored.version == 1
        assert store.get("ghost").text == "second try"

    def test_put_many_validates_before_any_write(self):
        store = DocumentStore()
        good = from_text("ok", "fine")
        conflicting = from_text("dup", "v1")  # same id twice at version 1
        with pytest.raises(VersionConflictError):
            store.put_many([good, conflicting, from_text("dup", "also v1")])
        # Validation failed before the first page touch: nothing landed.
        assert store.doc_count == 0
        assert not store.contains("ok")

    def test_put_many_intra_batch_version_chain(self):
        store = DocumentStore()
        v1 = from_text("d", "first")
        v2 = replace(from_text("d", "second"), version=2)
        stored = store.put_many([v1, v2])
        assert [d.version for d in stored] == [1, 2]
        assert store.get("d").text == "second"
        assert store.get_version("d", 1).text == "first"


# ----------------------------------------------------------------------
# backpressure and admission control
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_blocks_then_sheds_by_policy(self):
        block_q = BackpressureQueue(IngestConfig(batch_size=2, queue_capacity=2))
        assert block_q.admit("a") is ADMITTED
        assert block_q.admit("b") is ADMITTED
        assert block_q.admit("c") is STALLED  # block admission: stall
        assert block_q.stats.stalls == 1
        assert block_q.take_batch(2) == ["a", "b"]
        assert block_q.admit("c") is ADMITTED

        shed_q = BackpressureQueue(
            IngestConfig(batch_size=2, queue_capacity=2, admission="shed")
        )
        shed_q.admit("a"), shed_q.admit("b")
        assert shed_q.admit("c") is SHED
        assert shed_q.stats.shed == 1
        # Bulk callers must not lose documents even under shed policy.
        assert shed_q.admit("c", can_shed=False) is STALLED

    def test_bulk_ingest_stalls_but_stores_everything(self):
        """A pre-staged backlog forces the producer to stall; every
        document is still ingested (block semantics) and the stall is
        counted in telemetry."""
        app = make_app(batch_size=4, queue_capacity=4)
        pipeline = app.ingest_pipeline
        for i in range(4):  # fill the staging queue to capacity
            assert pipeline.queue.admit(order_doc(i)) is ADMITTED

        stored = pipeline.run_documents([order_doc(i) for i in range(4, 10)])
        assert app.cluster.doc_count == 10
        assert {d.doc_id for d in stored} >= {f"o{i}" for i in range(4, 10)}
        counters = app.stats()["counters"]
        assert counters["ingest.backpressure_stalls"] >= 1

    def test_stream_sheds_under_shed_policy(self):
        app = make_app(batch_size=2, queue_capacity=2, admission="shed")
        pipeline = app.ingest_pipeline
        # Pre-stage a full queue so the stream's first offers collide.
        for i in range(2):
            pipeline.queue.admit(order_doc(100 + i))
        report = app.ingest_stream(
            {"oid": i, "amount": 1.0} for i in range(5)
        )
        # Everything that wasn't shed is stored; the report reconciles.
        assert report.offered == 5
        assert report.stored + report.shed >= 5
        assert app.stats()["counters"].get("ingest.shed", 0) == report.shed

    def test_stream_block_policy_stores_everything(self):
        app = make_app(batch_size=4, queue_capacity=8)
        report = app.ingest_stream(
            ({"oid": i, "amount": 2.0} for i in range(13)), table="orders"
        )
        assert report.offered == 13
        assert report.stored == 13
        assert report.shed == 0
        assert report.all_stored
        assert app.sql("SELECT count(*) AS n FROM orders").rows == [{"n": 13}]

    def test_queue_depth_gauge_updates(self):
        app = make_app(batch_size=4, queue_capacity=8)
        app.ingest_many([order_doc(i) for i in range(9)])
        gauges = app.stats()["gauges"]
        assert gauges.get("ingest.queue_depth") == 0  # fully drained

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IngestConfig(batch_size=0)
        with pytest.raises(ValueError):
            IngestConfig(batch_size=8, queue_capacity=4)
        with pytest.raises(ValueError):
            IngestConfig(admission="maybe")


# ----------------------------------------------------------------------
# cluster sharding: one scheduling round per batch
# ----------------------------------------------------------------------
class TestBatchRouting:
    def test_one_scheduling_round_per_node_per_batch(self, monkeypatch):
        app = make_app()
        runs = []
        for node in app.cluster.data_nodes:
            original = node.run

            def counted(cost, after=0.0, *, _orig=original, _nid=node.node_id, **kw):
                runs.append(_nid)
                return _orig(cost, after, **kw)

            monkeypatch.setattr(node, "run", counted)
        app.ingest_many([order_doc(i) for i in range(40)])
        # One CPU charge per node share — not one per document.
        assert len(runs) == len(set(runs))
        assert 1 <= len(runs) <= len(app.cluster.data_nodes)

    def test_batch_timestamps_match_sequential(self):
        """Stamping happens in arrival order from the shared clock, so a
        batch produces exactly the timestamps sequential puts would."""
        batch_app = make_app()
        seq_app = make_app()
        batch_docs = batch_app.ingest_many([order_doc(i) for i in range(12)])
        seq_docs = [seq_app.ingest_document(order_doc(i)) for i in range(12)]
        assert [d.ingest_ts for d in batch_docs] == [d.ingest_ts for d in seq_docs]

    def test_ingest_after_node_failure_routes_to_survivors(self):
        app = make_app()
        app.ingest_many([order_doc(i) for i in range(10)])
        app.fail_node("data-0")
        stored = app.ingest_many([order_doc(i) for i in range(10, 30)])
        assert len(stored) == 20
        live = {n.node_id for n in app.cluster.data_nodes}
        assert "data-0" not in live
        for document in stored:
            assert app.cluster.home_of(document.doc_id).node_id in live
        assert app.lookup("o29") is not None

    def test_empty_batch_is_a_noop(self):
        app = make_app()
        assert app.ingest_many([]) == []
        assert app.cluster.doc_count == 0


# ----------------------------------------------------------------------
# deferred index maintenance: apply_pending budget edges
# ----------------------------------------------------------------------
class TestApplyPendingBudget:
    def _deferred_manager(self):
        from repro.index.manager import IndexManager

        store = DocumentStore()
        manager = IndexManager(store, deferred=True)
        return store, manager

    def test_budget_zero_applies_nothing(self):
        store, manager = self._deferred_manager()
        store.put(from_text("a", "alpha words"))
        assert manager.pending_count == 1
        assert manager.apply_pending(0) == 0
        assert manager.pending_count == 1
        assert "a" not in manager.text

    def test_budget_larger_than_pending_drains_all(self):
        store, manager = self._deferred_manager()
        for i in range(3):
            store.put(from_text(f"d{i}", f"document number {i}"))
        assert manager.apply_pending(100) == 3
        assert manager.pending_count == 0
        assert manager.apply_pending(100) == 0  # idempotent when empty
        for i in range(3):
            assert f"d{i}" in manager.text

    def test_negative_budget_applies_nothing(self):
        store, manager = self._deferred_manager()
        store.put(from_text("a", "alpha"))
        assert manager.apply_pending(-5) == 0
        assert manager.pending_count == 1

    def test_unindex_of_pending_doc_is_not_resurrected(self):
        store, manager = self._deferred_manager()
        store.put(from_text("gone", "should never index"))
        store.put(from_text("stay", "should index fine"))
        manager.unindex("gone")  # interleaved removal while still queued
        assert manager.apply_pending() == 1
        assert "gone" not in manager.text
        assert "stay" in manager.text
        assert manager.pending_count == 0

    def test_budgeted_passes_preserve_order(self):
        store, manager = self._deferred_manager()
        for i in range(5):
            store.put(from_text(f"p{i}", f"payload {i}"))
        assert manager.apply_pending(2) == 2
        assert manager.pending_count == 3
        assert "p0" in manager.text and "p1" in manager.text
        assert "p2" not in manager.text
        assert manager.apply_pending() == 3
        assert manager.pending_count == 0


# ----------------------------------------------------------------------
# batch == sequential: index state and auto-views
# ----------------------------------------------------------------------
class TestBatchSequentialEquivalence:
    def test_index_batch_matches_per_document(self):
        from repro.index.manager import IndexManager

        docs = [order_doc(i) for i in range(8)]
        docs.append(from_text("prose", "the quick brown fox jumps"))
        batch_mgr, seq_mgr = IndexManager(), IndexManager()
        batch_mgr.index_batch(list(docs))
        for document in docs:
            seq_mgr.index_document(document)

        assert batch_mgr.text.match_all("quick fox") == seq_mgr.text.match_all(
            "quick fox"
        )
        path = ("orders", "amount")
        assert batch_mgr.values.docs_with_value(
            path, 3.0
        ) == seq_mgr.values.docs_with_value(path, 3.0)
        assert batch_mgr.structure.docs_with_path(
            path
        ) == seq_mgr.structure.docs_with_path(path)

    def test_duplicate_doc_ids_fall_back_to_arrival_order(self):
        from repro.index.manager import IndexManager

        v1 = from_text("d", "first version words")
        v2 = replace(from_text("d", "second version words"), version=2)
        manager = IndexManager()
        manager.index_batch([v1, v2])
        # Last writer wins, exactly like sequential indexing.
        assert manager.text.match_all("second") == {"d"}
        assert manager.text.match_all("first") == set()

    def test_auto_views_from_batch(self):
        app = make_app()
        app.ingest_many(
            [
                order_doc(1),
                from_relational_row("w1", "widgets", {"wid": 1, "name": "x"}),
            ]
        )
        assert app.sql("SELECT oid FROM orders").rows == [{"oid": 1}]
        assert app.sql("SELECT wid, name FROM widgets").rows == [
            {"wid": 1, "name": "x"}
        ]

    def test_discovery_order_matches_arrival(self):
        app = make_app()
        stored = app.ingest_many(
            [from_text(f"t{i}", f"Alice met Bob number {i}") for i in range(5)]
        )
        assert [d.doc_id for d in stored] == [f"t{i}" for i in range(5)]
        processed = app.discover()
        assert processed == 5
