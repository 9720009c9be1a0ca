"""Continuous replication, standby logs, failover and readmission.

Covers the recovery path (docs/RECOVERY.md) — commit LSNs, shipment
semantics under partitions, snapshot truncation, replay, failover by
promoting the standby (``Impliance.fail_node``) and readmission from an
empty store (``restore`` / ``recover_node``) — plus the replication
bugfix sweep: repair source selection, the per-round repair burst cap,
and the replica-edge cases around PlacementError, invalidation, and
availability cycles.
"""

from dataclasses import asdict

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.ingest.config import IngestConfig
from repro.cluster.network import Network
from repro.model.converters import from_text
from repro.model.document import Document
from repro.obs.telemetry import Telemetry
from repro.storage.recovery import RecoveryConfig
from repro.storage.replication import (
    PlacementError,
    ReliabilityClass,
    ReplicaManager,
)
from repro.storage.store import DocumentStore
from repro.storage.versions import VersionChain

pytestmark = pytest.mark.recovery


def small_app(**overrides) -> Impliance:
    defaults = dict(n_data_nodes=2, n_grid_nodes=1, n_cluster_nodes=1)
    defaults.update(overrides)
    return Impliance(ApplianceConfig(**defaults))


def doc(i: int, body: str = "") -> Document:
    return from_text(f"rc-{i}", body or f"recovery test document {i}", f"rc-{i}")


# ======================================================================
# commit LSNs (the replication cursor)
# ======================================================================
class TestCommitLsn:
    def test_put_bumps_once(self):
        store = DocumentStore()
        assert store.commit_lsn == 0
        store.put(doc(1))
        assert store.commit_lsn == 1
        store.put(doc(2))
        assert store.commit_lsn == 2

    def test_put_many_is_one_group_commit(self):
        store = DocumentStore()
        store.put_many([doc(i) for i in range(5)])
        assert store.commit_lsn == 1

    def test_delete_bumps(self):
        store = DocumentStore()
        store.put(doc(1))
        store.delete("rc-1")
        assert store.commit_lsn == 2


# ======================================================================
# as-of reads bisect (the replaced linear scan)
# ======================================================================
class TestAsOfBisect:
    def build(self, timestamps) -> VersionChain:
        chain = VersionChain("d")
        for i, ts in enumerate(timestamps):
            chain.append(
                Document(doc_id="d", content={"v": i}, version=i + 1, ingest_ts=ts)
            )
        return chain

    def test_before_first_is_none(self):
        chain = self.build([10, 20, 30])
        assert chain.as_of(9) is None

    def test_exact_and_between(self):
        chain = self.build([10, 20, 30])
        assert chain.as_of(10).version == 1
        assert chain.as_of(25).version == 2
        assert chain.as_of(30).version == 3

    def test_after_last_is_head(self):
        chain = self.build([10, 20, 30])
        assert chain.as_of(1_000_000) is chain.head

    def test_ties_resolve_to_last_version(self):
        # Equal timestamps are legal (one batch, one clock tick); the
        # bisect must return the *last* version at the timestamp, like
        # the linear scan it replaced.
        chain = self.build([10, 10, 10, 20])
        assert chain.as_of(10).version == 3
        assert chain.as_of(15).version == 3


# ======================================================================
# the shipping path
# ======================================================================
class TestReplicatorShipping:
    def test_one_shipment_per_group_commit(self):
        app = small_app(n_data_nodes=1)
        before = app.recovery.stats.shipments
        app.ingest("a document about shipping", "text", doc_id="ship-1")
        assert app.recovery.stats.shipments == before + 1

    def test_batch_is_one_shipment_per_owning_node(self):
        app = small_app(n_data_nodes=1)
        before = app.recovery.stats.shipments
        app.ingest_many([doc(i) for i in range(6)], "document")
        # One data node, one group commit: exactly one shipment.
        assert app.recovery.stats.shipments == before + 1

    def test_lag_zero_after_shipping(self):
        app = small_app()
        app.ingest_many([doc(i) for i in range(8)], "document")
        report = app.stats()["recovery"]
        for node_id, node_report in report["nodes"].items():
            assert node_report["lag"] == 0, f"{node_id} lagging"
        assert report["pending"] == 0

    def test_recovery_stats_schema(self):
        # docs/OBSERVABILITY.md documents exactly these keys.
        app = small_app()
        app.fail_node("data-1")
        report = app.stats()["recovery"]
        assert set(report) == {
            "shipments", "shipped_bytes", "snapshots", "retries", "buffered",
            "pending", "replays", "replayed_versions", "restores", "nodes",
        }
        assert set(report["nodes"]) == {"data-0"}  # live data nodes only
        assert set(report["nodes"]["data-0"]) == {
            "commit_lsn", "shipped_lsn", "lag", "snapshot_lsn",
            "snapshot_age", "log_records", "standby",
        }

    def test_partition_buffers_never_drops(self):
        app = small_app(n_data_nodes=1)
        standby_host = app.recovery.standby("data-0").standby_id
        app.cluster.network.partition("data-0", standby_host)
        app.ingest("written during the partition", "text", doc_id="part-1")
        assert app.recovery.pending_count > 0
        assert app.stats()["recovery"]["nodes"]["data-0"]["lag"] > 0
        # The write itself is unaffected — replication lags, data serves.
        assert app.lookup("part-1") is not None

        app.cluster.network.heal("data-0", standby_host)
        shipped = app.recovery.flush_pending()
        assert shipped > 0
        assert app.recovery.pending_count == 0
        assert app.stats()["recovery"]["nodes"]["data-0"]["lag"] == 0

    def test_later_publication_flushes_backlog(self):
        app = small_app(n_data_nodes=1)
        standby_host = app.recovery.standby("data-0").standby_id
        app.cluster.network.partition("data-0", standby_host)
        app.ingest("first, blocked", "text", doc_id="flush-1")
        assert app.recovery.pending_count > 0
        app.cluster.network.heal("data-0", standby_host)
        # The next group commit retries the backlog before shipping
        # itself, so order holds without an explicit flush call.
        app.ingest("second, after heal", "text", doc_id="flush-2")
        assert app.recovery.pending_count == 0
        standby = app.recovery.standby("data-0")
        lsns = [r.lsn for r in standby.records]
        assert lsns == sorted(lsns)

    def test_snapshot_truncates_log(self):
        app = small_app(
            n_data_nodes=1, recovery=RecoveryConfig(snapshot_every=2)
        )
        for i in range(6):
            app.ingest(f"snapshot cadence doc {i}", "text", doc_id=f"sn-{i}")
        standby = app.recovery.standby("data-0")
        assert app.recovery.stats.snapshots >= 2
        assert standby.snapshot_lsn > 0
        # Records at or below the snapshot LSN were truncated away.
        assert all(r.lsn > standby.snapshot_lsn for r in standby.records)
        assert len(standby.records) < 6

    def test_replay_rebuilds_store_state(self):
        app = small_app(n_data_nodes=1)
        app.ingest_many([doc(i) for i in range(5)], "document")
        app.update_document("rc-0", {"body": "rc-0 grew a second version"})
        source = app.cluster.node("data-0").store

        replay = list(app.recovery.standby("data-0").replay_documents())
        assert len(replay) == 6
        fresh = DocumentStore()
        fresh.put_many(replay)
        assert fresh.doc_ids() == source.doc_ids()
        for doc_id in source.doc_ids():
            assert (
                fresh.history(doc_id).records()
                == source.history(doc_id).records()
            )


# ======================================================================
# failover (promote) and readmission (restore / recover_node)
# ======================================================================
def holders(app: Impliance, doc_id: str) -> int:
    """Live data nodes holding a chain for *doc_id*."""
    return sum(1 for node in app.cluster.data_nodes if node.store.contains(doc_id))


def orders_app() -> Impliance:
    app = small_app(n_data_nodes=3)
    app.ingest_many(
        [{"id": i, "amount": i % 17 + 1} for i in range(300)],
        "relational",
        table="orders",
    )
    return app


def orders_totals(app: Impliance):
    session = app.connect()
    count = session.sql("SELECT count(*) AS n FROM orders").rows[0]["n"]
    total = session.sql("SELECT sum(amount) AS s FROM orders").rows[0]["s"]
    return app.doc_count, count, total


class TestFailover:
    @pytest.mark.parametrize("readmit", ["restore", "recover_node"])
    def test_readmission_keeps_one_holder_per_document(self, readmit):
        app = orders_app()
        doc_ids = [d for n in app.cluster.data_nodes for d in n.store.doc_ids()]
        before = orders_totals(app)
        assert before == (300, 300, sum(i % 17 + 1 for i in range(300)))

        moved = app.fail_node("data-1")
        assert moved > 0
        assert orders_totals(app) == before
        getattr(app, readmit)("data-1")
        assert orders_totals(app) == before
        assert all(holders(app, doc_id) == 1 for doc_id in doc_ids)
        assert app.cluster.node("data-1").store.doc_count == 0

    @pytest.mark.parametrize("readmit", ["restore", "recover_node"])
    def test_update_after_readmission_is_what_reads_return(self, readmit):
        app = orders_app()
        victim_docs = app.cluster.node("data-1").store.doc_ids()
        doc_id = victim_docs[0]
        row_id = app.lookup(doc_id).first(("orders", "id"))
        app.fail_node("data-1")
        getattr(app, readmit)("data-1")

        app.update_document(doc_id, {"orders": {"id": row_id, "amount": 1000}})
        assert app.lookup(doc_id).first(("orders", "amount")) == 1000
        rows = app.connect().sql(
            f"SELECT amount FROM orders WHERE id = {row_id}"
        ).rows
        assert rows == [{"amount": 1000}]

    def test_failover_never_reads_the_dead_store(self, monkeypatch):
        app = orders_app()
        doc_ids = [d for n in app.cluster.data_nodes for d in n.store.doc_ids()]
        before = orders_totals(app)
        victim = app.cluster.node("data-1").store

        def poisoned(*_args, **_kwargs):
            raise AssertionError("read the dead node's store")

        for name in (
            "doc_ids", "history", "lookup", "get", "get_version", "as_of",
            "contains", "scan", "scan_batches",
            "scan_view_batches", "scan_addresses",
        ):
            monkeypatch.setattr(victim, name, poisoned)

        assert app.fail_node("data-1") > 0
        assert all(app.lookup(doc_id) is not None for doc_id in doc_ids)
        assert orders_totals(app) == before
        app.restore("data-1")
        assert orders_totals(app) == before

    def test_promote_replays_buffered_shipments(self):
        # The victim's last commit never reached its standby (partition):
        # the promote applies it from the replicator's buffer.
        app = small_app(n_data_nodes=2)
        app.ingest_many([doc(i) for i in range(6)], "document")
        victim = app.cluster.home_of("late-1").node_id
        standby_host = app.recovery.standby(victim).standby_id
        app.cluster.network.partition(victim, standby_host)
        app.ingest("committed behind a partition", "text", doc_id="late-1")
        assert app.recovery.pending_count > 0

        app.fail_node(victim)
        assert app.lookup("late-1") is not None
        assert app.recovery.pending_count == 0

    def test_promote_charges_the_survivors(self):
        app = orders_app()
        started = app.cluster.makespan()
        app.fail_node("data-1")
        assert app.cluster.makespan() > started
        assert app.stats()["recovery"]["replays"] == 1

    def test_non_data_failure_leaves_storage_untouched(self):
        app = small_app()
        app.ingest_many([doc(i) for i in range(8)], "document")
        before = [asdict(m.stats) for m in app._storage_managers]
        assert app.fail_node("grid-0") == 0
        assert [asdict(m.stats) for m in app._storage_managers] == before
        assert app.recover_node("grid-0") == 0
        assert [asdict(m.stats) for m in app._storage_managers] == before
        assert app.telemetry.value("storage.failures_handled") == 0


class TestRestore:
    def test_restore_failed_node_end_to_end(self):
        app = small_app(n_data_nodes=3)
        app.ingest_many([doc(i) for i in range(12)], "document")
        for manager in app._storage_managers:
            manager.place_open_segments()
        victim_docs = list(app.cluster.node("data-1").store.doc_ids())
        assert victim_docs, "victim owned nothing; test cannot exercise restore"

        assert app.fail_node("data-1") == len(victim_docs)
        # Life goes on while the node is down: new documents, and a new
        # version of a chain the victim owned (served where it was
        # promoted to).
        app.ingest("written during the outage", "text", doc_id="post-1")
        app.update_document(
            victim_docs[0], {"body": "updated during the outage"}
        )

        report = app.restore("data-1")
        assert report.node_id == "data-1"
        assert app.cluster.node("data-1").alive
        assert app.cluster.node("data-1").store.doc_count == 0
        for doc_id in victim_docs + ["post-1"]:
            assert holders(app, doc_id) == 1
            assert app.lookup(doc_id) is not None
        assert app.lookup(victim_docs[0]).version == 2
        assert app.missing_segments() == 0
        assert app.stats()["recovery"]["restores"] == 1

    def test_restore_requires_failed_data_node(self):
        app = small_app()
        with pytest.raises(ValueError):
            app.restore("data-0")  # alive
        with pytest.raises(ValueError):
            app.restore("cluster-0")  # wrong flavor

    def test_restore_of_empty_node_rebuilds_empty_store(self):
        # A node that never committed anything has no standby log yet;
        # restore must still bring it back (to an empty store), not fail.
        app = small_app(n_data_nodes=3)
        app.fail_node("data-1")
        app.restore("data-1")
        assert app.cluster.node("data-1").store.doc_count == 0
        assert app.cluster.node("data-1").alive
        app.ingest("life after an empty restore", "text", doc_id="er-1")
        assert app.lookup("er-1") is not None

    def test_restored_node_resumes_shipping(self):
        # Three data nodes: enough capacity that the rebuilt GOLD
        # segments can re-place on restore.
        app = small_app(n_data_nodes=3)
        app.ingest_many([doc(i) for i in range(8)], "document")
        app.fail_node("data-0")
        app.restore("data-0")
        # resync re-based the standby: fresh snapshot, aligned cursors.
        report = app.stats()["recovery"]
        assert report["nodes"]["data-0"]["lag"] == 0
        before = app.recovery.stats.shipments
        app.ingest_many([doc(100 + i) for i in range(6)], "document")
        assert app.recovery.stats.shipments > before
        for node_report in app.stats()["recovery"]["nodes"].values():
            assert node_report["lag"] == 0


# ======================================================================
# repair source selection (bugfix: was lexicographic min, load- and
# partition-blind)
# ======================================================================
class TestRepairSourceSelection:
    def build(self):
        telemetry = Telemetry()
        network = Network()
        manager = ReplicaManager(
            ["n1", "n2", "n3", "n4"], telemetry=telemetry, network=network
        )
        return manager, network, telemetry

    def test_source_is_least_loaded_survivor(self):
        manager, _, _ = self.build()
        replica_set = manager.place(1, ReliabilityClass.GOLD)
        holders = sorted(replica_set.node_ids)
        # Make the lexicographic minimum the *hottest* survivor: the old
        # ``min(node_ids)`` bug would still nominate it as copy source.
        busy, idle, victim = holders[0], holders[1], holders[2]
        manager._node_load[busy] += 10
        actions = manager.on_node_failure(victim)
        assert len(actions) == 1
        assert actions[0].source_node == idle

    def test_partitioned_source_is_skipped(self):
        manager, network, _ = self.build()
        replica_set = manager.place(1, ReliabilityClass.SILVER)
        holders = sorted(replica_set.node_ids)
        victim = holders[0]
        survivor = holders[1]
        # Partition the lone survivor from every possible copy target,
        # then fail the victim: the repair still happens (availability
        # first), but the action ships without a reachable source.
        for free in manager.live_nodes:
            if free not in holders:
                network.partition(survivor, free)
        actions = manager.on_node_failure(victim)
        assert len(actions) == 1
        assert actions[0].source_node is None

    def test_no_reachable_source_counts_telemetry(self):
        manager, network, telemetry = self.build()
        replica_set = manager.place(1, ReliabilityClass.SILVER)
        holders = sorted(replica_set.node_ids)
        for free in manager.live_nodes:
            if free not in holders:
                network.partition(holders[1], free)
        manager.on_node_failure(holders[0])
        assert telemetry.value("storage.repair_no_source") >= 1


# ======================================================================
# repair burst cap (bugfix: a rejoining node at load 0 absorbed every
# deficit in one round)
# ======================================================================
class TestRepairBurstCap:
    def test_recovered_node_is_not_the_sole_target(self):
        manager = ReplicaManager(["n1", "n2", "n3", "n4"])
        for seg in range(24):
            manager.place(seg, ReliabilityClass.SILVER)
        manager.add_node("n5")  # fresh capacity at load 0
        actions = manager.on_node_failure("n1")
        assert actions, "failure produced no repairs"
        targets = [a.target_node for a in actions]
        counts = {t: targets.count(t) for t in set(targets)}
        deficit = len(actions)
        live = 4  # n2..n5
        cap = -(-deficit // live)
        # The cap may yield by one when only capped candidates remain
        # for a segment (completing the repair beats the spread).
        assert max(counts.values()) <= cap + 1, counts
        assert len(counts) >= 3, "the round did not spread"
        assert counts.get("n5", 0) < deficit, "recovered node took everything"

    def test_cap_yields_when_only_capped_candidates_remain(self):
        # Two nodes, BRONZE deficits: every candidate hits the cap fast,
        # but the repair must still complete (count over spread).
        manager = ReplicaManager(["a", "b"])
        for seg in range(6):
            manager.place(seg, ReliabilityClass.BRONZE)
        actions = manager.on_node_failure("a")
        # Every segment 'a' held repairs onto 'b' despite the cap.
        assert all(action.target_node == "b" for action in actions)
        assert not manager.under_replicated()


# ======================================================================
# replication edges (satellite coverage)
# ======================================================================
class TestReplicationEdges:
    def test_gold_placement_error_then_healed(self):
        manager = ReplicaManager(["a", "b", "c"])
        manager.place(1, ReliabilityClass.GOLD)
        manager.on_node_failure("a")
        manager.on_node_failure("b")
        with pytest.raises(PlacementError):
            manager.place(2, ReliabilityClass.GOLD)
        assert manager.under_replicated()

        manager.add_node("a")
        manager.add_node("b")
        actions = manager.repair_deficits()
        assert actions
        assert not manager.under_replicated()
        replica_set = manager.place(2, ReliabilityClass.GOLD)
        assert len(replica_set.node_ids) == 3

    def test_invalidate_replica_on_live_holder_keeps_load_consistent(self):
        manager = ReplicaManager(["a", "b", "c"])
        replica_set = manager.place(1, ReliabilityClass.SILVER)
        holder = sorted(replica_set.node_ids)[0]
        actions = manager.invalidate_replica(1, holder)
        assert len(actions) == 1
        assert manager.placement(1).satisfied
        # Accounting invariant: total load equals total replicas placed
        # (the dropped copy was decremented, the new copy incremented).
        assert sum(manager.load_of(n) for n in manager.live_nodes) == 2

    def test_invalidate_replica_on_failed_ex_holder_is_noop(self):
        manager = ReplicaManager(["a", "b", "c"])
        replica_set = manager.place(1, ReliabilityClass.SILVER)
        holder = sorted(replica_set.node_ids)[0]
        manager.on_node_failure(holder)  # strips the replica, repairs
        assert manager.load_of(holder) == 0
        actions = manager.invalidate_replica(1, holder)
        assert actions == []
        assert manager.load_of(holder) == 0  # no negative accounting

    def test_data_available_across_fail_repair_recover_cycles(self):
        manager = ReplicaManager(["a", "b"])
        replica_set = manager.place(1, ReliabilityClass.BRONZE)
        (holder,) = replica_set.node_ids
        other = "b" if holder == "a" else "a"

        actions = manager.on_node_failure(holder)
        assert [a.target_node for a in actions] == [other]
        assert manager.data_available(1)

        manager.on_node_failure(other)  # last copy gone, nowhere to go
        assert not manager.data_available(1)

        manager.add_node(holder)
        actions = manager.repair_deficits()
        assert actions
        assert manager.data_available(1)
        assert manager.nodes_for(1) == [holder]
