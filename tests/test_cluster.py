"""Unit tests for the simulated cluster: network, nodes, groups, topology."""

import pytest

from repro.cluster.groups import ConsistencyGroup, LockConflictError
from repro.cluster.network import Network
from repro.cluster.node import NodeKind, OPERATOR_AFFINITY, SimNode
from repro.cluster.topology import INGEST_CPU_MS_PER_KB, ImplianceCluster
from repro.model.converters import from_text


class TestNetwork:
    def test_local_transfer_free(self):
        net = Network()
        assert net.transfer(10_000, "a", "a") == 0.0
        assert net.stats.messages == 0

    def test_cost_latency_plus_bandwidth(self):
        net = Network(latency_ms=1.0, bandwidth=1000.0)
        assert net.transfer_cost_ms(500, "a", "b") == pytest.approx(1.5)

    def test_accounting(self):
        net = Network()
        net.transfer(100, "a", "b")
        net.transfer(200, "a", "b")
        assert net.stats.messages == 2
        assert net.stats.bytes_sent == 300
        assert net.bytes_between("a", "b") == 300
        assert net.bytes_between("b", "a") == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Network().transfer(-1, "a", "b")

    def test_validation(self):
        with pytest.raises(ValueError):
            Network(latency_ms=-1)
        with pytest.raises(ValueError):
            Network(bandwidth=0)


class TestSimNode:
    def test_run_advances_timeline(self):
        node = SimNode("n", NodeKind.GRID)
        end1 = node.run(15.0)
        end2 = node.run(15.0)
        assert end2 > end1
        assert node.available_at == end2

    def test_speed_scales_duration(self):
        fast = SimNode("f", NodeKind.GRID, speed=2.0)
        slow = SimNode("s", NodeKind.GRID, speed=0.5)
        assert fast.run(10.0) == pytest.approx(5.0)
        assert slow.run(10.0) == pytest.approx(20.0)

    def test_after_respected(self):
        node = SimNode("n", NodeKind.DATA)
        finish = node.run(5.0, after=100.0)
        assert finish == pytest.approx(105.0)

    def test_operator_affinity(self):
        data = SimNode("d", NodeKind.DATA)
        grid = SimNode("g", NodeKind.GRID)
        # scans run best on data nodes, joins on grid nodes
        assert data.estimate(10, "scan") < grid.estimate(10, "scan")
        assert grid.estimate(10, "join") < data.estimate(10, "join")

    def test_grid_default_speed_highest(self):
        assert NodeKind.GRID.default_speed > NodeKind.DATA.default_speed

    def test_dead_node_refuses_work(self):
        node = SimNode("n", NodeKind.GRID)
        node.fail()
        with pytest.raises(RuntimeError):
            node.run(1.0)
        node.recover()
        node.run(1.0)

    def test_data_node_has_store(self):
        assert SimNode("d", NodeKind.DATA).store is not None
        assert SimNode("g", NodeKind.GRID).store is None

    def test_reset_timeline(self):
        node = SimNode("n", NodeKind.GRID)
        node.run(5.0)
        node.reset_timeline()
        assert node.available_at == 0.0
        assert node.busy_ms == 0.0
        assert node.log == []

    def test_affinity_table_covers_all_kinds(self):
        for operator, table in OPERATOR_AFFINITY.items():
            assert set(table) == set(NodeKind), operator


class TestConsistencyGroup:
    def make(self, n=3):
        net = Network()
        members = [SimNode(f"c{i}", NodeKind.CLUSTER) for i in range(n)]
        return ConsistencyGroup("g", members, net), members

    def test_heartbeat_cost_quadratic(self):
        small, _ = self.make(2)
        large, _ = self.make(6)
        small.heartbeat_round()
        large.heartbeat_round()
        assert small.stats.heartbeats_sent == 2
        assert large.stats.heartbeats_sent == 30

    def test_lock_acquire_release(self):
        group, _ = self.make()
        group.acquire("k", "txn1", "requester")
        assert group.held("k") == "txn1"
        group.release("k", "txn1")
        assert group.held("k") is None

    def test_lock_conflict(self):
        group, _ = self.make()
        group.acquire("k", "txn1", "r1")
        with pytest.raises(LockConflictError):
            group.acquire("k", "txn2", "r2")
        assert group.stats.lock_conflicts == 1

    def test_reentrant_same_holder(self):
        group, _ = self.make()
        group.acquire("k", "txn1", "r1")
        group.acquire("k", "txn1", "r1")  # no conflict
        assert group.stats.locks_granted == 2

    def test_release_wrong_holder_raises(self):
        group, _ = self.make()
        group.acquire("k", "txn1", "r1")
        with pytest.raises(LockConflictError):
            group.release("k", "txn2")

    def test_owner_deterministic(self):
        group, _ = self.make()
        assert group.owner_of("some-key") is group.owner_of("some-key")

    def test_join_and_leave_charge_view_changes(self):
        group, members = self.make(2)
        extra = SimNode("c9", NodeKind.CLUSTER)
        group.join(extra)
        assert group.size == 3
        group.leave(extra)
        assert group.size == 2
        assert group.stats.view_changes == 2

    def test_cannot_empty_group(self):
        group, members = self.make(1)
        with pytest.raises(ValueError):
            group.leave(members[0])


class TestImplianceCluster:
    def test_requires_data_and_cluster_nodes(self):
        with pytest.raises(ValueError):
            ImplianceCluster(n_data=0)
        with pytest.raises(ValueError):
            ImplianceCluster(n_cluster=0)

    def test_ingest_routes_deterministically(self):
        cluster = ImplianceCluster(n_data=3)
        home1 = cluster.home_of("doc-42")
        home2 = cluster.home_of("doc-42")
        assert home1 is home2

    def test_ingest_distributes(self):
        cluster = ImplianceCluster(n_data=4, n_grid=1)
        for i in range(100):
            cluster.ingest(from_text(f"d{i}", f"text {i}"))
        counts = [n.store.doc_count for n in cluster.data_nodes]
        assert all(c > 0 for c in counts)
        assert sum(counts) == 100

    def test_ingest_charges_the_stored_size(self):
        document = from_text("d1", "one document, charged as stored")
        cluster = ImplianceCluster(n_data=1)
        cluster.clock.observe(12_344)
        cluster.ingest(document)
        stored = cluster.lookup("d1")
        assert 10_000 <= stored.ingest_ts < 100_000  # five digits, not "0"
        assert stored.size_bytes() == document.size_bytes() + 4
        expected = INGEST_CPU_MS_PER_KB * stored.size_bytes() / 1024.0
        assert cluster.data_nodes[0].busy_ms == expected

    def test_lookup_across_nodes(self):
        cluster = ImplianceCluster(n_data=3)
        cluster.ingest(from_text("x", "findable text"))
        assert cluster.lookup("x").doc_id == "x"
        assert cluster.lookup("ghost") is None

    def test_scan_all(self):
        cluster = ImplianceCluster(n_data=2)
        for i in range(10):
            cluster.ingest(from_text(f"d{i}", "t"))
        assert sum(1 for _ in cluster.scan_all()) == 10

    def test_topology_detection_on_change(self):
        cluster = ImplianceCluster(n_data=2, n_grid=1)
        gen0 = cluster.inventory.generation
        cluster.add_node(NodeKind.GRID)
        assert cluster.inventory.generation > gen0
        assert len(cluster.inventory.grid_nodes) == 2

    def test_fail_node_removed_from_inventory(self):
        cluster = ImplianceCluster(n_data=2, n_grid=1)
        cluster.fail_node("data-0")
        assert "data-0" not in cluster.inventory.data_nodes
        cluster.recover_node("data-0")
        assert "data-0" in cluster.inventory.data_nodes

    def test_new_data_node_receives_new_ingests_only(self):
        cluster = ImplianceCluster(n_data=1)
        cluster.ingest(from_text("a", "x"))
        new_node = cluster.add_node(NodeKind.DATA)
        assert new_node.store.doc_count == 0
        for i in range(40):
            cluster.ingest(from_text(f"n{i}", "y"))
        assert new_node.store.doc_count > 0

    def test_cluster_node_join_enters_group(self):
        cluster = ImplianceCluster(n_data=1, n_cluster=1)
        cluster.add_node(NodeKind.CLUSTER)
        assert cluster.consistency_group.size == 2

    def test_work_crew_least_loaded(self):
        cluster = ImplianceCluster(n_data=1, n_grid=3)
        cluster.grid_nodes[0].run(100.0)
        crew = cluster.work_crew(2)
        assert cluster.grid_nodes[0] not in crew

    def test_makespan_and_reset(self):
        cluster = ImplianceCluster(n_data=1, n_grid=1)
        cluster.data_nodes[0].run(10.0)
        assert cluster.makespan() >= 10.0
        cluster.reset_timelines()
        assert cluster.makespan() == 0.0
