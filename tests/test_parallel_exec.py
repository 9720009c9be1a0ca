"""Tests for the distributed executor over the simulated cluster."""

import pytest

from repro.cluster.network import Network
from repro.cluster.topology import ImplianceCluster
from repro.exec.operators import AggSpec
from repro.exec.parallel import ExecReport, ParallelExecutor
from repro.workloads.relational import RelationalWorkload


@pytest.fixture
def loaded_cluster():
    cluster = ImplianceCluster(n_data=3, n_grid=2, n_cluster=1)
    workload = RelationalWorkload(n_customers=20, n_orders=200, seed=5)
    for doc in workload.documents():
        cluster.ingest(doc)
    return cluster, workload


def order_extract(doc):
    if doc.metadata.get("table") != "orders":
        return None
    return dict(doc.content["orders"])


class TestScan:
    def test_scan_produces_all_rows(self, loaded_cluster):
        cluster, workload = loaded_cluster
        executor = ParallelExecutor(cluster)
        partitions = executor.scan(order_extract)
        total = sum(len(rows) for rows, _ in partitions.values())
        assert total == workload.n_orders

    def test_pushdown_filters_at_data_nodes(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        report = ExecReport()
        partitions = executor.scan(
            order_extract, predicate=lambda r: r["amount"] > 400,
            pushdown=True, report=report,
        )
        kept = sum(len(rows) for rows, _ in partitions.values())
        assert 0 < kept < 200

    def test_no_pushdown_keeps_everything(self, loaded_cluster):
        cluster, workload = loaded_cluster
        executor = ParallelExecutor(cluster)
        partitions = executor.scan(
            order_extract, predicate=lambda r: r["amount"] > 400, pushdown=False
        )
        assert sum(len(rows) for rows, _ in partitions.values()) == workload.n_orders


class TestGatherAndShipping:
    def test_gather_charges_network(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        report = ExecReport()
        partitions = executor.scan(order_extract, report=report)
        dest = cluster.grid_nodes[0]
        rows, ready = executor.gather(partitions, dest, report=report)
        assert len(rows) == 200
        assert report.stage("ship").bytes_shipped > 0
        assert cluster.network.stats.bytes_sent > 0
        assert ready > 0

    def test_gather_to_data_node_partially_local(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        partitions = executor.scan(order_extract)
        dest = cluster.data_nodes[0]
        report = ExecReport()
        executor.gather(partitions, dest, report=report)
        # local partition does not cross the wire
        local_bytes = sum(
            len(str(r)) for r in partitions[dest.node_id][0]
        )
        assert cluster.network.bytes_between(dest.node_id, dest.node_id) == 0


class TestDistributedAggregate:
    AGGS = [
        AggSpec("total", "sum", "amount"),
        AggSpec("n", "count"),
        AggSpec("avg_amt", "avg", "amount"),
    ]

    def test_pushdown_and_shipall_agree(self, loaded_cluster):
        cluster, workload = loaded_cluster
        executor = ParallelExecutor(cluster)
        pushed, _ = executor.aggregate_distributed(
            order_extract, ["region"], self.AGGS, pushdown=True
        )
        cluster.reset_timelines()
        shipped, _ = executor.aggregate_distributed(
            order_extract, ["region"], self.AGGS, pushdown=False
        )
        as_map = lambda rows: {
            r["region"]: (round(r["total"], 4), r["n"]) for r in rows
        }
        assert as_map(pushed) == as_map(shipped)

    def test_matches_ground_truth(self, loaded_cluster):
        cluster, workload = loaded_cluster
        executor = ParallelExecutor(cluster)
        rows, _ = executor.aggregate_distributed(
            order_extract, ["region"], [AggSpec("total", "sum", "amount")]
        )
        expected = workload.expected_totals_by_region()
        for row in rows:
            assert row["total"] == pytest.approx(expected[row["region"]])

    def test_pushdown_ships_fewer_bytes(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        _, report_pushed = executor.aggregate_distributed(
            order_extract, ["region"], self.AGGS, pushdown=True
        )
        cluster.reset_timelines()
        _, report_shipped = executor.aggregate_distributed(
            order_extract, ["region"], self.AGGS, pushdown=False
        )
        assert report_pushed.bytes_shipped < report_shipped.bytes_shipped / 5

    def test_slow_network_pushdown_wins_time(self):
        cluster = ImplianceCluster(
            n_data=3, n_grid=1, n_cluster=1,
            network=Network(latency_ms=1.0, bandwidth=2_000.0),  # slow wire
        )
        for doc in RelationalWorkload(n_customers=10, n_orders=400, seed=5).documents():
            cluster.ingest(doc)
        cluster.reset_timelines()
        executor = ParallelExecutor(cluster)
        _, pushed = executor.aggregate_distributed(
            order_extract, ["region"], self.AGGS, pushdown=True
        )
        cluster.reset_timelines()
        _, shipped = executor.aggregate_distributed(
            order_extract, ["region"], self.AGGS, pushdown=False
        )
        assert pushed.finish_ms < shipped.finish_ms


class TestSearchStage:
    def test_distributed_search_finds_docs(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        partitions = executor.search("shipped", top_n=5)
        rows, _ = executor.gather(partitions, cluster.grid_nodes[0])
        assert rows
        assert all("doc_id" in r and r["score"] > 0 for r in rows)


class TestClusterUpdate:
    def test_update_creates_new_version(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        applied, finish = executor.cluster_update(
            {"ord-0": lambda d: {"orders": {**d.content["orders"], "status": "cancelled"}}}
        )
        assert applied == 1
        updated = cluster.lookup("ord-0")
        assert updated.version == 2
        assert updated.first(("orders", "status")) == "cancelled"
        assert finish > 0

    def test_missing_doc_skipped(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        applied, _ = executor.cluster_update({"ghost": lambda d: {}})
        assert applied == 0

    def test_locks_released_after_update(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        executor.cluster_update(
            {"ord-1": lambda d: {"orders": dict(d.content["orders"])}}
        )
        assert cluster.consistency_group.lock_count == 0
        assert cluster.consistency_group.stats.locks_granted == 1


class TestComputeHelpers:
    def test_compute_stage_chain(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        report = ExecReport()
        partitions = executor.scan(order_extract, report=report)
        dest = cluster.grid_nodes[0]
        rows, ready = executor.gather(partitions, dest, report=report)
        kept, ready = executor.compute_filter(rows, lambda r: r["amount"] > 250, dest, ready, report=report)
        assert 0 < len(kept) < len(rows)
        groups, ready = executor.compute_aggregate(
            kept, ["region"], [AggSpec("n", "count")], dest, ready, report=report
        )
        assert sum(g["n"] for g in groups) == len(kept)
        assert report.finish_ms == ready
        # stages are monotone in time
        times = [s.finish_ms for s in report.stages]
        assert times == sorted(times)


class TestSchedulerIntegration:
    def test_scheduler_mode_same_results(self, loaded_cluster):
        cluster, workload = loaded_cluster
        fixed = ParallelExecutor(cluster, use_scheduler=False)
        rows_fixed, _ = fixed.aggregate_distributed(
            order_extract, ["region"], [AggSpec("total", "sum", "amount")]
        )
        cluster.reset_timelines()
        scheduled = ParallelExecutor(cluster, use_scheduler=True)
        rows_sched, _ = scheduled.aggregate_distributed(
            order_extract, ["region"], [AggSpec("total", "sum", "amount")]
        )
        as_map = lambda rows: {r["region"]: round(r["total"], 4) for r in rows}
        assert as_map(rows_fixed) == as_map(rows_sched)

    def test_scheduler_avoids_contended_grid(self, loaded_cluster):
        """Fixed placement queues behind busy grid nodes; the scheduler
        routes the aggregate to an idle flavor instead."""
        cluster, _ = loaded_cluster
        for node in cluster.grid_nodes:
            node.run(10_000.0)  # grid fully contended
        scheduled = ParallelExecutor(cluster, use_scheduler=True)
        _, report_sched = scheduled.aggregate_distributed(
            order_extract, ["region"], [AggSpec("total", "sum", "amount")]
        )
        assert report_sched.finish_ms < 10_000.0  # did not wait for grid
        decision = scheduled.scheduler.decisions[-1][1]
        assert not decision.node_id.startswith("grid-")


class TestRepartitionedMerge:
    def test_same_results_as_single_merge(self, loaded_cluster):
        cluster, _ = loaded_cluster
        executor = ParallelExecutor(cluster)
        aggs = [AggSpec("total", "sum", "amount"), AggSpec("n", "count"),
                AggSpec("m", "avg", "amount")]
        single, _ = executor.aggregate_distributed(
            order_extract, ["region"], aggs
        )
        cluster.reset_timelines()
        sharded, report = executor.aggregate_distributed(
            order_extract, ["region"], aggs, merge_crew=2
        )
        as_map = lambda rows: {
            r["region"]: (round(r["total"], 4), r["n"], round(r["m"], 6))
            for r in rows
        }
        assert as_map(single) == as_map(sharded)
        assert len(report.stage("final").nodes) == 2

    def test_many_groups_merge_parallelizes(self):
        """With many groups, the sharded final stage beats one merger."""
        cluster = ImplianceCluster(n_data=4, n_grid=4, n_cluster=1)
        workload = RelationalWorkload(n_customers=400, n_orders=3000, seed=9)
        for doc in workload.documents():
            cluster.ingest(doc)
        cluster.reset_timelines()
        executor = ParallelExecutor(cluster)
        aggs = [AggSpec("total", "sum", "amount")]
        _, single = executor.aggregate_distributed(order_extract, ["cid"], aggs)
        single_final = single.stage("final").finish_ms - single.stage("ship").finish_ms
        cluster.reset_timelines()
        _, sharded = executor.aggregate_distributed(
            order_extract, ["cid"], aggs, merge_crew=4
        )
        sharded_final = (
            sharded.stage("final").finish_ms - sharded.stage("repartition").finish_ms
        )
        assert sharded_final < single_final

    def test_group_count_preserved(self, loaded_cluster):
        cluster, workload = loaded_cluster
        executor = ParallelExecutor(cluster)
        rows, _ = executor.aggregate_distributed(
            order_extract, ["cid"], [AggSpec("n", "count")], merge_crew=2
        )
        assert sum(r["n"] for r in rows) == workload.n_orders
        assert len(rows) == len({r["cid"] for r in rows})
