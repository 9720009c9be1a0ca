"""Distributed execution over the simulated cluster (paper Section 3.3).

"A query can be parallelized by performing full-text index search on a
set of data nodes, which then send the reduced data to a set of grid
nodes for joining, sorting, and group-wise aggregation, the results of
which are sent to a set of cluster nodes to drive a set of updates."

The executor provides exactly those building blocks.  Every step does the
real computation on real rows *and* charges simulated time to node
timelines and bytes to the network, so experiments get both answers and
costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chaos.retry import RetryError, RetryPolicy
from repro.cluster.network import PartitionError
from repro.cluster.node import NodeKind, SimNode
from repro.cluster.topology import ImplianceCluster
from repro.exec import costs
from repro.exec.batch import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    batches_from_rows,
    rows_from_batches,
)
from repro.exec.operators import (
    AggSpec,
    Row,
    group_aggregate,
    merge_partial_aggregates,
    partial_aggregate,
)
from repro.model.document import Document
from repro.obs.telemetry import DISABLED, Telemetry
from repro.storage.encoding import EncodedColumn

DocExtractor = Callable[[Document], Optional[Row]]
RowPredicate = Callable[[Row], bool]

#: Partitioned intermediate result: node_id -> (rows, ready_at).
Partitions = Dict[str, Tuple[List[Row], float]]

#: Columnar partitioned intermediate: node_id -> (batches, ready_at).
BatchPartitions = Dict[str, Tuple[List[ColumnBatch], float]]


@dataclass
class StageTiming:
    """Timing record of one executed stage."""

    label: str
    finish_ms: float
    rows: int
    bytes_shipped: int = 0
    nodes: Tuple[str, ...] = ()
    lost_partitions: int = 0  # input partitions dropped (unreachable)


@dataclass
class ExecReport:
    """Accumulated cost report of one distributed query."""

    stages: List[StageTiming] = field(default_factory=list)
    #: Input partitions that stayed unreachable after retries; when
    #: non-zero the answer is partial and ``degraded`` is set.
    lost_partitions: int = 0
    degraded: bool = False

    def record(self, stage: StageTiming) -> None:
        self.stages.append(stage)
        if stage.lost_partitions:
            self.lost_partitions += stage.lost_partitions
            self.degraded = True

    @property
    def finish_ms(self) -> float:
        return max((s.finish_ms for s in self.stages), default=0.0)

    @property
    def bytes_shipped(self) -> int:
        return sum(s.bytes_shipped for s in self.stages)

    def stage(self, label: str) -> StageTiming:
        for stage in self.stages:
            if stage.label == label:
                return stage
        raise KeyError(f"no stage labeled {label!r}")


class ParallelExecutor:
    """Runs distributed dataflows against an :class:`ImplianceCluster`.

    With *use_scheduler* the executor delegates compute-stage placement
    to the §3.3 :class:`~repro.cluster.scheduler.OperatorScheduler`
    (completion-time based, any flavor); otherwise it uses the fixed
    paper placement (grid work crews).
    """

    def __init__(
        self,
        cluster: ImplianceCluster,
        use_scheduler: bool = False,
        telemetry: Optional[Telemetry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.cluster = cluster
        self.telemetry = telemetry if telemetry is not None else DISABLED
        #: Rows per shipped ColumnBatch on columnar inter-node transfers.
        self.batch_size = batch_size
        # Timed-out / dropped work retries under this policy; a chaos
        # controller swaps in the fault plan's seeded policy so backoff
        # jitter replays with the plan (see repro.chaos).
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.scheduler = None
        if use_scheduler:
            from repro.cluster.scheduler import OperatorScheduler

            self.scheduler = OperatorScheduler(cluster)

    def slowdown_factor(self) -> float:
        """Worst slowdown across live data nodes (1.0 = all healthy).

        The mid-query re-optimizer reads this as the probe-cost penalty:
        index probes land on whichever data node owns the key, so the
        slowest surviving node bounds expected probe latency
        (docs/ADAPTIVE.md).  Dead nodes are excluded — their work fails
        over rather than running slow.
        """
        live = [n for n in self.cluster.data_nodes if n.alive]
        if not live:
            return 1.0
        return max(node.slowdown for node in live)

    def _note_stage(self, label: str, rows: int, bytes_shipped: int = 0) -> None:
        """Per-stage metrics; node sim time is charged by SimNode.run."""
        if not self.telemetry.enabled:
            return
        self.telemetry.inc("exec.stages")
        self.telemetry.inc(f"exec.stage.{label}")
        self.telemetry.observe("exec.stage_rows", rows)
        if bytes_shipped:
            self.telemetry.inc("exec.bytes_shipped", bytes_shipped)

    def _choose_compute_node(
        self, operator: str, cost_ms: float, partitions: Partitions
    ) -> SimNode:
        """Destination for a gather+compute stage."""
        if self.scheduler is not None:
            input_bytes = {
                node_id: costs.estimate_rows_bytes(rows)
                for node_id, (rows, _) in partitions.items()
            }
            ready = max((f for _, f in partitions.values()), default=0.0)
            decision = self.scheduler.place(
                operator, cost_ms, input_bytes=input_bytes, ready_at=ready
            )
            return self.cluster.node(decision.node_id)
        crew = self.cluster.work_crew(1)
        return crew[0] if crew else self.cluster.data_nodes[0]

    # ------------------------------------------------------------------
    # fault tolerance: retried compute and shipping
    # ------------------------------------------------------------------
    def _failover_candidates(self, exclude: Set[str]) -> List[SimNode]:
        """Surviving nodes eligible to adopt orphaned work, grid first."""
        nodes = [
            n
            for n in self.cluster.nodes()
            if n.alive and n.node_id not in exclude
        ]
        return sorted(
            nodes, key=lambda n: (0 if n.kind is NodeKind.GRID else 1, n.node_id)
        )

    def _run_with_failover(
        self,
        node: Optional[SimNode],
        cost_ms: float,
        after: float,
        label: str,
        operator: str,
    ) -> Tuple[SimNode, float]:
        """Charge *cost_ms* to *node*, failing over when it is dead.

        Each failed attempt pays the retry policy's timeout + seeded
        backoff in simulated time, then the work moves to a surviving
        node (via the scheduler when one is attached).  Raises
        :class:`RetryError` when the policy exhausts with no survivor.
        """
        policy = self.retry_policy
        tried: Set[str] = set()
        delay = 0.0
        current = node
        for attempt in range(policy.max_attempts):
            if current is not None and current.alive:
                return current, current.run(
                    cost_ms, after + delay, label=label, operator=operator
                )
            if current is not None:
                tried.add(current.node_id)
            delay += policy.penalty_ms(attempt)
            self.telemetry.inc("exec.retries")
            current = self._next_survivor(operator, cost_ms, tried, after + delay)
        raise RetryError(
            f"no surviving node to run {label!r} after {policy.max_attempts} attempts",
            policy.max_attempts,
        )

    def _next_survivor(
        self, operator: str, cost_ms: float, tried: Set[str], ready_at: float
    ) -> Optional[SimNode]:
        if self.scheduler is not None:
            try:
                decision = self.scheduler.replace(
                    operator, cost_ms, failed=set(tried), ready_at=ready_at
                )
                return self.cluster.node(decision.node_id)
            except RuntimeError:
                return None
        candidates = self._failover_candidates(tried)
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------
    # stage 0: batched ingest routing
    # ------------------------------------------------------------------
    def ingest_batch(
        self,
        documents: Sequence[Document],
        after: float = 0.0,
        report: Optional[ExecReport] = None,
    ) -> Tuple[List[Document], float]:
        """Commit one ingest batch across the data nodes, with failover.

        Wraps :meth:`ImplianceCluster.ingest_batch` — one scheduling round
        sharding the batch by home node — under the executor's retry
        policy: when a home node dies mid-round (chaos), topology is
        re-detected, the attempt pays the policy's timeout + seeded
        backoff in simulated time, and the documents that did not land are
        re-routed over the survivors.  Raises :class:`RetryError` only
        when the policy exhausts with documents still unplaced.

        Returns ``(stored documents, finish time)``; on the clean path the
        stored list is in arrival order.
        """
        if not documents:
            return [], after
        policy = self.retry_policy
        with self.telemetry.span("exec.ingest_batch", docs=len(documents)) as span:
            remaining = list(documents)
            stored: List[Document] = []
            finish = after
            nodes: Set[str] = set()
            delay = 0.0
            for attempt in range(policy.max_attempts):
                try:
                    ordered, shares, finish = self.cluster.ingest_batch(
                        remaining, after + delay
                    )
                    stored.extend(ordered)
                    nodes.update(shares)
                    remaining = []
                    break
                except RuntimeError:
                    # A home died between routing and its share's commit.
                    # Re-detect, keep what already landed, retry the rest.
                    self.cluster.detect_topology()
                    delay += policy.penalty_ms(attempt)
                    self.telemetry.inc("exec.retries")
                    still: List[Document] = []
                    for document in remaining:
                        landed = self._landed_version(document)
                        if landed is not None:
                            stored.append(landed)
                        else:
                            still.append(document)
                    remaining = still
                    if not remaining:
                        break
            if remaining:
                raise RetryError(
                    f"bulk ingest exhausted {policy.max_attempts} attempts"
                    f" with {len(remaining)} documents unplaced",
                    policy.max_attempts,
                )
            self._note_stage("ingest-batch", len(stored))
            span.tag("nodes", len(nodes))
            if report is not None:
                report.record(
                    StageTiming(
                        "ingest-batch",
                        finish,
                        len(stored),
                        nodes=tuple(sorted(nodes)),
                    )
                )
        return stored, finish

    def _landed_version(self, document: Document) -> Optional[Document]:
        """The stored copy of *document* if some live node committed it
        before the round failed, else ``None``."""
        for node in self.cluster.data_nodes:
            store = node.store
            if store is not None and store.contains(document.doc_id):
                chain = store.versions.chain(document.doc_id)
                if chain.head_version >= document.version:
                    return chain.get(document.version)
        return None

    # ------------------------------------------------------------------
    # stage 1: data-node row production
    # ------------------------------------------------------------------
    def scan(
        self,
        extract: DocExtractor,
        predicate: Optional[RowPredicate] = None,
        pushdown: bool = True,
        after: float = 0.0,
        report: Optional[ExecReport] = None,
        label: str = "scan",
    ) -> Partitions:
        """Parallel scan: every data node converts its documents to rows.

        With *pushdown* the predicate runs at the data node ("early data
        reduction", Section 3.1); otherwise all extracted rows are kept
        and the predicate must be applied after shipping — the baseline
        the PUSH experiment compares.
        """
        partitions: Partitions = {}
        total_rows = 0
        for node in self.cluster.data_nodes:
            assert node.store is not None
            rows: List[Row] = []
            n_docs = 0
            for document in node.store.scan():
                n_docs += 1
                row = extract(document)
                if row is None:
                    continue
                rows.append(row)
            cost = n_docs * costs.SCAN_CPU_MS_PER_DOC
            if pushdown and predicate is not None:
                cost += len(rows) * costs.FILTER_CPU_MS_PER_ROW
                rows = [r for r in rows if predicate(r)]
            finish = node.run(cost, after, label=label, operator="scan")
            partitions[node.node_id] = (rows, finish)
            total_rows += len(rows)
        self._note_stage(label, total_rows)
        if report is not None:
            report.record(
                StageTiming(
                    label=label,
                    finish_ms=max((f for _, f in partitions.values()), default=after),
                    rows=total_rows,
                    nodes=tuple(sorted(partitions)),
                )
            )
        return partitions

    def scan_view_batches(
        self,
        view,
        after: float = 0.0,
        report: Optional[ExecReport] = None,
        label: str = "scan-columnar",
    ) -> Optional[BatchPartitions]:
        """Parallel native columnar scan (docs/STORAGE.md): every data
        node yields still-encoded ColumnBatches straight off its column
        pages, ready to ship via :meth:`gather_batches` — where
        :func:`costs.estimate_batch_bytes` charges the *encoded* sizes,
        so compression bought at the storage layer is compression on the
        wire too.  Returns ``None`` when *view* cannot be answered
        columnar (the caller falls back to :meth:`scan`).

        The simulated scan charge matches :meth:`scan` exactly: every
        live document on the node costs :data:`costs.SCAN_CPU_MS_PER_DOC`
        plus the projection cost per produced row — the physical shortcut
        must not perturb the cost model experiments compare.
        """
        partitions: BatchPartitions = {}
        total_rows = 0
        encoded_bytes = 0
        for node in self.cluster.data_nodes:
            store = node.store
            assert store is not None
            produced = store.scan_view_batches(view, self.batch_size)
            if produced is None:
                return None
            batches = [b for b in produced if b.length]
            n_rows = sum(b.length for b in batches)
            cost = (
                store.live_doc_count * costs.SCAN_CPU_MS_PER_DOC
                + n_rows * costs.PROJECT_CPU_MS_PER_ROW
            )
            finish = node.run(cost, after, label=label, operator="scan")
            partitions[node.node_id] = (batches, finish)
            total_rows += n_rows
            encoded_bytes += costs.estimate_batches_bytes(batches)
        self._note_stage(label, total_rows)
        if self.telemetry.enabled and encoded_bytes:
            self.telemetry.inc("exec.bytes_encoded_produced", encoded_bytes)
        if report is not None:
            report.record(
                StageTiming(
                    label=label,
                    finish_ms=max((f for _, f in partitions.values()), default=after),
                    rows=total_rows,
                    nodes=tuple(sorted(partitions)),
                )
            )
        return partitions

    def search(
        self,
        query: str,
        top_n: int = 10,
        after: float = 0.0,
        report: Optional[ExecReport] = None,
        label: str = "search",
    ) -> Partitions:
        """Parallel full-text search: each data node scores its local
        index and keeps its top-n; the merge happens at gather time."""
        partitions: Partitions = {}
        total = 0
        for node in self.cluster.data_nodes:
            assert node.indexes is not None
            hits = node.indexes.text.search(query, top_k=top_n)
            scored = len(node.indexes.text.match_all(query)) or len(hits)
            cost = max(scored, len(hits)) * costs.SEARCH_MS_PER_DOC_SCORED
            finish = node.run(cost, after, label=label, operator="search")
            rows = [{"doc_id": h.doc_id, "score": h.score} for h in hits]
            partitions[node.node_id] = (rows, finish)
            total += len(rows)
        self._note_stage(label, total)
        if report is not None:
            report.record(
                StageTiming(
                    label=label,
                    finish_ms=max((f for _, f in partitions.values()), default=after),
                    rows=total,
                    nodes=tuple(sorted(partitions)),
                )
            )
        return partitions

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def gather(
        self,
        partitions: Partitions,
        dest: SimNode,
        report: Optional[ExecReport] = None,
        label: str = "ship",
    ) -> Tuple[List[Row], float]:
        """Ship every partition to *dest*; returns (rows, ready time).

        A partitioned source is retried under the executor's
        :class:`RetryPolicy` (each attempt charges its timeout + seeded
        backoff to the ready time).  A source that stays unreachable is
        *dropped*: the gather completes with the surviving partitions,
        the loss is counted on the report, and the result is degraded —
        a partial answer now beats no answer (Section 3.1's availability
        stance).
        """
        policy = self.retry_policy
        gathered: List[Row] = []
        ready = 0.0
        shipped_bytes = 0
        lost = 0
        for node_id in sorted(partitions):
            rows, produced_at = partitions[node_id]
            nbytes = costs.estimate_rows_bytes(rows)
            delay = 0.0
            wire = None
            for attempt in range(policy.max_attempts):
                try:
                    wire = self.cluster.network.transfer(nbytes, node_id, dest.node_id)
                    break
                except PartitionError:
                    delay += policy.penalty_ms(attempt)
                    self.telemetry.inc("exec.retries")
            if wire is None:
                lost += 1
                self.telemetry.inc("exec.partitions_lost")
                ready = max(ready, produced_at + delay)
                continue
            if node_id != dest.node_id:
                shipped_bytes += nbytes
            gathered.extend(rows)
            ready = max(ready, produced_at + delay + wire)
        self._note_stage(label, len(gathered), shipped_bytes)
        if report is not None:
            report.record(
                StageTiming(
                    label=label,
                    finish_ms=ready,
                    rows=len(gathered),
                    bytes_shipped=shipped_bytes,
                    nodes=(dest.node_id,),
                    lost_partitions=lost,
                )
            )
        return gathered, ready

    def gather_batches(
        self,
        partitions: BatchPartitions,
        dest: SimNode,
        report: Optional[ExecReport] = None,
        label: str = "ship",
    ) -> Tuple[List[ColumnBatch], float]:
        """Ship partitioned ColumnBatch streams to *dest* (columnar wire).

        Each batch is one network transfer charged at
        :func:`costs.estimate_batch_bytes` — column names travel once per
        batch instead of once per row, so the same rows cost fewer bytes
        than :meth:`gather`'s row wire format.  Retry and degradation
        semantics are identical to :meth:`gather`: a partitioned source
        retries under the executor policy (charging timeout + seeded
        backoff), then drops, leaving a partial, degraded answer.
        """
        policy = self.retry_policy
        gathered: List[ColumnBatch] = []
        ready = 0.0
        shipped_bytes = 0
        shipped_encoded = 0
        shipped_batches = 0
        total_rows = 0
        lost = 0
        for node_id in sorted(partitions):
            batches, produced_at = partitions[node_id]
            delay = 0.0
            wire = None
            for attempt in range(policy.max_attempts):
                try:
                    # Partition state is stable within a gather, so either
                    # every batch transfers or the first raises — partial
                    # accounting cannot happen mid-partition.  An empty
                    # stream still ships its (empty) manifest, so a dead
                    # link is detected exactly as in the row gather.
                    if batches:
                        wire = sum(
                            self.cluster.network.transfer(
                                costs.estimate_batch_bytes(batch), node_id, dest.node_id
                            )
                            for batch in batches
                        )
                    else:
                        wire = self.cluster.network.transfer(0, node_id, dest.node_id)
                    break
                except PartitionError:
                    delay += policy.penalty_ms(attempt)
                    self.telemetry.inc("exec.retries")
            if wire is None:
                lost += 1
                self.telemetry.inc("exec.partitions_lost")
                ready = max(ready, produced_at + delay)
                continue
            if node_id != dest.node_id:
                shipped_bytes += costs.estimate_batches_bytes(batches)
                shipped_batches += len(batches)
                for batch in batches:
                    for values in batch.columns.values():
                        if isinstance(values, EncodedColumn):
                            shipped_encoded += values.encoded_bytes()
            gathered.extend(batches)
            total_rows += sum(b.length for b in batches)
            ready = max(ready, produced_at + delay + wire)
        if shipped_batches:
            self.telemetry.inc("exec.batches_shipped", shipped_batches)
        if shipped_encoded:
            # The slice of the columnar wire traffic that traveled still
            # dictionary/RLE-encoded (vs decoded value lists).
            self.telemetry.inc("exec.bytes_shipped_encoded", shipped_encoded)
        self._note_stage(label, total_rows, shipped_bytes)
        if report is not None:
            report.record(
                StageTiming(
                    label=label,
                    finish_ms=ready,
                    rows=total_rows,
                    bytes_shipped=shipped_bytes,
                    nodes=(dest.node_id,),
                    lost_partitions=lost,
                )
            )
        return gathered, ready

    # ------------------------------------------------------------------
    # stage 2: grid computation
    # ------------------------------------------------------------------
    def compute_filter(
        self,
        rows: List[Row],
        predicate: RowPredicate,
        node: SimNode,
        after: float,
        report: Optional[ExecReport] = None,
        label: str = "filter",
    ) -> Tuple[List[Row], float]:
        result = [r for r in rows if predicate(r)]
        node, finish = self._run_with_failover(
            node, len(rows) * costs.FILTER_CPU_MS_PER_ROW, after, label, "filter"
        )
        self._note_stage(label, len(result))
        if report is not None:
            report.record(StageTiming(label, finish, len(result), nodes=(node.node_id,)))
        return result, finish

    def compute_aggregate(
        self,
        rows: List[Row],
        group_by: Sequence[str],
        aggs: Sequence[AggSpec],
        node: SimNode,
        after: float,
        report: Optional[ExecReport] = None,
        label: str = "aggregate",
    ) -> Tuple[List[Row], float]:
        result = group_aggregate(rows, group_by, aggs)
        node, finish = self._run_with_failover(
            node, len(rows) * costs.AGG_MS_PER_ROW, after, label, "aggregate"
        )
        self._note_stage(label, len(result))
        if report is not None:
            report.record(StageTiming(label, finish, len(result), nodes=(node.node_id,)))
        return result, finish

    # ------------------------------------------------------------------
    # distributed aggregate pipeline (the PUSH experiment's subject)
    # ------------------------------------------------------------------
    def aggregate_distributed(
        self,
        extract: DocExtractor,
        group_by: Sequence[str],
        aggs: Sequence[AggSpec],
        predicate: Optional[RowPredicate] = None,
        pushdown: bool = True,
        report: Optional[ExecReport] = None,
        merge_crew: Optional[int] = None,
    ) -> Tuple[List[Row], ExecReport]:
        """Traced wrapper around the distributed aggregate pipeline."""
        with self.telemetry.span(
            "exec.aggregate_distributed", pushdown=pushdown
        ) as span:
            result, report = self._aggregate_distributed(
                extract, group_by, aggs,
                predicate=predicate, pushdown=pushdown,
                report=report, merge_crew=merge_crew,
            )
            span.tag("rows", len(result))
            span.tag("finish_ms", round(report.finish_ms, 3))
        return result, report

    def _aggregate_distributed(
        self,
        extract: DocExtractor,
        group_by: Sequence[str],
        aggs: Sequence[AggSpec],
        predicate: Optional[RowPredicate] = None,
        pushdown: bool = True,
        report: Optional[ExecReport] = None,
        merge_crew: Optional[int] = None,
    ) -> Tuple[List[Row], ExecReport]:
        """Scan → (maybe local partial-agg) → ship → final aggregate.

        With pushdown, filtering and partial aggregation run on the data
        nodes and only group partials travel; without it, raw rows travel
        and all reduction happens on the grid node.  With *merge_crew*,
        the final merge itself parallelizes: partials hash-repartition by
        group key across a crew of that size, removing the single-node
        merge bottleneck the strong-scaling experiment shows at high node
        counts.
        """
        if report is None:
            report = ExecReport()
        partitions = self.scan(
            extract, predicate=predicate, pushdown=pushdown, report=report
        )
        if pushdown and merge_crew is not None and merge_crew > 1:
            return self._repartitioned_merge(
                partitions, group_by, aggs, merge_crew, report
            )
        total_rows = sum(len(rows) for rows, _ in partitions.values())
        dest = self._choose_compute_node(
            "aggregate", total_rows * costs.AGG_MS_PER_ROW, partitions
        )
        if pushdown:
            # Partial aggregates travel as ColumnBatches: the columnar
            # wire format pays column names once per batch, so pushdown
            # ships even fewer bytes than row-shipped partials would.
            reduced: BatchPartitions = {}
            for node_id, (rows, ready) in partitions.items():
                node = self.cluster.node(node_id)
                partials = partial_aggregate(rows, group_by, aggs)
                _, finish = self._run_with_failover(
                    node, len(rows) * costs.AGG_MS_PER_ROW, ready,
                    "partial-agg", "aggregate",
                )
                reduced[node_id] = (
                    list(batches_from_rows(partials, self.batch_size)),
                    finish,
                )
            batches, ready = self.gather_batches(reduced, dest, report=report)
            gathered = rows_from_batches(batches)
            result = merge_partial_aggregates(gathered, group_by, aggs)
            dest, finish = self._run_with_failover(
                dest, len(gathered) * costs.AGG_MS_PER_ROW, ready,
                "merge-agg", "aggregate",
            )
        else:
            gathered, ready = self.gather(partitions, dest, report=report)
            if predicate is not None:
                gathered, ready = self.compute_filter(
                    gathered, predicate, dest, ready, report=report
                )
            result, finish = self.compute_aggregate(
                gathered, group_by, aggs, dest, ready, report=report
            )
        report.record(StageTiming("final", finish, len(result), nodes=(dest.node_id,)))
        return result, report

    def _repartitioned_merge(
        self,
        partitions: Partitions,
        group_by: Sequence[str],
        aggs: Sequence[AggSpec],
        crew_size: int,
        report: ExecReport,
    ) -> Tuple[List[Row], ExecReport]:
        """Partial-agg at data nodes, hash-repartition partials by group
        key across a grid crew, merge shards in parallel."""
        from repro.util import stable_hash

        group_by = list(group_by)
        # local partial aggregation at each data node
        reduced: Partitions = {}
        for node_id, (rows, ready) in partitions.items():
            node = self.cluster.node(node_id)
            partials = partial_aggregate(rows, group_by, aggs)
            _, finish = self._run_with_failover(
                node, len(rows) * costs.AGG_MS_PER_ROW, ready,
                "partial-agg", "aggregate",
            )
            reduced[node_id] = (partials, finish)

        crew = self.cluster.work_crew(crew_size)
        if not crew:
            crew = self.cluster.data_nodes[:1]

        def shard_of(row: Row) -> int:
            key = "\x1f".join(str(row.get(c)) for c in group_by)
            return stable_hash(key, len(crew))

        # repartition: each data node ships each shard to its crew member
        # (partitioned links retry under the executor policy, then drop)
        policy = self.retry_policy
        shards: List[List[Row]] = [[] for _ in crew]
        shard_ready = [0.0] * len(crew)
        shipped_bytes = 0
        lost = 0
        for node_id, (partials, produced_at) in sorted(reduced.items()):
            per_shard: Dict[int, List[Row]] = {}
            for row in partials:
                per_shard.setdefault(shard_of(row), []).append(row)
            for shard_no, rows in sorted(per_shard.items()):
                shard_batches = list(batches_from_rows(rows, self.batch_size))
                nbytes = costs.estimate_batches_bytes(shard_batches)
                delay = 0.0
                wire = None
                for attempt in range(policy.max_attempts):
                    try:
                        wire = sum(
                            self.cluster.network.transfer(
                                costs.estimate_batch_bytes(batch),
                                node_id,
                                crew[shard_no].node_id,
                            )
                            for batch in shard_batches
                        )
                        break
                    except PartitionError:
                        delay += policy.penalty_ms(attempt)
                        self.telemetry.inc("exec.retries")
                if wire is None:
                    lost += 1
                    self.telemetry.inc("exec.partitions_lost")
                    continue
                if node_id != crew[shard_no].node_id:
                    shipped_bytes += nbytes
                    self.telemetry.inc("exec.batches_shipped", len(shard_batches))
                shards[shard_no].extend(rows)
                shard_ready[shard_no] = max(
                    shard_ready[shard_no], produced_at + delay + wire
                )
        report.record(
            StageTiming(
                "repartition",
                max(shard_ready, default=0.0),
                sum(len(s) for s in shards),
                bytes_shipped=shipped_bytes,
                nodes=tuple(n.node_id for n in crew),
                lost_partitions=lost,
            )
        )

        # parallel merge: each crew member reduces its own shard
        result: List[Row] = []
        finish = 0.0
        for shard_no, node in enumerate(crew):
            merged = merge_partial_aggregates(shards[shard_no], group_by, aggs)
            node, end = self._run_with_failover(
                node,
                len(shards[shard_no]) * costs.AGG_MS_PER_ROW,
                shard_ready[shard_no],
                "merge-shard",
                "aggregate",
            )
            result.extend(merged)
            finish = max(finish, end)
        result.sort(key=lambda r: tuple(str(r.get(c)) for c in group_by))
        report.record(
            StageTiming("final", finish, len(result),
                        nodes=tuple(n.node_id for n in crew))
        )
        return result, report

    # ------------------------------------------------------------------
    # stage 3: consistent updates through cluster nodes
    # ------------------------------------------------------------------
    def cluster_update(
        self,
        updates: Mapping[str, Callable[[Document], Any]],
        after: float = 0.0,
        holder: str = "query",
        report: Optional[ExecReport] = None,
    ) -> Tuple[int, float]:
        """Apply versioned updates under consistency-group locks.

        *updates* maps doc_id → function(old document) → new content.
        Each update acquires the key's lock at its owning cluster node,
        writes a new version at the document's home data node, then
        releases.  Returns (applied count, finish time).
        """
        with self.telemetry.span("exec.update", count=len(updates)) as span:
            applied, finish = self._cluster_update(updates, after, holder, report)
            span.tag("applied", applied)
        return applied, finish

    def _cluster_update(
        self,
        updates: Mapping[str, Callable[[Document], Any]],
        after: float,
        holder: str,
        report: Optional[ExecReport],
    ) -> Tuple[int, float]:
        group = self.cluster.consistency_group
        policy = self.retry_policy
        applied = 0
        finish = after
        for doc_id in sorted(updates):
            home = None
            for node in self.cluster.data_nodes:
                assert node.store is not None
                if node.store.contains(doc_id):
                    home = node
                    break
            if home is None:
                continue
            # Lock traffic crosses the interconnect; a partition between
            # the home node and the key's owner retries with backoff,
            # and an unreachable lock skips the update (it stays pending
            # rather than bypassing consistency).
            granted = None
            delay = 0.0
            for attempt in range(policy.max_attempts):
                try:
                    granted = group.acquire(
                        doc_id, holder, home.node_id, after + delay
                    )
                    break
                except PartitionError:
                    delay += policy.penalty_ms(attempt)
                    self.telemetry.inc("exec.retries")
            if granted is None:
                self.telemetry.inc("exec.updates_unreachable")
                continue
            assert home.store is not None
            old = home.store.get(doc_id)
            new_content = updates[doc_id](old)
            home.store.put(old.new_version(new_content))
            end = home.run(costs.UPDATE_CPU_MS, granted, label="update", operator="update")
            group.release(doc_id, holder)
            applied += 1
            finish = max(finish, end)
        self._note_stage("update", applied)
        if report is not None:
            report.record(StageTiming("update", finish, applied))
        return applied, finish
