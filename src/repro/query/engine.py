"""Query engine: compiles physical plans and runs them against a repository.

The engine executes for real (rows out are correct) while charging a
simulated cost meter, so the PLAN experiment can compare planner choices
by simulated latency without depending on host noise.

There is one execution path: a physical plan is lowered once into fused
pipeline closures (:mod:`repro.query.compile`, memoized by plan
fingerprint) that run over :class:`~repro.exec.batch.ColumnBatch`
streams — scans project documents column-wise, filters/joins/aggregates
work batch-at-a-time, and ``QueryResult.rows`` is a thin adapter over
the final batches.  The row-at-a-time reference it is checked against
lives with the tests (``tests/oracle/row_engine.py``), not here.

A *repository* is anything exposing documents, point lookup, a view
catalog, and indexes — :class:`LocalRepository` wraps a single document
store; the appliance facade (:class:`repro.core.appliance.Impliance`)
implements the same protocol over a cluster.  Repositories may also
offer ``document_batches(batch_size)`` (the stores do) to feed the
scan without per-document generator hops.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
)

if TYPE_CHECKING:  # repro.cache imports the SQL parser; keep the cycle lazy
    from repro.cache.hierarchy import CacheHierarchy

from repro.exec import costs
from repro.exec.batch import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    batches_from_columns,
    rows_from_batches,
)
from repro.exec.operators import OperatorStats, Row, merge_joined_row
from repro.index.manager import IndexManager
from repro.model.document import Document
from repro.model.views import ColumnProjector, RelationalView, ViewCatalog
from repro.obs.telemetry import DISABLED, Telemetry
from repro.query.adaptive import AdaptiveConfig, ReOptimizer
from repro.query.compile import PipelineContext, compile_plan, plan_fingerprint
from repro.query.planner import (
    CostBasedOptimizer,
    PhysHashJoin,
    PhysicalPlan,
    PhysIndexedJoin,
    SimplePlanner,
    to_logical,
)
from repro.query.plans import (
    Aggregate,
    Filter,
    Limit,
    LogicalPlan,
    Project,
    ScanView,
    Sort,
    base_views,
)
from repro.query.result import QueryResult
from repro.query.sql import parse_sql
from repro.storage.store import DocumentStore


class Repository(Protocol):
    """What the engine needs from a data home."""

    views: ViewCatalog
    indexes: IndexManager

    def documents(self) -> Iterable[Document]:
        """All live (latest-version) documents."""

    def lookup(self, doc_id: str) -> Optional[Document]:
        """Latest version of one document, or None."""


class LocalRepository:
    """Single-store repository for embedded/standalone use; its index
    follows the store's change feed."""

    def __init__(self, store: DocumentStore, views: Optional[ViewCatalog] = None) -> None:
        self.store = store
        self.views = views if views is not None else ViewCatalog()
        self.indexes = IndexManager()
        store.feed.subscribe_deltas(self._index_commit)

    def _index_commit(self, changeset) -> None:
        self.indexes.index_batch(changeset.documents)

    def documents(self) -> Iterable[Document]:
        return self.store.scan()

    def document_batches(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Document]]:
        return self.store.scan_batches(batch_size)

    def view_column_batches(self, view: RelationalView, batch_size: int = DEFAULT_BATCH_SIZE):
        """Native columnar scan of *view*, or ``None`` when the store
        cannot answer it off column pages.  Returns ``(batches, n_docs)``
        where *n_docs* is the live-document count the scan is charged
        for — the same population a row scan would walk."""
        batches = self.store.scan_view_batches(view, batch_size)
        if batches is None:
            return None
        return batches, self.store.live_doc_count

    def lookup(self, doc_id: str) -> Optional[Document]:
        return self.store.lookup(doc_id)


class _CostMeter:
    __slots__ = ("ms", "adaptive", "adaptive_reports", "operators", "probe_cost_ms")

    def __init__(self, adaptive: bool = False) -> None:
        self.ms = 0.0
        self.adaptive = adaptive
        self.adaptive_reports: List[Any] = []
        #: Per-operator row+batch statistics, keyed by operator name.
        self.operators: Dict[str, OperatorStats] = {}
        #: Cost of one index probe for this execution — the base constant
        #: inflated by the worst live data-node slowdown, so a degraded
        #: cluster makes probe-driving plans visibly expensive.
        self.probe_cost_ms = costs.INDEX_PROBE_MS

    def charge(self, ms: float) -> None:
        self.ms += ms

    def stats(self, operator: str) -> OperatorStats:
        stats = self.operators.get(operator)
        if stats is None:
            stats = self.operators[operator] = OperatorStats()
        return stats


class QueryEngine:
    """Plans SQL, runs compiled pipelines, charges a simulated cost meter."""

    #: Bound on the engine-local compiled-pipeline memo (used when no
    #: cache hierarchy is wired in; the hierarchy's plan cache owns the
    #: compiled tier otherwise).
    COMPILED_MEMO_CAPACITY = 128

    def __init__(
        self,
        repository: Repository,
        telemetry: Optional[Telemetry] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: Optional[CacheHierarchy] = None,
        adaptive_config: Optional[AdaptiveConfig] = None,
    ) -> None:
        self.repository = repository
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.batch_size = batch_size
        #: Optional appliance-wide cache hierarchy (docs/CACHING.md).
        #: None (the standalone default) means every query runs uncached.
        self.cache = cache
        #: Re-optimizer knobs (docs/ADAPTIVE.md).
        self.adaptive_config = adaptive_config if adaptive_config is not None else AdaptiveConfig()
        self.simple_planner = SimplePlanner(
            can_probe=self._can_probe, columns_of=self._columns_of_view
        )
        self._compiled_memo: "OrderedDict[str, Any]" = OrderedDict()
        self._adaptive_counters: Dict[str, int] = {
            "compiled_built": 0,
            "compiled_hits": 0,
            "replans": 0,
            "checkpoints": 0,
        }

    def _active_cache(self) -> Optional[CacheHierarchy]:
        cache = self.cache
        if cache is not None and cache.enabled:
            return cache
        return None

    # ------------------------------------------------------------------
    def optimizer(self, statistics) -> CostBasedOptimizer:
        """A cost-based optimizer wired to this engine's probe check.

        The optimizer's probe cost reflects the cluster's *current*
        health — a degraded data node shifts the indexed-NL break-even
        toward hash joins for fresh plans and re-plans alike.
        """
        return CostBasedOptimizer(
            statistics,
            can_probe=self._can_probe,
            columns_of=self._columns_of_view,
            probe_cost_ms=self._probe_cost_ms(),
        )

    def _probe_penalty(self) -> float:
        """Worst live data-node slowdown (>= 1.0), from repositories that
        expose one (the appliance facade); 1.0 for local repositories."""
        provider = getattr(self.repository, "probe_penalty", None)
        if provider is None:
            return 1.0
        try:
            return max(1.0, float(provider()))
        except (TypeError, ValueError):
            return 1.0

    def _probe_cost_ms(self) -> float:
        return costs.INDEX_PROBE_MS * self._probe_penalty()

    def _columns_of_view(self, view_name: str) -> frozenset:
        if view_name not in self.repository.views:
            return frozenset()
        return frozenset(self.repository.views.get(view_name).column_names)

    def _can_probe(self, view_name: str, column: str) -> bool:
        """A (view, column) is probe-able when the view is defined, the
        column maps to a self-sourced path, and the value index actually
        covers documents — an empty index (e.g. a historical snapshot,
        which has no index) must force scan-based plans, or probes would
        silently return nothing."""
        if self.repository.indexes.values.doc_count == 0:
            return False
        if view_name not in self.repository.views:
            return False
        view = self.repository.views.get(view_name)
        for vcolumn in view.columns:
            if vcolumn.name == column and vcolumn.source == "self":
                return True
        return False

    def _column_path(self, view: RelationalView, column: str):
        for vcolumn in view.columns:
            if vcolumn.name == column and vcolumn.source == "self":
                return vcolumn.path
        raise KeyError(f"view {view.name!r} has no self column {column!r}")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def sql(
        self,
        query: str,
        planner: str = "simple",
        statistics=None,
        adaptive: bool = False,
    ) -> QueryResult:
        """Parse, plan, and execute a SQL query.

        ``planner`` selects ``"simple"`` (default, the Impliance way) or
        ``"costbased"`` (requires *statistics*).  With ``adaptive``, an
        indexed-NL join may migrate to a hash join mid-flight when its
        probe budget is exceeded (Section 3.3 adaptive operators).

        With a cache hierarchy wired in, the statement flows through
        three tiers (docs/CACHING.md): the parse cache (always), the
        epoch-validated physical-plan cache, and — for the default
        simple/non-adaptive path — the dependency-tracked result cache.
        """
        with self.telemetry.span("query.sql", query=query) as span:
            cache = self._active_cache()
            if cache is not None:
                key, logical = cache.plans.parse(query)
            else:
                logical = parse_sql(query)
            # Result caching covers only the deterministic default path:
            # cost-based plans depend on caller statistics and adaptive
            # runs carry per-execution reports.
            cacheable = (
                cache is not None
                and planner == "simple"
                and statistics is None
                and not adaptive
            )
            if cacheable:
                result = self._sql_cached(cache, key, logical, span)
            else:
                result = self.execute(
                    logical, planner=planner, statistics=statistics, adaptive=adaptive
                )
            # sim cost rolls up from the nested query.execute span
            span.tag("rows", len(result.rows))
        self.telemetry.inc("query.sql")
        self.telemetry.observe("query.sql.sim_ms", result.sim_ms)
        # the full query.sql span (parse → plan → execute) is the trace
        result.trace = span.record() or result.trace
        return result

    def _sql_cached(self, cache: CacheHierarchy, key: str, logical, span) -> QueryResult:
        """The simple-planner path through plan + result tiers."""
        epoch = cache.epoch
        # Same trace shape as the uncached path: planning (even a plan
        # cache hit) appears as a query.plan child span.
        with self.telemetry.span("query.plan", planner="simple"):
            physical = cache.plans.physical(
                key, epoch, lambda: self.simple_planner.plan(logical)
            )
        fingerprint = _describe_physical(physical)
        hit = cache.results.lookup(fingerprint)
        if hit is not None:
            span.tag("cache", "hit")
            span.charge_sim(costs.CACHE_LOOKUP_MS)
            return QueryResult(
                rows=[dict(r) for r in hit.rows],
                sim_ms=costs.CACHE_LOOKUP_MS,
                plan_text=hit.plan_text,
                cached=True,
            )
        span.tag("cache", "miss")
        result = self.run_physical(physical)
        # Admit only when (a) nothing invalidated mid-execution — a put
        # fired while we scanned would leave this answer already stale —
        # and (b) the admission guard agrees (the facade points it at
        # "no missing segments", so degraded answers are never cached).
        if cache.epoch == epoch and cache.can_admit_results():
            cache.results.store(
                fingerprint,
                result.rows,
                frozenset(base_views(logical)),
                result.sim_ms,
                result.plan_text,
            )
        return result

    def execute(
        self,
        logical: LogicalPlan,
        planner: str = "simple",
        statistics=None,
        adaptive: bool = False,
    ) -> QueryResult:
        with self.telemetry.span("query.plan", planner=planner):
            if planner == "simple":
                physical = self.simple_planner.plan(logical)
            elif planner == "costbased":
                if statistics is None:
                    raise ValueError("cost-based planning requires statistics")
                physical = self.optimizer(statistics).plan(logical)
            else:
                raise ValueError(f"unknown planner {planner!r}")
        return self.run_physical(physical, adaptive=adaptive, statistics=statistics)

    def run_physical(
        self,
        physical: PhysicalPlan,
        adaptive: bool = False,
        statistics=None,
    ) -> QueryResult:
        """Execute a physical plan.

        The plan is compiled into fused pipeline closures
        (:mod:`repro.query.compile`, memoized by plan fingerprint) and
        run.  With ``adaptive`` *and* caller *statistics*, pipeline
        breakers become re-optimization checkpoints (docs/ADAPTIVE.md);
        adaptive without statistics keeps the budgeted indexed-join
        migration.
        """
        meter = _CostMeter(adaptive=adaptive)
        meter.probe_cost_ms = self._probe_cost_ms()
        pipeline = self._compiled_pipeline(physical)
        reoptimizer = self._make_reoptimizer(adaptive, statistics, meter)
        with self.telemetry.span("query.execute") as span:
            batches = pipeline.execute(PipelineContext(self, meter, reoptimizer))
            rows = rows_from_batches(batches)
            span.charge_sim(meter.ms)
        self._note_batch_metrics(meter)
        if reoptimizer is not None:
            self._note_adaptive(reoptimizer)
        return QueryResult(
            rows=rows,
            sim_ms=meter.ms,
            plan_text=_describe_physical(physical),
            adaptive_reports=list(meter.adaptive_reports),
            trace=span.record(),
            batches=batches,
            operator_stats=dict(meter.operators),
        )

    # ------------------------------------------------------------------
    # compiled pipelines + re-optimization (docs/ADAPTIVE.md)
    # ------------------------------------------------------------------
    def _compiled_pipeline(self, physical: PhysicalPlan):
        """Fetch-or-build the compiled pipeline for *physical*.

        With a cache hierarchy the compiled tier lives in the plan cache
        (shared across engines, flushed with it); standalone engines keep
        a small bounded memo so repeated plans still amortize.
        """
        fingerprint = plan_fingerprint(physical)
        counters = self._adaptive_counters
        cache = self._active_cache()
        if cache is not None:
            built = False

            def build():
                nonlocal built
                built = True
                return compile_plan(physical)

            pipeline = cache.plans.compiled(fingerprint, build)
            if built:
                counters["compiled_built"] += 1
                self.telemetry.inc("exec.compiled.built")
            else:
                counters["compiled_hits"] += 1
                self.telemetry.inc("exec.compiled.hits")
            return pipeline
        memo = self._compiled_memo
        pipeline = memo.get(fingerprint)
        if pipeline is not None:
            memo.move_to_end(fingerprint)
            counters["compiled_hits"] += 1
            self.telemetry.inc("exec.compiled.hits")
            return pipeline
        pipeline = compile_plan(physical)
        memo[fingerprint] = pipeline
        if len(memo) > self.COMPILED_MEMO_CAPACITY:
            memo.popitem(last=False)
        counters["compiled_built"] += 1
        self.telemetry.inc("exec.compiled.built")
        return pipeline

    def _make_reoptimizer(
        self, adaptive: bool, statistics, meter: _CostMeter
    ) -> Optional[ReOptimizer]:
        if not adaptive or statistics is None or not self.adaptive_config.enabled:
            return None
        return ReOptimizer(
            self.adaptive_config,
            statistics=statistics,
            optimizer_factory=self.optimizer,
            probe_penalty=self._probe_penalty(),
            report_sink=meter.adaptive_reports,
        )

    def _note_adaptive(self, reoptimizer: ReOptimizer) -> None:
        counters = self._adaptive_counters
        counters["checkpoints"] += reoptimizer.checkpoints
        replans = len(reoptimizer.reports)
        counters["replans"] += replans
        if reoptimizer.checkpoints:
            self.telemetry.inc("adaptive.checkpoint.count", reoptimizer.checkpoints)
        if replans:
            self.telemetry.inc("adaptive.replan.count", replans)

    def adaptive_stats(self) -> Dict[str, Any]:
        """Compiled-pipeline and re-plan counters for ``stats()["adaptive"]``."""
        counters = self._adaptive_counters
        config = self.adaptive_config
        return {
            "compiled": {
                "built": counters["compiled_built"],
                "hits": counters["compiled_hits"],
                "local_entries": len(self._compiled_memo),
            },
            "replan": {
                "count": counters["replans"],
                "checkpoints": counters["checkpoints"],
            },
            "config": {
                "enabled": config.enabled,
                "divergence_ratio": config.divergence_ratio,
                "max_replans": config.max_replans,
                "probe_budget": config.probe_budget,
            },
        }

    def _note_batch_metrics(self, meter: _CostMeter) -> None:
        if not self.telemetry.enabled or not meter.operators:
            return
        produced = sum(s.batches_out for s in meter.operators.values())
        if produced:
            self.telemetry.inc("exec.batches", produced)
        for stats in meter.operators.values():
            if stats.batches_out:
                self.telemetry.observe(
                    "exec.rows_per_batch", stats.rows_out / stats.batches_out
                )

    # ------------------------------------------------------------------
    # scan
    # ------------------------------------------------------------------
    def _document_batches(self) -> Iterator[List[Document]]:
        """Documents in storage-sized batches, falling back to chunking
        the flat iterator for repositories without a batched scan."""
        provider = getattr(self.repository, "document_batches", None)
        if provider is not None:
            yield from provider(self.batch_size)
            return
        pending: List[Document] = []
        for document in self.repository.documents():
            pending.append(document)
            if len(pending) >= self.batch_size:
                yield pending
                pending = []
        if pending:
            yield pending

    def _view_batches(self, view_name: str, meter: _CostMeter) -> List[ColumnBatch]:
        """Scan a view: project matching documents column-wise.

        Repositories backed by the native column pages expose
        ``view_column_batches`` — batches come straight off the encoded
        pages with zero row materialization (columns are still-encoded
        :class:`~repro.storage.encoding.EncodedColumn` vectors the filter
        path evaluates on integer codes).  The simulated charge is
        identical to the transpose path by construction — the physical
        shortcut must not perturb the cost model the PLAN experiments
        compare — and repositories without the native path (snapshots,
        non-columnar views) fall through to transposing documents.
        """
        view = self.repository.views.get(view_name)
        native = getattr(self.repository, "view_column_batches", None)
        if native is not None:
            produced = native(view, self.batch_size)
            if produced is not None:
                batch_iter, n_docs = produced
                batches = [b for b in batch_iter if b.length]
                n_rows = sum(b.length for b in batches)
                meter.charge(n_docs * costs.SCAN_CPU_MS_PER_DOC)
                meter.charge(n_rows * costs.PROJECT_CPU_MS_PER_ROW)
                stats = meter.stats("scan")
                stats.rows_in += n_docs
                stats.rows_out += n_rows
                stats.batches_out += len(batches)
                return batches
        projector = ColumnProjector(view, self.repository.lookup)
        matches = view.matches
        n_docs = 0
        for chunk in self._document_batches():
            n_docs += len(chunk)
            for document in chunk:
                if matches(document):
                    projector.add(document)
        meter.charge(n_docs * costs.SCAN_CPU_MS_PER_DOC)
        meter.charge(projector.length * costs.PROJECT_CPU_MS_PER_ROW)
        batches = batches_from_columns(
            projector.columns, projector.length, self.batch_size
        )
        stats = meter.stats("scan")
        stats.rows_in += n_docs
        stats.rows_out += projector.length
        stats.batches_out += len(batches)
        return batches

    def _probe_index(self, path, key):
        """Value-index probe, memoized through the cache hierarchy's
        probe tier when one is wired (docs/CACHING.md)."""
        cache = self._active_cache()
        if cache is not None:
            return cache.probes.lookup(
                path,
                key,
                lambda: self.repository.indexes.values.docs_with_value(path, key),
            )
        return self.repository.indexes.values.docs_with_value(path, key)

    def _indexed_join_rows(
        self, plan: PhysIndexedJoin, outer: List[Row], meter: _CostMeter
    ) -> List[Row]:
        """Indexed-NL join body (probes are inherently row-at-a-time:
        one index lookup per outer row)."""
        if meter.adaptive:
            view = self.repository.views.get(plan.inner_view)
            path = self._column_path(view, plan.inner_column)
            return self._run_adaptive_indexed_join(plan, outer, view, path, meter)
        return self._probe_join_rows(plan, outer, meter)

    def _probe_join_rows(
        self, plan: PhysIndexedJoin, outer: List[Row], meter: _CostMeter
    ) -> List[Row]:
        """Plain probe loop: one (penalty-priced) index probe per
        non-null outer row."""
        view = self.repository.views.get(plan.inner_view)
        path = self._column_path(view, plan.inner_column)
        results: List[Row] = []
        for row in outer:
            key = row.get(plan.outer_column)
            if key is None:
                continue
            meter.charge(meter.probe_cost_ms)
            doc_ids = self._probe_index(path, key)
            for doc_id in sorted(doc_ids):
                document = self.repository.lookup(doc_id)
                if document is None or not view.matches(document):
                    continue
                inner_row = view.project(document, self.repository.lookup)
                if inner_row is None:
                    continue
                if plan.inner_predicate is not None and not plan.inner_predicate.matches(inner_row):
                    continue
                results.append(merge_joined_row(dict(row), inner_row))
        return results

    def _indexed_join_stage(
        self, plan: PhysIndexedJoin, outer: List[Row], ctx: PipelineContext
    ) -> List[Row]:
        """Compiled indexed-join breaker: the outer side just materialized.

        With a re-optimizer armed this is a checkpoint — the observed
        outer cardinality (and any degraded-node probe penalty) is handed
        to the cost-based optimizer, and an approved re-plan splices in a
        hash strategy over the same materialized outer.  Otherwise the
        stage runs plain probes, or the budgeted migration under
        estimate-free adaptive mode.
        """
        meter = ctx.meter
        reoptimizer = ctx.reoptimizer
        if reoptimizer is None:
            return self._indexed_join_rows(plan, outer, meter)
        outer_logical = to_logical(plan.outer)
        inner_logical: LogicalPlan = ScanView(plan.inner_view)
        if plan.inner_predicate is not None and not plan.inner_predicate.is_empty:
            inner_logical = Filter(inner_logical, plan.inner_predicate)
        replacement = reoptimizer.checkpoint_indexed_join(
            stage=(
                f"indexed_join({plan.outer_column}->"
                f"{plan.inner_view}.{plan.inner_column})"
            ),
            observed_outer=len(outer),
            estimated_outer=plan.outer.estimated_rows,
            outer_logical=outer_logical,
            inner_logical=inner_logical,
            outer_column=plan.outer_column,
            inner_column=plan.inner_column,
        )
        if replacement is not None:
            return self._hash_migrate_indexed(plan, outer, meter)
        return self._probe_join_rows(plan, outer, meter)

    def _inner_rows(self, plan: PhysIndexedJoin, meter: _CostMeter) -> List[Row]:
        """One-shot scan of an indexed join's inner side (a migration's
        hash build input): charged to *meter*, kept out of its per-operator
        scan statistics."""
        scan_meter = _CostMeter()
        rows = rows_from_batches(self._view_batches(plan.inner_view, scan_meter))
        meter.charge(scan_meter.ms)
        if plan.inner_predicate is not None:
            rows = [r for r in rows if plan.inner_predicate.matches(r)]
        return rows

    def _hash_migrate_indexed(
        self, plan: PhysIndexedJoin, outer: List[Row], meter: _CostMeter
    ) -> List[Row]:
        """Re-plan splice: hash-join the materialized outer against a
        one-shot inner scan, at local (un-penalized) hash costs."""
        from repro.query.adaptive import AdaptiveJoinReport, hash_probe_rows

        before_ms = meter.ms
        inner_rows = self._inner_rows(plan, meter)
        meter.charge(len(inner_rows) * costs.HASH_BUILD_MS_PER_ROW)
        results, probed = hash_probe_rows(
            outer, plan.outer_column, inner_rows, plan.inner_column
        )
        meter.charge(probed * costs.HASH_PROBE_MS_PER_ROW)
        meter.adaptive_reports.append(
            AdaptiveJoinReport(
                probes_done=0,
                switched=True,
                hash_build_rows=len(inner_rows),
                rows_out=len(results),
                sim_ms=meter.ms - before_ms,
            )
        )
        return results

    def _run_adaptive_indexed_join(
        self, plan: PhysIndexedJoin, outer: List[Row], view, path, meter: _CostMeter
    ) -> List[Row]:
        """Indexed-NL with mid-flight migration (Section 3.3)."""
        from repro.query.adaptive import adaptive_indexed_join

        def probe(key) -> List[Row]:
            matches: List[Row] = []
            for doc_id in sorted(self._probe_index(path, key)):
                document = self.repository.lookup(doc_id)
                if document is None or not view.matches(document):
                    continue
                inner_row = view.project(document, self.repository.lookup)
                if inner_row is None:
                    continue
                if plan.inner_predicate is not None and not plan.inner_predicate.matches(inner_row):
                    continue
                matches.append(inner_row)
            return matches

        results, report = adaptive_indexed_join(
            outer,
            plan.outer_column,
            probe,
            lambda: self._inner_rows(plan, meter),
            plan.inner_column,
            probe_budget=self.adaptive_config.probe_budget,
            probe_cost_ms=meter.probe_cost_ms,
        )
        meter.charge(report.sim_ms)
        meter.adaptive_reports.append(report)
        return results

    # ------------------------------------------------------------------
    def collect_statistics(self, view_names: Sequence[str]):
        """Scan views and build fresh :class:`Statistics` (charging the
        collection cost the paper's simple planner avoids)."""
        from repro.query.stats import Statistics

        statistics = Statistics()
        meter = _CostMeter()
        statistics.collect(
            {name: rows_from_batches(self._view_batches(name, meter)) for name in view_names}
        )
        return statistics


def _describe_physical(plan: PhysicalPlan, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(plan, PhysHashJoin):
        return (
            f"{pad}HashJoin(probe.{plan.probe_column} = build.{plan.build_column})\n"
            + _describe_physical(plan.probe, indent + 1)
            + "\n"
            + _describe_physical(plan.build, indent + 1)
        )
    if isinstance(plan, PhysIndexedJoin):
        header = (
            f"{pad}IndexedNLJoin(outer.{plan.outer_column} -> "
            f"{plan.inner_view}.{plan.inner_column})"
        )
        return header + "\n" + _describe_physical(plan.outer, indent + 1)
    if isinstance(plan, ScanView):
        return f"{pad}Scan({plan.view})"
    if isinstance(plan, Filter):
        return f"{pad}Filter({plan.predicate})\n" + _describe_physical(plan.child, indent + 1)
    if isinstance(plan, Project):
        return f"{pad}Project({', '.join(plan.columns)})\n" + _describe_physical(plan.child, indent + 1)
    if isinstance(plan, Aggregate):
        # Group keys and output names are part of the identity — this
        # string doubles as the result-cache fingerprint, and two queries
        # differing only in GROUP BY must not collide.
        aggs = ", ".join(f"{a.func}({a.column or '*'}) AS {a.name}" for a in plan.aggs)
        group = ", ".join(plan.group_by) or "-"
        return f"{pad}Aggregate(group={group}; {aggs})\n" + _describe_physical(plan.child, indent + 1)
    if isinstance(plan, Sort):
        return f"{pad}Sort({', '.join(plan.keys)})\n" + _describe_physical(plan.child, indent + 1)
    if isinstance(plan, Limit):
        return f"{pad}Limit({plan.count})\n" + _describe_physical(plan.child, indent + 1)
    return f"{pad}{plan!r}"
