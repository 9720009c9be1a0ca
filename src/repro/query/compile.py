"""Compiled operator pipelines (docs/ADAPTIVE.md) — the execution path.

The engine never walks a physical plan tree at run time: it lowers a
plan *once* into fused per-batch closures and caches the result keyed by
:func:`plan_fingerprint` — compilation cost amortizes across the
cached-plan hot path.  Pipeline breakers (hash-join builds,
indexed-join outer materialization, full aggregation, sorts) bound the
fused stages and double as the re-optimizer's materialization
checkpoints (:class:`repro.query.adaptive.ReOptimizer`).

Fusion is not just dispatch removal — it changes the data movement:

* **filter→project** takes only the *projected* columns through the
  gather (``select_columns`` is zero-copy, so ``take`` never touches
  columns the query drops);
* **filter→aggregate** feeds surviving row indices straight into
  :class:`~repro.exec.operators.GroupAggregator`, skipping the
  intermediate ``take()`` copy entirely;
* predicate selectors are pre-bound once per pipeline
  (:func:`compile_selector` — the one filter kernel, including the
  :class:`~repro.storage.encoding.EncodedColumn` dictionary-code fast
  path), not once per batch.

Fusion is physical only: rows, their order, per-operator row counts and
simulated charges (per operator, in the same per-row amounts) equal
those of a row-at-a-time interpretation of the same plan — the test
oracle (``tests/oracle/row_engine.py``) pins all of them.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.exec import costs
from repro.exec.batch import ColumnBatch
from repro.exec.operators import (
    GroupAggregator,
    hash_join_batches,
    hash_join_swapped_batches,
    sort_batches,
)
from repro.query.planner import (
    PhysHashJoin,
    PhysicalPlan,
    PhysIndexedJoin,
    to_logical,
)
from repro.query.plans import (
    Aggregate,
    Conjunction,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    ScanView,
    Sort,
)
from repro.storage.encoding import EncodedColumn


class PipelineContext:
    """Per-execution state threaded through compiled stages.

    The *engine* supplies scans and index probes, the *meter* takes the
    simulated charges and operator statistics, and *reoptimizer* (only on
    adaptive runs with statistics) arms the materialization checkpoints.
    """

    __slots__ = ("engine", "meter", "reoptimizer")

    def __init__(self, engine: Any, meter: Any, reoptimizer: Optional[Any] = None) -> None:
        self.engine = engine
        self.meter = meter
        self.reoptimizer = reoptimizer


#: A compiled stage: context → fully materialized output batches.
StageFn = Callable[[PipelineContext], List[ColumnBatch]]


class CompiledPipeline:
    """One physical plan lowered to fused stage closures."""

    __slots__ = ("fingerprint", "stages", "_run")

    def __init__(self, fingerprint: str, stages: Tuple[str, ...], run: StageFn) -> None:
        self.fingerprint = fingerprint
        #: Human-readable stage labels, root last (tests/EXPLAIN aid).
        self.stages = stages
        self._run = run

    def execute(self, ctx: PipelineContext) -> List[ColumnBatch]:
        return self._run(ctx)


def compile_plan(plan: PhysicalPlan) -> CompiledPipeline:
    """Lower *plan* into a :class:`CompiledPipeline`."""
    stages: List[str] = []
    run = _compile(plan, stages)
    return CompiledPipeline(plan_fingerprint(plan), tuple(stages), run)


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def plan_fingerprint(plan: PhysicalPlan) -> str:
    """Deterministic structural identity of a physical plan.

    The compiled-pipeline cache key.  Purely a function of the plan (no
    epoch: recompiling after a data change would produce the same
    closures), but it *does* include the optimizer's estimate
    annotations — checkpoint closures bake estimates in, so cost-based
    plans that differ only in estimates must compile separately.  The
    simple planner never annotates, keeping the cached hot path's
    fingerprint stable.
    """
    if isinstance(plan, ScanView):
        return f"scan({plan.view}|{plan.alias or ''}{_est(plan)})"
    if isinstance(plan, Filter):
        return f"filter({plan.predicate}{_est(plan)})<-{plan_fingerprint(plan.child)}"
    if isinstance(plan, Project):
        return f"project({','.join(plan.columns)}{_est(plan)})<-{plan_fingerprint(plan.child)}"
    if isinstance(plan, Aggregate):
        aggs = ";".join(f"{a.name}:{a.func}:{a.column or '*'}" for a in plan.aggs)
        group = ",".join(plan.group_by)
        return f"agg([{group}][{aggs}]{_est(plan)})<-{plan_fingerprint(plan.child)}"
    if isinstance(plan, Sort):
        direction = "desc" if plan.descending else "asc"
        return f"sort({','.join(plan.keys)} {direction}{_est(plan)})<-{plan_fingerprint(plan.child)}"
    if isinstance(plan, Limit):
        return f"limit({plan.count}{_est(plan)})<-{plan_fingerprint(plan.child)}"
    if isinstance(plan, PhysHashJoin):
        return (
            f"hash_join({plan.probe_column}={plan.build_column}{_est(plan)})"
            f"<-[{plan_fingerprint(plan.probe)}|{plan_fingerprint(plan.build)}]"
        )
    if isinstance(plan, PhysIndexedJoin):
        inner_est = plan.estimated_inner_rows
        inner = "" if inner_est is None else f"~i{inner_est:g}"
        predicate = "" if plan.inner_predicate is None else f" where {plan.inner_predicate}"
        return (
            f"indexed_join({plan.outer_column}->{plan.inner_view}.{plan.inner_column}"
            f"{predicate}{_est(plan)}{inner})<-[{plan_fingerprint(plan.outer)}]"
        )
    raise TypeError(f"cannot fingerprint {plan!r}")


def _est(plan: Any) -> str:
    estimate = getattr(plan, "estimated_rows", None)
    return "" if estimate is None else f"~{estimate:g}"


# ----------------------------------------------------------------------
# selectors
# ----------------------------------------------------------------------
def compile_selector(
    predicate: Conjunction,
) -> Callable[[ColumnBatch, Optional[Sequence[int]]], List[int]]:
    """Vectorized evaluation of *predicate*: batch → matching row indices.

    Terms narrow the candidate set column by column — each term reads one
    column and filters the surviving indices, so a selective leading term
    makes the remaining terms nearly free; the selector optionally starts
    from an existing candidate set (chained fused filters).  The per-term
    value predicates are built once, at pipeline compile time.

    Dictionary-coded columns take a code fast path: the term is decided
    once per *distinct* value by the shared
    :class:`~repro.storage.encoding.ColumnDictionary` (a range term with
    a plain numeric literal by a cut of its sorted view, any other term
    by the value predicate, memoized) and the per-row work collapses to
    an integer set membership test on still-encoded codes.  Both paths
    select the same rows as ``predicate.matches``.
    """
    # The dictionary's match cache is keyed by the term's *text*: its
    # literal prints as a repr, which keeps ``= 1``/``= True``/``= 1.0``
    # and ``contains 0.0``/``contains -0.0`` apart — the frozen terms
    # themselves compare (and hash) equal.
    compiled: List[Tuple[str, str, Callable[[Any], bool], str, Any]] = [
        (term.column, str(term), term.value_predicate(), term.op.value, term.value)
        for term in predicate.terms
    ]

    def select(batch: ColumnBatch, candidates: Optional[Sequence[int]] = None) -> List[int]:
        indices: Sequence[int] = range(batch.length) if candidates is None else candidates
        for column, cache_key, value_predicate, op, literal in compiled:
            if not indices:
                break
            raw = batch.columns.get(column)
            if isinstance(raw, EncodedColumn):
                codes = raw.codes()
                matching = raw.dictionary.matching_codes(cache_key, value_predicate, op, literal)
                if not isinstance(indices, range):
                    codes = map(codes.__getitem__, indices)
                indices = list(compress(indices, map(matching.__contains__, codes)))
                continue
            values = batch.column(column)
            indices = [i for i in indices if value_predicate(values[i])]
        return list(indices)

    return select


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def _compile(plan: PhysicalPlan, stages: List[str]) -> StageFn:
    if isinstance(plan, Aggregate):
        return _compile_aggregate(plan, stages)
    if isinstance(plan, (Filter, Project)):
        return _compile_chain(plan, stages)
    if isinstance(plan, ScanView):
        return _compile_scan(plan, stages)
    if isinstance(plan, Sort):
        return _compile_sort(plan, stages)
    if isinstance(plan, Limit):
        return _compile_limit(plan, stages)
    if isinstance(plan, PhysHashJoin):
        return _compile_hash_join(plan, stages)
    if isinstance(plan, PhysIndexedJoin):
        return _compile_indexed_join(plan, stages)
    if isinstance(plan, Join):
        raise TypeError("logical Join reached the compiler; run a planner first")
    raise TypeError(f"cannot compile {plan!r}")


def _peel_chain(plan: PhysicalPlan) -> Tuple[PhysicalPlan, List[PhysicalPlan]]:
    """Split a Filter/Project chain off its source.

    Returns ``(source, nodes)`` with *nodes* in application order
    (innermost first) — the maximal fusable pipeline segment above a
    breaker or scan.
    """
    nodes: List[PhysicalPlan] = []
    while isinstance(plan, (Filter, Project)):
        nodes.append(plan)
        plan = plan.child
    nodes.reverse()
    return plan, nodes


def _chain_label(nodes: Sequence[PhysicalPlan]) -> str:
    parts = []
    for node in nodes:
        parts.append("filter" if isinstance(node, Filter) else "project")
    return "+".join(parts)


def _compile_scan(plan: ScanView, stages: List[str]) -> StageFn:
    view = plan.view
    stages.append(f"scan({view})")

    def run(ctx: PipelineContext) -> List[ColumnBatch]:
        return ctx.engine._view_batches(view, ctx.meter)

    return run


def _run_filter(
    meter: Any, select: Callable, batch: ColumnBatch, indices: Optional[List[int]]
) -> Optional[List[int]]:
    """One fused filter over *batch* (or its surviving *indices*), charged
    and counted as its own operator: the survivors (None: every row)."""
    length = batch.length if indices is None else len(indices)
    meter.charge(length * costs.FILTER_CPU_MS_PER_ROW)
    stats = meter.stats("filter")
    stats.batches_in += 1
    stats.rows_in += length
    indices = select(batch, indices)
    if not indices:
        return []
    stats.batches_out += 1
    stats.rows_out += len(indices)
    return None if len(indices) == batch.length else indices


def _compile_chain(plan: PhysicalPlan, stages: List[str]) -> StageFn:
    """Fused scan→filter→project segment.

    One pass per batch: filters narrow an index set without copying,
    projection prunes columns *before* the gather, and the final
    ``take`` happens at most once per batch.  Charges and statistics
    are accounted per original operator, as if each ran on its own.
    """
    source, nodes = _peel_chain(plan)
    source_fn = _compile(source, stages)
    ops: List[Tuple[str, Any]] = []
    for node in nodes:
        if isinstance(node, Filter):
            ops.append(("filter", compile_selector(node.predicate)))
        else:
            ops.append(("project", list(node.columns)))
    stages.append(f"fused:{_chain_label(nodes)}")

    def run(ctx: PipelineContext) -> List[ColumnBatch]:
        meter = ctx.meter
        charge = meter.charge
        # Register the operator counters even for zero batches, so
        # ``operator_stats`` names every operator of the plan.
        for kind, _ in ops:
            meter.stats(kind)
        out: List[ColumnBatch] = []
        for batch in source_fn(ctx):
            indices: Optional[List[int]] = None
            alive = True
            for kind, op in ops:
                if kind == "filter":
                    indices = _run_filter(meter, op, batch, indices)
                    if indices == []:
                        alive = False
                        break
                else:  # project
                    length = batch.length if indices is None else len(indices)
                    charge(length * costs.PROJECT_CPU_MS_PER_ROW)
                    stats = meter.stats("project")
                    stats.batches_in += 1
                    stats.rows_in += length
                    # Prune columns before any gather: take() then only
                    # ever copies the projected columns.
                    batch = batch.select_columns(op)
                    stats.batches_out += 1
                    stats.rows_out += length
            if not alive:
                continue
            if indices is not None:
                batch = batch.take(indices)
            out.append(batch)
        return out

    return run


def _compile_aggregate(plan: Aggregate, stages: List[str]) -> StageFn:
    source, nodes = _peel_chain(plan.child)
    fuse_filters = all(isinstance(node, Filter) for node in nodes)
    if not fuse_filters:
        # A Project below the Aggregate (planners don't emit this shape,
        # but stay general): run the chain un-fused, then aggregate.
        source_fn = _compile_chain(plan.child, stages)
        selectors: List[Any] = []
    else:
        source_fn = _compile(source, stages)
        selectors = [compile_selector(node.predicate) for node in nodes]
    label = f"{_chain_label(nodes)}+aggregate" if (nodes and fuse_filters) else "aggregate"
    stages.append(f"fused:{label}" if selectors else label)
    group_by = list(plan.group_by)
    aggs = list(plan.aggs)

    def run(ctx: PipelineContext) -> List[ColumnBatch]:
        meter = ctx.meter
        charge = meter.charge
        agg_stats = meter.stats("aggregate")
        if selectors:
            meter.stats("filter")
        aggregator = GroupAggregator(group_by, aggs)
        for batch in source_fn(ctx):
            indices: Optional[List[int]] = None
            alive = True
            for select in selectors:
                indices = _run_filter(meter, select, batch, indices)
                if indices == []:
                    alive = False
                    break
            if not alive:
                continue
            length = batch.length if indices is None else len(indices)
            charge(length * costs.AGG_MS_PER_ROW)
            agg_stats.batches_in += 1
            agg_stats.rows_in += length
            # Surviving indices feed the aggregator directly — no take().
            aggregator.add_batch(batch, indices)
        out = aggregator.finish()
        agg_stats.batches_out += 1
        agg_stats.rows_out += out.length
        out = out.drop_column("__distinct")
        return [out] if out.length else []

    return run


def _compile_sort(plan: Sort, stages: List[str]) -> StageFn:
    child_fn = _compile(plan.child, stages)
    keys, descending = list(plan.keys), plan.descending
    stages.append(f"sort({','.join(keys)})")

    def run(ctx: PipelineContext) -> List[ColumnBatch]:
        child = child_fn(ctx)
        ctx.meter.charge(costs.sort_cost_ms(sum(b.length for b in child)))
        out = sort_batches(child, keys, descending, ctx.meter.stats("sort"))
        return [out] if out.length else []

    return run


def _compile_limit(plan: Limit, stages: List[str]) -> StageFn:
    child_fn = _compile(plan.child, stages)
    count = plan.count
    stages.append(f"limit({count})")

    def run(ctx: PipelineContext) -> List[ColumnBatch]:
        remaining = count
        limited: List[ColumnBatch] = []
        for batch in child_fn(ctx):
            if remaining <= 0:
                break
            head = batch.head(remaining)
            limited.append(head)
            remaining -= head.length
        return limited

    return run


def _compile_hash_join(plan: PhysHashJoin, stages: List[str]) -> StageFn:
    probe_fn = _compile(plan.probe, stages)
    build_fn = _compile(plan.build, stages)
    stage_label = f"hash_join({plan.probe_column}={plan.build_column})"
    stages.append(stage_label)
    probe_column, build_column = plan.probe_column, plan.build_column
    estimated_probe = plan.probe.estimated_rows
    estimated_build = plan.build.estimated_rows
    probe_logical: LogicalPlan = to_logical(plan.probe)

    def run(ctx: PipelineContext) -> List[ColumnBatch]:
        probe = probe_fn(ctx)
        probe_rows = sum(b.length for b in probe)
        # Materialization checkpoint: the probe side is fully known
        # before the build side runs — divergence here can still flip
        # the build side at zero sunk cost.
        swap = False
        if ctx.reoptimizer is not None:
            swap = ctx.reoptimizer.checkpoint_hash_join(
                stage=stage_label,
                observed_probe=probe_rows,
                estimated_probe=estimated_probe,
                estimated_build=estimated_build,
                probe_logical=probe_logical,
            )
        build = build_fn(ctx)
        build_rows = sum(b.length for b in build)
        meter = ctx.meter
        if swap:
            meter.charge(
                probe_rows * costs.HASH_BUILD_MS_PER_ROW
                + build_rows * costs.HASH_PROBE_MS_PER_ROW
            )
            return list(
                hash_join_swapped_batches(
                    probe, build, probe_column, build_column, meter.stats("hash_join")
                )
            )
        meter.charge(
            build_rows * costs.HASH_BUILD_MS_PER_ROW
            + probe_rows * costs.HASH_PROBE_MS_PER_ROW
        )
        return list(
            hash_join_batches(
                probe, build, probe_column, build_column, meter.stats("hash_join")
            )
        )

    return run


def _compile_indexed_join(plan: PhysIndexedJoin, stages: List[str]) -> StageFn:
    outer_fn = _compile(plan.outer, stages)
    stages.append(
        f"indexed_join({plan.outer_column}->{plan.inner_view}.{plan.inner_column})"
    )

    def run(ctx: PipelineContext) -> List[ColumnBatch]:
        from repro.exec.batch import batches_from_rows, rows_from_batches

        outer = rows_from_batches(outer_fn(ctx))
        joined = ctx.engine._indexed_join_stage(plan, outer, ctx)
        stats = ctx.meter.stats("indexed_join")
        stats.rows_in += len(outer)
        stats.rows_out += len(joined)
        out = list(batches_from_rows(joined, ctx.engine.batch_size))
        stats.batches_out += len(out)
        return out

    return run
