"""Row-at-a-time plan interpreter: the reference compiled pipelines answer to.

This is the legacy row engine, moved out of ``src/`` when compiled
pipelines became the only execution path.  It is the *only* row
interpreter in the repository and nothing under ``src/`` imports it.

It walks a physical plan over dict rows with the textbook operators
(``predicate.matches`` per row, ``hash_join``, ``sort_rows``,
``group_aggregate``, one index probe and inner fetch per outer row),
reading documents one at a time through ``view.project`` — no batches,
no dictionary codes, no fusion, no memo.  Planning
goes through a private :class:`QueryEngine`'s planners and charges land
on the same ``_CostMeter`` by the same per-row formulas, so ``rows``
(exact order), ``sim_ms`` and per-operator ``rows_in``/``rows_out`` are
directly comparable with a compiled run of the same query; batch
counters have no row-side meaning and stay zero.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.exec import costs
from repro.exec.operators import Row, merge_joined_row
from repro.query.engine import QueryEngine, _CostMeter, _describe_physical
from repro.query.planner import PhysHashJoin, PhysicalPlan, PhysIndexedJoin
from repro.query.plans import (
    Aggregate,
    Filter,
    Limit,
    LogicalPlan,
    Project,
    ScanView,
    Sort,
)
from repro.query.result import QueryResult
from repro.query.sql import parse_sql
from tests.oracle.row_operators import group_aggregate, hash_join, sort_rows


def row_counts(operator_stats: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
    """The engine-independent half of ``operator_stats``: rows in/out."""
    return {name: (s.rows_in, s.rows_out) for name, s in operator_stats.items()}


def batch_counts(operator_stats: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
    """The half with no row-side twin — tests pin it with literals."""
    return {name: (s.batches_in, s.batches_out) for name, s in operator_stats.items()}


class RowEngine:
    """``sql``/``execute`` with :class:`QueryEngine`'s signatures, minus
    ``adaptive`` (re-optimization is a property of the compiled path)."""

    def __init__(self, repository) -> None:
        self.repository = repository
        # planners and column paths only — never its pipelines or probes
        self._engine = QueryEngine(repository)

    def sql(self, query: str, planner: str = "simple", statistics=None) -> QueryResult:
        return self.execute(parse_sql(query), planner=planner, statistics=statistics)

    def execute(
        self, logical: LogicalPlan, planner: str = "simple", statistics=None
    ) -> QueryResult:
        if planner == "simple":
            physical = self._engine.simple_planner.plan(logical)
        else:
            physical = self._engine.optimizer(statistics).plan(logical)
        meter = _CostMeter()
        meter.probe_cost_ms = self._engine._probe_cost_ms()
        rows = self._run(physical, meter)
        return QueryResult(
            rows=rows,
            sim_ms=meter.ms,
            plan_text=_describe_physical(physical),
            operator_stats=dict(meter.operators),
        )

    # ------------------------------------------------------------------
    def _view_rows(self, view_name: str, meter: _CostMeter) -> List[Row]:
        view = self.repository.views.get(view_name)
        rows: List[Row] = []
        n_docs = 0
        for document in self.repository.documents():
            n_docs += 1
            if not view.matches(document):
                continue
            row = view.project(document, self.repository.lookup)
            if row is not None:
                rows.append(row)
        meter.charge(n_docs * costs.SCAN_CPU_MS_PER_DOC)
        meter.charge(len(rows) * costs.PROJECT_CPU_MS_PER_ROW)
        stats = meter.stats("scan")
        stats.rows_in += n_docs
        stats.rows_out += len(rows)
        return rows

    def _run(self, plan: PhysicalPlan, meter: _CostMeter) -> List[Row]:
        if isinstance(plan, ScanView):
            return self._view_rows(plan.view, meter)
        if isinstance(plan, Filter):
            child = self._run(plan.child, meter)
            meter.charge(len(child) * costs.FILTER_CPU_MS_PER_ROW)
            out = [r for r in child if plan.predicate.matches(r)]
            stats = meter.stats("filter")
            stats.rows_in += len(child)
            stats.rows_out += len(out)
            return out
        if isinstance(plan, Project):
            child = self._run(plan.child, meter)
            meter.charge(len(child) * costs.PROJECT_CPU_MS_PER_ROW)
            stats = meter.stats("project")
            stats.rows_in += len(child)
            stats.rows_out += len(child)
            return [{c: r.get(c) for c in plan.columns} for r in child]
        if isinstance(plan, Aggregate):
            child = self._run(plan.child, meter)
            meter.charge(len(child) * costs.AGG_MS_PER_ROW)
            rows = group_aggregate(
                child, plan.group_by, plan.aggs, meter.stats("aggregate")
            )
            return [
                {k: v for k, v in row.items() if k != "__distinct"} for row in rows
            ]
        if isinstance(plan, Sort):
            child = self._run(plan.child, meter)
            meter.charge(costs.sort_cost_ms(len(child)))
            return sort_rows(child, plan.keys, plan.descending, meter.stats("sort"))
        if isinstance(plan, Limit):
            return self._run(plan.child, meter)[: plan.count]
        if isinstance(plan, PhysHashJoin):
            probe = self._run(plan.probe, meter)
            build = self._run(plan.build, meter)
            meter.charge(
                len(build) * costs.HASH_BUILD_MS_PER_ROW
                + len(probe) * costs.HASH_PROBE_MS_PER_ROW
            )
            return list(
                hash_join(
                    probe,
                    build,
                    plan.probe_column,
                    plan.build_column,
                    meter.stats("hash_join"),
                )
            )
        if isinstance(plan, PhysIndexedJoin):
            outer = self._run(plan.outer, meter)
            joined = self._probe_join_rows(plan, outer, meter)
            stats = meter.stats("indexed_join")
            stats.rows_in += len(outer)
            stats.rows_out += len(joined)
            return joined
        raise TypeError(f"cannot execute {plan!r}")

    def _probe_join_rows(
        self, plan: PhysIndexedJoin, outer: List[Row], meter: _CostMeter
    ) -> List[Row]:
        """One index probe and one inner fetch per non-null outer row."""
        view = self.repository.views.get(plan.inner_view)
        path = self._engine._column_path(view, plan.inner_column)
        results: List[Row] = []
        for row in outer:
            key = row.get(plan.outer_column)
            if key is None:
                continue
            meter.charge(meter.probe_cost_ms)
            doc_ids = self.repository.indexes.values.docs_with_value(path, key)
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
