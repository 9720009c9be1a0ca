"""Adaptive query processing (paper Section 3.3, docs/ADAPTIVE.md).

"The field of adaptive query processing has advanced significantly over
the past six years, and we can borrow and extend some of the techniques
to make query operators self-adaptable at runtime."

Two tiers of adaptivity, both in the spirit of progressive
reoptimization (already-produced results are always kept; only the
strategy for the *remaining* work changes):

1. :func:`adaptive_indexed_join` — the budgeted escape hatch.  An
   indexed nested-loop join with *no* cardinality estimate monitors how
   many outer rows it has actually probed; past the break-even budget it
   stops probing, builds a hash table over the inner side once, and
   streams the remaining outer rows through it.  This is what makes the
   simple planner's "indexed-NL by default" rule safe.

2. :class:`ReOptimizer` — feedback-driven mid-query re-planning for
   cost-based plans.  Pipeline breakers (join builds, full aggregation,
   sorts) are materialization checkpoints: the compiled execution path
   (:mod:`repro.query.compile`) compares the cardinality it just
   materialized against the optimizer's ``estimated_rows`` annotation.
   Beyond a configurable divergence ratio — or when a chaos-degraded
   data node inflates probe costs — it injects the observed cardinality
   into a :class:`~repro.query.stats.Statistics` overlay, re-runs the
   cost-based optimizer on the remaining logical subtree, and splices
   the new physical plan in (switch join strategy, flip the hash build
   side) while keeping everything already produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.exec import costs
from repro.exec.operators import Row, merge_joined_row

#: Default probe budget before the operator reconsiders: the number of
#: probes whose cost equals building a hash table over ~1k inner rows.
DEFAULT_PROBE_BUDGET = 128


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for mid-query re-optimization.

    ``enabled`` gates the re-optimizer (budgeted join migration stays
    available regardless — it predates this config and needs no
    estimates).  ``divergence_ratio`` is the observed/estimated factor
    (either direction) that arms a checkpoint; ``max_replans`` bounds
    splices per query so a pathological estimate cannot thrash.
    """

    enabled: bool = True
    divergence_ratio: float = 2.0
    max_replans: int = 2
    probe_budget: int = DEFAULT_PROBE_BUDGET

    def __post_init__(self) -> None:
        if self.divergence_ratio < 1.0:
            raise ValueError("divergence_ratio must be >= 1.0")
        if self.max_replans < 0:
            raise ValueError("max_replans cannot be negative")
        if self.probe_budget < 1:
            raise ValueError("probe_budget must be >= 1")


@dataclass
class AdaptiveJoinReport:
    """What the budgeted adaptive operator did on one execution."""

    probes_done: int = 0
    switched: bool = False
    hash_build_rows: int = 0
    rows_out: int = 0
    sim_ms: float = 0.0


@dataclass
class ReplanReport:
    """One mid-query re-optimization decision (docs/ADAPTIVE.md)."""

    stage: str
    reason: str
    observed_rows: float
    estimated_rows: Optional[float]
    old_strategy: str
    new_strategy: str
    #: Kept True so replan and budgeted-migration reports share the
    #: ``switched`` surface in ``QueryResult.adaptive_reports``.
    switched: bool = True


def adaptive_indexed_join(
    outer: Iterable[Row],
    outer_key: str,
    probe: Callable[[Any], List[Row]],
    inner_scan: Callable[[], List[Row]],
    inner_key: str,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
    probe_cost_ms: float = costs.INDEX_PROBE_MS,
) -> Tuple[List[Row], AdaptiveJoinReport]:
    """Run an indexed-NL join that may migrate to a hash join.

    Parameters
    ----------
    outer / outer_key:
        The driving input and its join column.
    probe:
        Index probe for one key (the indexed-NL fast path).
    inner_scan / inner_key:
        Full inner materialization, used only if the operator switches.
    probe_budget:
        Probes allowed before switching.  Null-key outer rows never
        probe, so they never count toward the budget — a run of nulls
        cannot trigger (or delay) a migration.
    probe_cost_ms:
        Simulated cost of one index probe; inflated above
        :data:`repro.exec.costs.INDEX_PROBE_MS` when the probed node is
        degraded.
    """
    if probe_budget < 1:
        raise ValueError("probe budget must be >= 1")
    report = AdaptiveJoinReport()
    results: List[Row] = []
    remaining: List[Row] = []
    outer_iter = iter(outer)

    for row in outer_iter:
        key = row.get(outer_key)
        if key is None:
            # Null keys never join and never probe; skipping before the
            # budget check keeps them out of the probe accounting on
            # both strategies.
            continue
        if report.probes_done >= probe_budget:
            remaining.append(row)
            remaining.extend(outer_iter)
            break
        report.probes_done += 1
        report.sim_ms += probe_cost_ms
        for match in probe(key):
            results.append(merge_joined_row(dict(row), match))

    if remaining:
        report.switched = True
        inner_rows = inner_scan()
        report.hash_build_rows = len(inner_rows)
        report.sim_ms += len(inner_rows) * costs.HASH_BUILD_MS_PER_ROW
        joined, probed = hash_probe_rows(remaining, outer_key, inner_rows, inner_key)
        report.sim_ms += probed * costs.HASH_PROBE_MS_PER_ROW
        results.extend(joined)

    report.rows_out = len(results)
    return results, report


def hash_probe_rows(
    outer: Iterable[Row],
    outer_key: str,
    inner_rows: List[Row],
    inner_key: str,
) -> Tuple[List[Row], int]:
    """Build a hash table over *inner_rows* and stream *outer* through it.

    Returns ``(joined rows, probes charged)``.  Null keys on either side
    never join and are free — the same accounting the probe path uses, so
    a strategy switch never changes what a row costs.  Shared by the
    budgeted migration above and the engine's re-plan splice.
    """
    table: Dict[Any, List[Row]] = {}
    for inner_row in inner_rows:
        table.setdefault(inner_row.get(inner_key), []).append(inner_row)
    table.pop(None, None)
    results: List[Row] = []
    probed = 0
    for row in outer:
        key = row.get(outer_key)
        if key is None:
            continue
        probed += 1
        for match in table.get(key, ()):
            results.append(merge_joined_row(dict(row), match))
    return results, probed


class ReOptimizer:
    """Per-execution mid-query re-planning state (docs/ADAPTIVE.md).

    Owned by one adaptive compiled execution.  Pipeline-breaker stages
    call the ``checkpoint_*`` methods with the cardinality they just
    materialized; the re-optimizer decides whether the remaining subtree
    should be re-planned, consults the cost-based optimizer with the
    observation injected into a statistics *overlay* (the caller's
    statistics object is never mutated), and records a
    :class:`ReplanReport` for every splice it approves.
    """

    def __init__(
        self,
        config: AdaptiveConfig,
        statistics: Optional[Any] = None,
        optimizer_factory: Optional[Callable[[Any], Any]] = None,
        probe_penalty: float = 1.0,
        report_sink: Optional[List[Any]] = None,
    ) -> None:
        self.config = config
        self.statistics = statistics.overlay() if statistics is not None else None
        self._optimizer_factory = optimizer_factory
        self.probe_penalty = max(1.0, probe_penalty)
        self.reports: List[ReplanReport] = []
        self._sink = report_sink
        self.checkpoints = 0

    # ------------------------------------------------------------------
    @property
    def can_replan(self) -> bool:
        return (
            self.config.enabled
            and len(self.reports) < self.config.max_replans
            and self.statistics is not None
            and self._optimizer_factory is not None
        )

    def diverged(self, estimated: Optional[float], observed: float) -> bool:
        """True when observed/estimated exceeds the ratio either way."""
        if estimated is None or estimated <= 0.0:
            return False
        ratio = observed / estimated
        threshold = self.config.divergence_ratio
        return ratio >= threshold or ratio <= 1.0 / threshold

    def record(self, report: ReplanReport) -> None:
        self.reports.append(report)
        if self._sink is not None:
            self._sink.append(report)

    def replan(self, logical: Any) -> Any:
        """Cost-based plan for *logical* under the observation overlay."""
        return self._optimizer_factory(self.statistics).plan(logical)

    # ------------------------------------------------------------------
    # materialization checkpoints
    # ------------------------------------------------------------------
    def checkpoint_indexed_join(
        self,
        *,
        stage: str,
        observed_outer: float,
        estimated_outer: Optional[float],
        outer_logical: Any,
        inner_logical: Any,
        outer_column: str,
        inner_column: str,
    ) -> Optional[Any]:
        """Decide the fate of an indexed-NL join whose outer just materialized.

        Returns the replacement physical plan (a ``PhysHashJoin``) when
        the re-plan switches strategy, else ``None`` (keep probing).
        Armed by cardinality divergence *or* a degraded probe target —
        the optimizer re-runs with the observed outer cardinality and a
        penalty-inflated probe cost, so both signals flow through the
        same cost model that planned the join in the first place.
        """
        self.checkpoints += 1
        if not self.can_replan:
            return None
        divergence = self.diverged(estimated_outer, observed_outer)
        degraded = self.probe_penalty > 1.0
        if not (divergence or degraded):
            return None
        from repro.query.planner import PhysHashJoin
        from repro.query.plans import Join

        self.statistics.observe(outer_logical, float(observed_outer))
        remaining = Join(outer_logical, inner_logical, outer_column, inner_column)
        replacement = self.replan(remaining)
        if not isinstance(replacement, PhysHashJoin):
            return None
        self.record(
            ReplanReport(
                stage=stage,
                reason="degraded-node" if degraded and not divergence else "cardinality-divergence",
                observed_rows=float(observed_outer),
                estimated_rows=estimated_outer,
                old_strategy="indexed-nl",
                new_strategy="hash",
            )
        )
        return replacement

    def checkpoint_hash_join(
        self,
        *,
        stage: str,
        observed_probe: float,
        estimated_probe: Optional[float],
        estimated_build: Optional[float],
        probe_logical: Any,
    ) -> bool:
        """Decide whether to flip the build side of a hash join.

        Called after the probe side materialized but before the build
        side runs.  Returns True when the observed probe cardinality has
        diverged enough that building over the (already materialized)
        probe side and streaming the other side is cheaper.
        """
        self.checkpoints += 1
        if not self.can_replan or estimated_build is None:
            return False
        if not self.diverged(estimated_probe, observed_probe):
            return False
        self.statistics.observe(probe_logical, float(observed_probe))
        keep = (
            estimated_build * costs.HASH_BUILD_MS_PER_ROW
            + observed_probe * costs.HASH_PROBE_MS_PER_ROW
        )
        swap = (
            observed_probe * costs.HASH_BUILD_MS_PER_ROW
            + estimated_build * costs.HASH_PROBE_MS_PER_ROW
        )
        if swap >= keep:
            return False
        self.record(
            ReplanReport(
                stage=stage,
                reason="cardinality-divergence",
                observed_rows=float(observed_probe),
                estimated_rows=estimated_probe,
                old_strategy="hash(build=other)",
                new_strategy="hash(build=probe)",
            )
        )
        return True
