"""Logical query plans and predicates.

The SQL subset, the faceted interface, and the graph interface all lower
into this small algebra; the planners then choose physical operators for
it.  The algebra is deliberately minimal — the paper's simple-planner
argument depends on a small operator vocabulary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.exec.operators import AggSpec, Row


class CompareOp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    CONTAINS = "contains"

    def apply(self, left: Any, right: Any) -> bool:
        if self is CompareOp.CONTAINS:
            if left is None:
                return False
            return str(right).lower() in str(left).lower()
        if left is None or right is None:
            return False
        if self is CompareOp.EQ:
            return self._eq(left, right)
        if self is CompareOp.NE:
            return not self._eq(left, right)
        try:
            if self is CompareOp.LT:
                return left < right
            if self is CompareOp.LE:
                return left <= right
            if self is CompareOp.GT:
                return left > right
            return left >= right
        except TypeError:
            return False

    @staticmethod
    def _eq(left: Any, right: Any) -> bool:
        if isinstance(left, str) and isinstance(right, str):
            return left.lower() == right.lower()
        if isinstance(left, bool) != isinstance(right, bool):
            return False
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return float(left) == float(right)
        return left == right


@dataclass(frozen=True)
class Comparison:
    """column <op> literal."""

    column: str
    op: CompareOp
    value: Any

    def matches(self, row: Row) -> bool:
        return self.op.apply(row.get(self.column), self.value)

    def value_predicate(self) -> Callable[[Any], bool]:
        """A value → bool closure equivalent to ``op.apply(value, literal)``.

        Built once per pipeline by :func:`repro.query.compile.
        compile_selector` so the per-row loop skips the enum dispatch
        inside :meth:`CompareOp.apply`.  The
        specialized closures replicate ``apply``'s semantics exactly
        (None never matches ordering ops, cross-type comparisons are
        False, string equality is case-insensitive).
        """
        op, literal = self.op, self.value
        if op in (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE) and literal is not None:
            def ordered(value: Any, _op=op, _lit=literal) -> bool:
                if value is None:
                    return False
                try:
                    if _op is CompareOp.LT:
                        return value < _lit
                    if _op is CompareOp.LE:
                        return value <= _lit
                    if _op is CompareOp.GT:
                        return value > _lit
                    return value >= _lit
                except TypeError:
                    return False

            return ordered
        if op is CompareOp.EQ and isinstance(literal, str):
            lowered = literal.lower()

            def str_eq(value: Any, _lowered=lowered) -> bool:
                return value.lower() == _lowered if isinstance(value, str) else False

            return str_eq
        if (
            op is CompareOp.EQ
            and isinstance(literal, (int, float))
            and not isinstance(literal, bool)
        ):
            as_float = float(literal)

            def num_eq(value: Any, _lit=as_float, _raw=literal) -> bool:
                if isinstance(value, bool) or value is None:
                    return False
                if isinstance(value, (int, float)):
                    return float(value) == _lit
                return value == _raw

            return num_eq
        return lambda value: op.apply(value, literal)

    def __str__(self) -> str:
        return f"{self.column} {self.op.value} {self.value!r}"


@dataclass(frozen=True)
class Conjunction:
    """AND of comparisons (the only boolean connective we support)."""

    terms: Tuple[Comparison, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def matches(self, row: Row) -> bool:
        return all(term.matches(row) for term in self.terms)

    def columns(self) -> List[str]:
        return [t.column for t in self.terms]

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return " AND ".join(str(t) for t in self.terms) if self.terms else "TRUE"


# ----------------------------------------------------------------------
# logical operators
# ----------------------------------------------------------------------
#: Estimate annotation carried by every plan node.  ``compare=False``
#: keeps equality/hashing purely structural (plan-cache keys and the
#: re-optimizer's observed-cardinality overlay both rely on that), and
#: ``repr=False`` keeps EXPLAIN/test output stable.  The cost-based
#: optimizer stamps it via ``object.__setattr__``; the simple planner
#: leaves it ``None``, which the runtime reads as "no estimate — fall
#: back to budgeted adaptivity".
def _estimate_field() -> Any:
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ScanView:
    """Leaf: read a view (virtual table)."""

    view: str
    alias: Optional[str] = None
    estimated_rows: Optional[float] = _estimate_field()

    @property
    def name(self) -> str:
        return self.alias or self.view


@dataclass(frozen=True)
class Filter:
    child: "LogicalPlan"
    predicate: Conjunction
    estimated_rows: Optional[float] = _estimate_field()


@dataclass(frozen=True)
class Join:
    """Equi-join on one column pair."""

    left: "LogicalPlan"
    right: "LogicalPlan"
    left_column: str
    right_column: str
    estimated_rows: Optional[float] = _estimate_field()


@dataclass(frozen=True)
class Project:
    child: "LogicalPlan"
    columns: Tuple[str, ...]
    estimated_rows: Optional[float] = _estimate_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))


@dataclass(frozen=True)
class Aggregate:
    child: "LogicalPlan"
    group_by: Tuple[str, ...]
    aggs: Tuple[AggSpec, ...]
    estimated_rows: Optional[float] = _estimate_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_by", tuple(self.group_by))
        object.__setattr__(self, "aggs", tuple(self.aggs))


@dataclass(frozen=True)
class Sort:
    child: "LogicalPlan"
    keys: Tuple[str, ...]
    descending: bool = False
    estimated_rows: Optional[float] = _estimate_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))


@dataclass(frozen=True)
class Limit:
    child: "LogicalPlan"
    count: int
    estimated_rows: Optional[float] = _estimate_field()

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("LIMIT count cannot be negative")


LogicalPlan = Union[ScanView, Filter, Join, Project, Aggregate, Sort, Limit]


def plan_children(plan: LogicalPlan) -> List[LogicalPlan]:
    if isinstance(plan, ScanView):
        return []
    if isinstance(plan, Join):
        return [plan.left, plan.right]
    return [plan.child]  # type: ignore[union-attr]


def base_views(plan: LogicalPlan) -> List[str]:
    """Every view a plan reads, in scan order."""
    if isinstance(plan, ScanView):
        return [plan.view]
    views: List[str] = []
    for child in plan_children(plan):
        views.extend(base_views(child))
    return views


def describe(plan: LogicalPlan, indent: int = 0) -> str:
    """Readable plan tree, for EXPLAIN output and tests."""
    pad = "  " * indent
    if isinstance(plan, ScanView):
        return f"{pad}Scan({plan.view})"
    if isinstance(plan, Filter):
        return f"{pad}Filter({plan.predicate})\n" + describe(plan.child, indent + 1)
    if isinstance(plan, Join):
        return (
            f"{pad}Join({plan.left_column} = {plan.right_column})\n"
            + describe(plan.left, indent + 1)
            + "\n"
            + describe(plan.right, indent + 1)
        )
    if isinstance(plan, Project):
        return f"{pad}Project({', '.join(plan.columns)})\n" + describe(plan.child, indent + 1)
    if isinstance(plan, Aggregate):
        aggs = ", ".join(f"{a.func}({a.column or '*'}) AS {a.name}" for a in plan.aggs)
        group = ", ".join(plan.group_by) or "-"
        return f"{pad}Aggregate(group={group}; {aggs})\n" + describe(plan.child, indent + 1)
    if isinstance(plan, Sort):
        direction = "DESC" if plan.descending else "ASC"
        return f"{pad}Sort({', '.join(plan.keys)} {direction})\n" + describe(plan.child, indent + 1)
    if isinstance(plan, Limit):
        return f"{pad}Limit({plan.count})\n" + describe(plan.child, indent + 1)
    raise TypeError(f"unknown plan node {plan!r}")
