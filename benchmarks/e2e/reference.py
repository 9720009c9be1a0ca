"""Pure-Python answers for the ``scan_sql`` templates.

Each template is evaluated over the generator's own row dicts — no
appliance code is involved — and compared with what ``Session.sql``
returned.  Float aggregates are compared with a relative tolerance: the
engine and this file may add in a different order.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

Row = Dict[str, Any]


class Template(NamedTuple):
    name: str
    sql: str
    #: Range the fresh literal is drawn from.
    low: float
    high: float
    #: (orders, customers, literal, returned rows) -> None, or a reason string.
    verify: Callable[[Sequence[Row], Sequence[Row], float, List[Row]], Any]


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def _same_groups(got: List[Row], want: Dict[Any, Row], key: str) -> Any:
    if len(got) != len(want):
        return f"{len(got)} groups, expected {len(want)}"
    for row in got:
        expected = want.get(row.get(key))
        if expected is None or set(row) != set(expected):
            return f"unexpected group {row!r}"
        if not all(_close(row[column], expected[column]) for column in expected):
            return f"group {row!r} != {expected!r}"
    return None


def _verify_region_totals(orders, _customers, x, got):
    want: Dict[Any, Row] = {}
    for row in orders:
        if row["amount"] > x:
            group = want.setdefault(row["region"], {"region": row["region"], "n": 0, "total": 0.0})
            group["n"] += 1
            group["total"] += row["amount"]
    return _same_groups(got, want, "region")


def _verify_top_amounts(orders, _customers, x, got):
    # Ties on ``amount`` may come back in any order and a tie at the cut
    # may keep either row, so compare the amount sequence and check each
    # returned row exists, once.
    matching = sorted((row["amount"] for row in orders if row["amount"] > x), reverse=True)
    if [row["amount"] for row in got] != matching[:20]:
        return "amount sequence differs"
    by_oid = {row["oid"]: row["amount"] for row in orders}
    oids = [row["oid"] for row in got]
    if len(set(oids)) != len(oids):
        return "duplicate oid"
    if any(by_oid.get(row["oid"]) != row["amount"] for row in got):
        return "row not in table"
    return None


def _verify_orders_per_customer(orders, _customers, x, got):
    want: Dict[Any, Row] = {}
    for row in orders:
        if row["amount"] < x:
            group = want.setdefault(row["cid"], {"cid": row["cid"], "n": 0})
            group["n"] += 1
    return _same_groups(got, want, "cid")


def _verify_open_orders(orders, _customers, x, got):
    want = sorted(
        (row["oid"], row["cid"])
        for row in orders
        if row["amount"] > x and row["status"] == "open"
    )
    if sorted((row["oid"], row["cid"]) for row in got) != want:
        return f"{len(got)} rows, expected {len(want)} or different rows"
    return None


def _verify_avg_by_status(orders, _customers, x, got):
    sums: Dict[Any, Tuple[int, float]] = {}
    for row in orders:
        if row["amount"] > x:
            n, total = sums.get(row["status"], (0, 0.0))
            sums[row["status"]] = (n + 1, total + row["amount"])
    want = {s: {"status": s, "a": total / n} for s, (n, total) in sums.items()}
    return _same_groups(got, want, "status")


def _verify_join_segments(orders, customers, x, got):
    segment_of = {row["cid"]: row["segment"] for row in customers}
    want: Dict[Any, Row] = {}
    for row in orders:
        if row["amount"] > x and row["cid"] in segment_of:
            segment = segment_of[row["cid"]]
            group = want.setdefault(segment, {"segment": segment, "n": 0})
            group["n"] += 1
    return _same_groups(got, want, "segment")


TEMPLATES: List[Template] = [
    Template(
        "filter_group",
        "SELECT region, count(*) AS n, sum(amount) AS total FROM orders "
        "WHERE amount > {x} GROUP BY region",
        50.0, 450.0, _verify_region_totals,
    ),
    Template(
        "filter_order_limit",
        "SELECT oid, amount FROM orders WHERE amount > {x} ORDER BY amount DESC LIMIT 20",
        50.0, 450.0, _verify_top_amounts,
    ),
    Template(
        "wide_group",
        "SELECT cid, count(*) AS n FROM orders WHERE amount < {x} GROUP BY cid",
        100.0, 480.0, _verify_orders_per_customer,
    ),
    Template(
        "selective_projection",
        "SELECT oid, cid FROM orders WHERE amount > {x} AND status = 'open'",
        400.0, 495.0, _verify_open_orders,
    ),
    Template(
        "avg_by_status",
        "SELECT status, avg(amount) AS a FROM orders WHERE amount > {x} GROUP BY status",
        50.0, 450.0, _verify_avg_by_status,
    ),
    Template(
        "join_filter_group",
        "SELECT c.segment, count(*) AS n FROM orders o JOIN customers c "
        "ON o.cid = c.cid WHERE o.amount > {x} GROUP BY c.segment",
        450.0, 490.0, _verify_join_segments,
    ),
]
