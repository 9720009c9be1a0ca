"""ADAPTIVE — feedback-driven mid-query re-optimization.

Claims reproduced (docs/ADAPTIVE.md):
(1) **stale statistics**: when the data grows ~100x after statistics
    collection, a cost-based plan keeps driving an indexed-NL join far
    past its break-even.  The adaptive run detects the divergence at the
    outer's materialization checkpoint, re-invokes the optimizer with
    the observed cardinality, and splices in a hash join — closing at
    least half of the static plan's overshoot against a fresh-statistics
    oracle plan (simulated cost; ``gap_closure`` is the closed fraction
    in [0, 1]).  With the *fresh* statistics the adaptive run re-plans
    zero times and costs what the oracle costs — adaptivity is free when
    estimates hold;
(2) **degraded node**: with *accurate* statistics, a chaos-degraded data
    node inflates every index probe by its slowdown.  A plan made while
    the cluster was healthy escapes to a hash join mid-query instead of
    paying the inflated probes.

Results land in ``BENCH_adaptive.json`` at the repo root.  Runs
standalone: ``python benchmarks/bench_adaptive.py --quick`` is the
adaptive smoke target ``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.adaptive import ReplanReport
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.planner import PhysIndexedJoin
from repro.query.sql import parse_sql
from repro.storage.store import DocumentStore

from conftest import once, print_table

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_adaptive.json")

JOIN_QUERY = "SELECT name, amount FROM orders JOIN customers ON cid = cid"


def _repo(n_customers: int, n_orders: int) -> LocalRepository:
    repo = LocalRepository(DocumentStore(buffer_capacity=4096))
    repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
    repo.views.define(
        base_table_view("orders", "orders", ["oid", "cid", "amount", "region"])
    )
    regions = ("east", "west", "north", "south")
    for i in range(n_customers):
        repo.store.put(from_relational_row(
            f"c{i}", "customers", {"cid": i, "name": f"C{i}"}
        ))
    for i in range(n_orders):
        repo.store.put(from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "cid": i % max(n_customers, 1),
             "amount": float(i % 251), "region": regions[i % 4]},
        ))
    return repo


def _grow_orders(repo: LocalRepository, start: int, stop: int, n_customers: int) -> None:
    regions = ("east", "west", "north", "south")
    for i in range(start, stop):
        repo.store.put(from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "cid": i % n_customers,
             "amount": float(i % 251), "region": regions[i % 4]},
        ))


def _multiset(rows):
    return sorted(sorted(r.items()) for r in rows)


def _replans(result):
    return [r for r in result.adaptive_reports if isinstance(r, ReplanReport)]


# ----------------------------------------------------------------------
# claim (1): stale statistics → divergence checkpoint → hash splice
# ----------------------------------------------------------------------
def run_stale(n_customers: int, n_orders_initial: int, n_orders_grown: int) -> dict:
    repo = _repo(n_customers, n_orders_initial)
    engine = QueryEngine(repo)
    stale = engine.collect_statistics(["customers", "orders"])
    _grow_orders(repo, n_orders_initial, n_orders_grown, n_customers)

    static = engine.sql(JOIN_QUERY, planner="costbased", statistics=stale)
    adaptive = engine.sql(
        JOIN_QUERY, planner="costbased", statistics=stale, adaptive=True
    )
    oracle_stats = engine.collect_statistics(["customers", "orders"])
    oracle = engine.sql(JOIN_QUERY, planner="costbased", statistics=oracle_stats)
    well_estimated = engine.sql(
        JOIN_QUERY, planner="costbased", statistics=oracle_stats, adaptive=True
    )

    assert _multiset(static.rows) == _multiset(adaptive.rows), (
        "re-planned run changed the answer"
    )
    assert well_estimated.sim_ms == pytest.approx(oracle.sim_ms), (
        "adaptive mode changed the cost of a well-estimated plan"
    )
    gap_static = static.sim_ms - oracle.sim_ms
    gap_adaptive = adaptive.sim_ms - oracle.sim_ms
    closed = (gap_static - gap_adaptive) / gap_static if gap_static > 0 else 0.0
    return {
        "n_customers": n_customers,
        "orders_at_collect": n_orders_initial,
        "orders_at_run": n_orders_grown,
        "static_sim_ms": static.sim_ms,
        "adaptive_sim_ms": adaptive.sim_ms,
        "oracle_sim_ms": oracle.sim_ms,
        "replans": len(_replans(adaptive)),
        "well_estimated_replans": len(_replans(well_estimated)),
        "gap_closure": min(1.0, max(0.0, closed)),
    }


# ----------------------------------------------------------------------
# claim (2): degraded data node → penalty checkpoint → hash escape
# ----------------------------------------------------------------------
def run_chaos(n_customers: int, n_orders: int, degrade_factor: float = 0.125) -> dict:
    app = Impliance(ApplianceConfig(n_data_nodes=4, n_grid_nodes=2))
    for i in range(n_customers):
        app.ingest({"cid": i, "name": f"C{i}"}, table="customers")
    for i in range(n_orders):
        app.ingest(
            {"oid": i, "cid": i % n_customers, "amount": float(i)}, table="orders"
        )
    engine = app.engine
    stats = engine.collect_statistics(["customers", "orders"])
    # Planned while healthy: accurate estimates pick the indexed-NL join.
    physical = engine.optimizer(stats).plan(parse_sql(JOIN_QUERY))
    assert isinstance(physical.child, PhysIndexedJoin) or isinstance(
        physical, PhysIndexedJoin
    ), "healthy plan should probe the index"

    victim = app.cluster.data_nodes[0]
    victim.degrade(degrade_factor)
    try:
        penalty = app.probe_penalty()
        static = engine.run_physical(physical)
        adaptive = engine.run_physical(physical, adaptive=True, statistics=stats)
    finally:
        victim.restore_speed()

    assert _multiset(static.rows) == _multiset(adaptive.rows), (
        "degraded-node escape changed the answer"
    )
    replans = _replans(adaptive)
    return {
        "n_customers": n_customers,
        "n_orders": n_orders,
        "degrade_factor": degrade_factor,
        "probe_penalty": penalty,
        "static_sim_ms": static.sim_ms,
        "adaptive_sim_ms": adaptive.sim_ms,
        "replans": len(replans),
        "reasons": [r.reason for r in replans],
        "sim_speedup": static.sim_ms / adaptive.sim_ms,
    }


# ----------------------------------------------------------------------
def run_comparison(quick: bool = False) -> dict:
    if quick:
        stale = run_stale(n_customers=600, n_orders_initial=32, n_orders_grown=1_500)
        chaos = run_chaos(n_customers=200, n_orders=15)
    else:
        stale = run_stale(n_customers=2_000, n_orders_initial=64, n_orders_grown=6_000)
        chaos = run_chaos(n_customers=400, n_orders=30)
    return {"stale": stale, "chaos": chaos}


def report(summary: dict) -> None:
    stale = summary["stale"]
    print_table(
        "ADAPTIVE: stale statistics (%d orders at collect, %d at run)"
        % (stale["orders_at_collect"], stale["orders_at_run"]),
        ["plan", "sim ms", "replans"],
        [
            ["static (stale)", f"{stale['static_sim_ms']:.2f}", 0],
            ["adaptive", f"{stale['adaptive_sim_ms']:.2f}", stale["replans"]],
            ["oracle (fresh)", f"{stale['oracle_sim_ms']:.2f}", 0],
        ],
    )
    print(
        f"gap closure: {stale['gap_closure']:.0%} of the static overshoot"
        f" (replans with fresh statistics: {stale['well_estimated_replans']})"
    )
    chaos = summary["chaos"]
    print_table(
        "ADAPTIVE: degraded node (probe penalty %.0fx)" % chaos["probe_penalty"],
        ["plan", "sim ms", "replans"],
        [
            ["static (keeps probing)", f"{chaos['static_sim_ms']:.2f}", 0],
            ["adaptive (hash escape)", f"{chaos['adaptive_sim_ms']:.2f}",
             chaos["replans"]],
        ],
    )
    print(f"degraded-node sim speedup: {chaos['sim_speedup']:.2f}x")


def write_results(summary: dict, path: str = RESULT_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_claims(summary: dict) -> None:
    stale = summary["stale"]
    assert stale["replans"] == 1, "stale shape should re-plan exactly once"
    assert stale["gap_closure"] >= 0.5, (
        f"adaptive closed only {stale['gap_closure']:.0%} of the static gap"
        " (claim: >= 50%)"
    )
    assert stale["well_estimated_replans"] == 0, (
        "well-estimated shape re-planned — checkpoints are trigger-happy"
    )
    chaos = summary["chaos"]
    assert chaos["replans"] == 1 and chaos["reasons"] == ["degraded-node"], (
        "degraded node did not trigger the penalty checkpoint"
    )
    assert chaos["sim_speedup"] > 1.0, (
        f"hash escape did not beat degraded probing ({chaos['sim_speedup']:.2f}x)"
    )


@pytest.mark.benchmark(group="adaptive")
def test_adaptive_report(benchmark):
    summary = once(benchmark, lambda: run_comparison(True))
    report(summary)
    write_results(summary)
    assert_claims(summary)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller corpus (the make-verify target)",
    )
    parser.add_argument(
        "--out", default=RESULT_PATH,
        help="where to write the JSON summary (default: BENCH_adaptive.json;"
             " the perf-regress gate points this at a scratch path)",
    )
    args = parser.parse_args()
    summary = run_comparison(quick=args.quick)
    report(summary)
    write_results(summary, args.out)
    assert_claims(summary)
    print("\nADAPTIVE smoke: OK (results in BENCH_adaptive.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
