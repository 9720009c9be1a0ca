"""CACHE — the appliance cache hierarchy on a repeated-query mixed workload.

Claims reproduced:
(1) with the cache hierarchy wired in (parse/plan cache, dependency-
    tracked result cache, index-probe memo — docs/CACHING.md), a
    repeated-query workload interleaved with writes runs at least 3× the
    uncached wall-clock throughput: the repeated-query pattern a BIMS
    observes is dominated by re-execution the result tier simply skips;
(2) the cached run returns byte-identical rows to the uncached run at
    every step — the speedup never costs an answer, because every write
    invalidates exactly the dependent entries before the next query.

Results land in ``BENCH_cache.json`` at the repo root.  Runs standalone:
``python benchmarks/bench_cache.py --quick`` is the cache smoke target
``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.storage.store import DocumentStore
from repro.workloads.relational import RelationalWorkload

from conftest import once, print_table

SEED = 11
N_ORDERS = 4_000
N_OPS = 150
WRITE_EVERY = 25  # one write per this many workload steps
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_cache.json")

#: The repeated-query pool: a mixed dashboard refreshing the same small
#: set of aggregates/filters over and over (skewed toward the first few).
QUERIES = (
    "SELECT region, count(*) AS n, sum(amount) AS total FROM orders GROUP BY region",
    "SELECT region, avg(amount) AS a FROM orders WHERE amount > 50 GROUP BY region",
    "SELECT status, count(*) AS n FROM orders GROUP BY status ORDER BY status",
    "SELECT oid, amount FROM orders WHERE region = 'east' ORDER BY amount LIMIT 20",
    "SELECT cid, sum(amount) AS spend FROM orders GROUP BY cid ORDER BY spend LIMIT 10",
    "SELECT oid, cid, amount FROM orders WHERE amount > 180 ORDER BY oid",
)


def build_store(n_orders: int) -> DocumentStore:
    store = DocumentStore(buffer_capacity=4096)
    workload = RelationalWorkload(n_customers=50, n_orders=n_orders, seed=SEED)
    for document in workload.orders():
        store.put(document)
    return store


def make_repo(store: DocumentStore) -> LocalRepository:
    repo = LocalRepository(store)
    repo.views.define(
        base_table_view(
            "orders", "orders", ["oid", "cid", "amount", "region", "status"]
        )
    )
    return repo


def schedule(n_ops: int, seed: int = SEED):
    """The mixed program: skewed repeated queries + periodic writes."""
    rng = random.Random(seed)
    steps = []
    next_oid = 10_000_000  # far above the preloaded id range
    for i in range(n_ops):
        if i and i % WRITE_EVERY == 0:
            steps.append(("write", next_oid, rng.choice(("east", "west")),
                          round(rng.uniform(1.0, 250.0), 2)))
            next_oid += 1
        else:
            # zipf-ish skew: first queries dominate, tail still appears
            qi = min(rng.randrange(len(QUERIES)), rng.randrange(len(QUERIES)))
            steps.append(("query", qi))
    return steps


def run_side(engine: QueryEngine, store: DocumentStore, steps) -> dict:
    """Execute the program; returns wall time + per-step row payloads."""
    answers = []
    start = time.perf_counter()
    for step in steps:
        if step[0] == "write":
            _, oid, region, amount = step
            store.put(from_relational_row(
                f"w{oid}", "orders",
                {"oid": oid, "cid": 1, "amount": amount,
                 "region": region, "status": "new"}))
        else:
            answers.append(engine.sql(QUERIES[step[1]]).rows)
    elapsed = time.perf_counter() - start
    return {"elapsed_s": elapsed, "answers": answers}


def run_comparison(n_orders: int = N_ORDERS, n_ops: int = N_OPS) -> dict:
    steps = schedule(n_ops)
    n_queries = sum(1 for s in steps if s[0] == "query")

    cached_store = build_store(n_orders)
    caches = CacheHierarchy(CacheConfig())
    caches.attach_to_bus(cached_store.feed)
    cached_engine = QueryEngine(make_repo(cached_store), cache=caches)
    cached = run_side(cached_engine, cached_store, steps)

    plain_store = build_store(n_orders)
    plain_engine = QueryEngine(make_repo(plain_store))
    plain = run_side(plain_engine, plain_store, steps)

    assert cached["answers"] == plain["answers"], (
        "cache changed an answer somewhere in the interleaving"
    )
    stats = caches.stats()
    return {
        "n_orders": n_orders,
        "n_ops": n_ops,
        "n_queries": n_queries,
        "n_writes": n_ops - n_queries,
        "cached": {
            "elapsed_s": cached["elapsed_s"],
            "queries_per_sec": n_queries / cached["elapsed_s"],
        },
        "uncached": {
            "elapsed_s": plain["elapsed_s"],
            "queries_per_sec": n_queries / plain["elapsed_s"],
        },
        "speedup": plain["elapsed_s"] / cached["elapsed_s"],
        "result_hits": stats["result"]["hits"],
        "result_invalidations": stats["result"]["invalidations"],
        "plan_parse_hits": stats["plan"]["parse_hits"],
    }


def report_rows(summary: dict) -> list:
    return [
        [
            "cached",
            f"{summary['cached']['queries_per_sec']:,.0f}",
            f"{summary['cached']['elapsed_s'] * 1e3:.1f}",
            summary["result_hits"],
        ],
        [
            "uncached",
            f"{summary['uncached']['queries_per_sec']:,.0f}",
            f"{summary['uncached']['elapsed_s'] * 1e3:.1f}",
            0,
        ],
    ]


def write_results(summary: dict, path: str = RESULT_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_claims(summary: dict, min_speedup: float = 3.0) -> None:
    assert summary["result_hits"] > 0, "workload never hit the result cache"
    assert summary["result_invalidations"] > 0, (
        "writes never invalidated — the dependency tracking is dead"
    )
    assert summary["speedup"] >= min_speedup, (
        f"cache hierarchy only {summary['speedup']:.2f}x over uncached"
        f" (claim: >= {min_speedup}x)"
    )


@pytest.mark.benchmark(group="cache")
def test_cache_speedup_report(benchmark):
    summary = once(benchmark, run_comparison)
    print_table(
        "CACHE: repeated-query mixed workload, %d rows / %d ops"
        % (summary["n_orders"], summary["n_ops"]),
        ["engine", "queries/sec", "wall ms", "result hits"],
        report_rows(summary),
    )
    print(f"speedup: {summary['speedup']:.2f}x")
    write_results(summary)
    assert_claims(summary)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller corpus / fewer ops (the make-verify target)",
    )
    parser.add_argument(
        "--out", default=RESULT_PATH,
        help="where to write the JSON summary (default: BENCH_cache.json;"
             " the perf-regress gate points this at a scratch path)",
    )
    args = parser.parse_args()
    n_orders = 1_200 if args.quick else N_ORDERS
    n_ops = 80 if args.quick else N_OPS

    summary = run_comparison(n_orders, n_ops)
    print_table(
        "CACHE: repeated-query mixed workload, %d rows / %d ops" % (n_orders, n_ops),
        ["engine", "queries/sec", "wall ms", "result hits"],
        report_rows(summary),
    )
    print(f"speedup: {summary['speedup']:.2f}x")
    write_results(summary, args.out)
    assert_claims(summary)
    print("\nCACHE smoke: OK (results in BENCH_cache.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
