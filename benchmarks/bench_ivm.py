"""IVM — materialized-view freshness under a write-heavy workload.

Claims reproduced:
(1) with delta-carrying invalidation (docs/VIEWS.md), keeping a
    materialized aggregate *fresh* across a high write:read workload —
    read the view after every small write batch — runs several times
    faster than re-running its SQL through the engine per read: each
    batch folds in O(changed documents) instead of rescanning the corpus,
    and recompute cost is what dominates a BIMS dashboard that must stay
    current;
(2) the incrementally maintained rows are identical to the engine's
    rows after every batch — the freshness never costs an answer.
    (Amounts are integer-valued so float aggregation is exact under any
    summation order.)

Results land in ``BENCH_ivm.json`` at the repo root.  Runs standalone:
``python benchmarks/bench_ivm.py --quick`` is the ivm smoke target
``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

import pytest

from repro.cache.bus import InvalidationBus
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.materialized import MaterializationManager
from repro.storage.store import DocumentStore

from conftest import once, print_table

SEED = 19
N_ORDERS = 4_000
N_BATCHES = 120
WRITES_PER_BATCH = 4  # write:read ratio 4:1 — every read follows a batch
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_ivm.json")

#: The per-customer spend dashboard: a high-cardinality aggregate whose
#: refresh scans everything but whose per-batch change touches a handful
#: of groups.
MV_SQL = (
    "SELECT cid, count(*) AS n, sum(amount) AS total"
    " FROM orders GROUP BY cid ORDER BY cid"
)
N_CUSTOMERS = 200


def build_side(n_orders: int):
    store = DocumentStore(buffer_capacity=4096)
    rng = random.Random(SEED)
    for i in range(n_orders):
        store.put(from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "cid": rng.randrange(N_CUSTOMERS),
             "amount": float(rng.randrange(1, 500))},
        ))
    repo = LocalRepository(store)
    repo.views.define(base_table_view("orders", "orders", ["oid", "cid", "amount"]))
    bus = InvalidationBus()
    bus.attach_store(store)
    return store, bus, QueryEngine(repo)


def schedule(n_batches: int):
    rng = random.Random(SEED + 1)
    next_oid = 10_000_000
    batches = []
    for _ in range(n_batches):
        batch = []
        for _ in range(WRITES_PER_BATCH):
            batch.append((next_oid, rng.randrange(N_CUSTOMERS),
                          float(rng.randrange(1, 500))))
            next_oid += 1
        batches.append(batch)
    return batches


def run_side(n_orders: int, batches, incremental: bool) -> dict:
    """Read the materialized view after every batch or, on the baseline
    side, re-run its SQL through the engine."""
    store, bus, engine = build_side(n_orders)
    if incremental:
        manager = MaterializationManager(engine)
        manager.attach_to_bus(bus)
        mv = manager.define("by_region", MV_SQL)
        mv.rows()  # initial build outside the measured window
        read = mv.rows
    else:
        def read():
            return list(engine.sql(MV_SQL).rows)
    answers = []
    start = time.perf_counter()
    for batch in batches:
        with bus.coalescing():  # one group commit per batch, like ingest
            for oid, cid, amount in batch:
                store.put(from_relational_row(
                    f"w{oid}", "orders",
                    {"oid": oid, "cid": cid, "amount": amount}))
        answers.append(read())  # freshness read after every batch
    elapsed = time.perf_counter() - start
    side = {"elapsed_s": elapsed, "answers": answers}
    if incremental:
        side.update(
            refreshes=mv.stats.refreshes - 1,  # not counting the initial build
            deltas_applied=mv.stats.deltas_applied,
            incremental_serves=mv.stats.incremental_serves,
            fallbacks=mv.stats.fallbacks,
        )
    return side


def run_comparison(n_orders: int = N_ORDERS, n_batches: int = N_BATCHES) -> dict:
    batches = schedule(n_batches)
    incremental = run_side(n_orders, batches, incremental=True)
    baseline = run_side(n_orders, batches, incremental=False)
    assert incremental["answers"] == baseline["answers"], (
        "incremental maintenance changed an answer somewhere in the run"
    )
    reads = len(batches)
    return {
        "n_orders": n_orders,
        "n_batches": n_batches,
        "writes_per_batch": WRITES_PER_BATCH,
        "n_writes": reads * WRITES_PER_BATCH,
        "n_reads": reads,
        "incremental": {
            "elapsed_s": incremental["elapsed_s"],
            "reads_per_sec": reads / incremental["elapsed_s"],
            "refreshes": incremental["refreshes"],
            "deltas_applied": incremental["deltas_applied"],
            "incremental_serves": incremental["incremental_serves"],
            "fallbacks": incremental["fallbacks"],
        },
        "refresh_only": {
            "elapsed_s": baseline["elapsed_s"],
            "reads_per_sec": reads / baseline["elapsed_s"],
            "refreshes": reads,  # one engine run per read
        },
        "speedup": baseline["elapsed_s"] / incremental["elapsed_s"],
    }


def report_rows(summary: dict) -> list:
    return [
        [
            "incremental",
            f"{summary['incremental']['reads_per_sec']:,.0f}",
            f"{summary['incremental']['elapsed_s'] * 1e3:.1f}",
            summary["incremental"]["refreshes"],
            summary["incremental"]["deltas_applied"],
        ],
        [
            "refresh-only",
            f"{summary['refresh_only']['reads_per_sec']:,.0f}",
            f"{summary['refresh_only']['elapsed_s'] * 1e3:.1f}",
            summary["refresh_only"]["refreshes"],
            0,
        ],
    ]


def write_results(summary: dict, path: str = RESULT_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The floor was 5x when full refreshes re-transposed row-stored
# documents on every rebuild; the native columnar scan (docs/STORAGE.md)
# made the refresh-only *baseline* several times faster, so the same
# unchanged incremental path now clears ~3-5x.  The claim is still that
# O(delta) maintenance beats rebuild-per-read by a wide margin.
def assert_claims(summary: dict, min_speedup: float = 3.0) -> None:
    assert summary["incremental"]["deltas_applied"] > 0, (
        "the incremental side never applied a delta"
    )
    assert summary["incremental"]["refreshes"] == 0, (
        "the incremental side fell back to a full refresh mid-run"
    )
    assert summary["speedup"] >= min_speedup, (
        f"incremental maintenance only {summary['speedup']:.2f}x over"
        f" refresh-only (claim: >= {min_speedup}x)"
    )


@pytest.mark.benchmark(group="ivm")
def test_ivm_freshness_report(benchmark):
    summary = once(benchmark, run_comparison)
    print_table(
        "IVM: MV freshness at %d:1 write:read over %d rows"
        % (summary["writes_per_batch"], summary["n_orders"]),
        ["strategy", "fresh reads/sec", "wall ms", "full refreshes", "deltas"],
        report_rows(summary),
    )
    print(f"speedup: {summary['speedup']:.2f}x")
    write_results(summary)
    assert_claims(summary)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller corpus / fewer batches (the make-verify target)",
    )
    args = parser.parse_args()
    n_orders = 2_000 if args.quick else N_ORDERS
    n_batches = 40 if args.quick else N_BATCHES
    summary = run_comparison(n_orders, n_batches)
    print_table(
        "IVM: MV freshness at %d:1 write:read over %d rows"
        % (summary["writes_per_batch"], summary["n_orders"]),
        ["strategy", "fresh reads/sec", "wall ms", "full refreshes", "deltas"],
        report_rows(summary),
    )
    print(f"speedup: {summary['speedup']:.2f}x")
    write_results(summary)
    assert_claims(summary)
    print(f"results written to {os.path.abspath(RESULT_PATH)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
