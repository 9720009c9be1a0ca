"""MV — Sections 3.2/3.4 ablation: materialized (transformed) states.

Claim quantified: keeping query results as re-creatable derived state
makes repeated analytical reads cheap, with invalidation limited to
actual dependencies — and the derived state is BRONZE-class data the
storage manager replicates minimally because it can always be recomputed.
"""

from __future__ import annotations

import math

from repro.cache.bus import InvalidationBus
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.materialized import MaterializationManager
from repro.storage.store import DocumentStore
from repro.workloads.relational import RelationalWorkload

from conftest import once, print_table

SQL = "SELECT region, sum(amount) AS total, count(*) AS n FROM orders GROUP BY region"


def build(n_orders=1500):
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("orders", "orders",
                                      ["oid", "cid", "amount", "region", "status"]))
    repo.views.define(base_table_view("customers", "customers",
                                      ["cid", "name", "segment", "region"]))
    for doc in RelationalWorkload(n_customers=30, n_orders=n_orders, seed=7).documents():
        store.put(doc)
    engine = QueryEngine(repo)
    bus = InvalidationBus()
    bus.attach_store(store)
    manager = MaterializationManager(engine)
    manager.attach_to_bus(bus)
    return store, engine, manager


def test_mv_cached_read(benchmark):
    _, engine, manager = build()
    mv = manager.define("by_region", SQL)
    mv.rows()  # warm
    rows = benchmark(mv.rows)
    assert rows


def test_mv_direct_recompute(benchmark):
    _, engine, _ = build()
    result = benchmark(lambda: engine.sql(SQL))
    assert result.rows


def test_mv_mixed_workload_report(benchmark):
    """100 reads interleaved with writes at varying write rates."""

    def run():
        rows = []
        for writes_per_100_reads in (0, 5, 25):
            store, engine, manager = build(n_orders=800)
            mv = manager.define("by_region", SQL)
            refresh_before = mv.stats.refreshes
            write_budget = writes_per_100_reads
            interval = 100 // write_budget if write_budget else 0
            for read_no in range(100):
                mv.rows()
                if write_budget and read_no % interval == 0:
                    store.put(from_relational_row(
                        f"w-{writes_per_100_reads}-{read_no}", "orders",
                        {"oid": 10_000 + read_no, "cid": 1,
                         "amount": 1.0, "region": "east", "status": "open"},
                    ))
            rows.append([
                writes_per_100_reads,
                mv.stats.refreshes - refresh_before,
                mv.stats.cache_hits,
            ])
        return rows

    rows = once(benchmark, run)
    print_table(
        "MV: refreshes needed per 100 reads vs write rate",
        ["writes/100 reads", "refreshes", "cache hits"],
        rows,
    )
    by_rate = {r[0]: r for r in rows}
    assert by_rate[0][1] == 1           # read-only: one initial refresh
    assert by_rate[0][2] == 99
    # refresh count tracks the write rate, never exceeds it + 1
    for rate, refreshes, _ in rows:
        assert refreshes <= rate + 1
    # correctness: final cache equals direct recompute.  The view folds
    # each group in doc-id order and the engine in shard order, so float
    # totals agree to rounding, not bit for bit.
    store, engine, manager = build(n_orders=200)
    mv = manager.define("check", SQL)
    got = {r["region"]: r for r in mv.rows()}
    want = {r["region"]: r for r in engine.sql(SQL).rows}
    assert got.keys() == want.keys()
    for region, row in want.items():
        assert got[region]["n"] == row["n"]
        assert math.isclose(got[region]["total"], row["total"], rel_tol=1e-9, abs_tol=1e-6)
