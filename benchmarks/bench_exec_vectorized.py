"""EXEC — the native columnar scan vs the document-transpose scan.

Claim reproduced: the native columnar scan (docs/STORAGE.md) sustains at
least 3× the rows/sec of the transpose scan on scan-heavy shapes —
batches come straight off compressed column pages instead of being
transposed out of per-document trees — with identical rows and identical
simulated cost.  Both sides are live in ``QueryEngine._view_batches``:
repositories without column pages (snapshots, non-columnar views) still
take the transpose path.

(The vectorized-vs-row-engine claims this file used to carry went with
the row engine; compiled pipelines are the only execution path and are
checked against ``tests/oracle/row_engine.py`` for equality, not speed.)

Results land in ``BENCH_exec.json`` at the repo root so the performance
trajectory is tracked across revisions.  Runs standalone too:
``python benchmarks/bench_exec_vectorized.py --quick`` is the
``exec-smoke`` target ``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import pytest

from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.storage.store import DocumentStore
from repro.workloads.relational import RelationalWorkload

from conftest import once, print_table

SEED = 23
N_ORDERS = 20_000
#: Scan-heavy shape: projection + cheap aggregate, no filter — wall clock
#: is dominated by how rows get from pages into batches.
SCAN_QUERY = "SELECT region, count(*) AS n FROM orders GROUP BY region"
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_exec.json")


class TransposeRepository:
    """A repository without the native columnar scan.

    Hiding ``view_column_batches`` forces the engine onto the
    document-transpose path, which is what every scan paid before the
    native column pages existed — the baseline of the claim.
    """

    def __init__(self, inner: LocalRepository) -> None:
        self._inner = inner
        self.views = inner.views
        self.indexes = inner.indexes

    def documents(self):
        return self._inner.documents()

    def document_batches(self, batch_size):
        return self._inner.document_batches(batch_size)

    def lookup(self, doc_id):
        return self._inner.lookup(doc_id)


def build_repo(n_orders: int = N_ORDERS) -> LocalRepository:
    repo = LocalRepository(DocumentStore(buffer_capacity=4096))
    repo.views.define(
        base_table_view(
            "orders", "orders", ["oid", "cid", "amount", "region", "status"]
        )
    )
    workload = RelationalWorkload(n_customers=50, n_orders=n_orders, seed=SEED)
    for document in workload.orders():
        repo.store.put(document)
    return repo


def _time_engine(engine: QueryEngine, n_rows: int, repeats: int) -> dict:
    """Best-of-*repeats* wall clock for the scan query; timing + the rows."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = engine.sql(SCAN_QUERY)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {
        "elapsed_s": best,
        "rows_per_sec": n_rows / best,
        "sim_ms": result.sim_ms,
        "rows": result.rows,
    }


def run_comparison(n_orders: int = N_ORDERS, repeats: int = 3) -> dict:
    """Native columnar scan vs the transpose scan, same engine."""
    repo = build_repo(n_orders)
    native = _time_engine(QueryEngine(repo), n_orders, repeats)
    transpose = _time_engine(QueryEngine(TransposeRepository(repo)), n_orders, repeats)
    assert native["rows"] == transpose["rows"], "scan paths disagree on rows"
    assert native["sim_ms"] == pytest.approx(transpose["sim_ms"]), (
        "scan paths disagree on simulated cost"
    )
    return {
        "n_orders": n_orders,
        "columnar": {
            "query": SCAN_QUERY,
            "native": {k: v for k, v in native.items() if k != "rows"},
            "transpose": {k: v for k, v in transpose.items() if k != "rows"},
            "speedup": native["rows_per_sec"] / transpose["rows_per_sec"],
            "groups": len(native["rows"]),
        },
    }


def columnar_report_rows(columnar: dict) -> list:
    return [
        [
            "native column pages",
            f"{columnar['native']['rows_per_sec']:,.0f}",
            f"{columnar['native']['elapsed_s'] * 1e3:.1f}",
            f"{columnar['native']['sim_ms']:.2f}",
        ],
        [
            "document transpose",
            f"{columnar['transpose']['rows_per_sec']:,.0f}",
            f"{columnar['transpose']['elapsed_s'] * 1e3:.1f}",
            f"{columnar['transpose']['sim_ms']:.2f}",
        ],
    ]


def print_report(summary: dict, n_orders: int) -> None:
    print_table(
        "EXEC: scan-heavy shape, native columnar vs transpose, %d rows" % n_orders,
        ["scan path", "rows/sec", "wall ms", "sim ms"],
        columnar_report_rows(summary["columnar"]),
    )
    print(f"columnar scan speedup: {summary['columnar']['speedup']:.2f}x")


def write_results(summary: dict, path: str = RESULT_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_claims(summary: dict, min_columnar_speedup: float = 3.0) -> None:
    columnar = summary["columnar"]
    assert columnar["groups"] > 0, "scan query produced no groups"
    assert columnar["speedup"] >= min_columnar_speedup, (
        f"native columnar scan only {columnar['speedup']:.2f}x over the"
        f" transpose scan (claim: >= {min_columnar_speedup}x)"
    )


@pytest.mark.benchmark(group="exec")
def test_columnar_scan_speedup_report(benchmark):
    summary = once(benchmark, run_comparison)
    print_report(summary, summary["n_orders"])
    write_results(summary)
    assert_claims(summary)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller corpus / fewer repeats (the make-verify target)",
    )
    parser.add_argument(
        "--out", default=RESULT_PATH,
        help="where to write the JSON summary (default: BENCH_exec.json;"
             " the perf-regress gate points this at a scratch path)",
    )
    args = parser.parse_args()
    n_orders = 6_000 if args.quick else N_ORDERS
    repeats = 2 if args.quick else 3

    summary = run_comparison(n_orders, repeats)
    print_report(summary, n_orders)
    write_results(summary, args.out)
    assert_claims(summary)
    print("\nEXEC columnar-scan smoke: OK (results in BENCH_exec.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
