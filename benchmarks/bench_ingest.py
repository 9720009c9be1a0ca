"""INGEST — the batched write path against the per-document seed path.

Claims reproduced:
(1) bulk ingest through the staged pipeline (``Impliance.ingest_many``:
    group-commit storage writes sharded per data node, one projection per
    document shared by every index consumer, one index-maintenance round
    and one coalesced cache-invalidation epoch per batch) sustains at
    least 3× the documents/sec of the seed per-document reactive path
    (route, put, re-walk the content tree in every index listener, bump
    the invalidation epoch — once per document);
(2) the speedup changes no answer: both appliances end with identical
    store contents (ids, versions, timestamps), identical SQL aggregates,
    and identical keyword results.

Results land in ``BENCH_ingest.json`` at the repo root.  Runs standalone:
``python benchmarks/bench_ingest.py --quick`` is the ingest smoke target
``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import List

import pytest

from repro.core import ApplianceConfig, Impliance
from repro.ingest import IngestConfig
from repro.model.document import Document
from repro.model.values import ValueType, classify_value, iter_paths
from repro.workloads.relational import RelationalWorkload

from conftest import once, print_table

SEED = 23
N_ORDERS = 4_000
REPS = 4  # best-of-N wall times: robust against scheduler noise
BULK_BATCH = 512
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_ingest.json")

CHECK_SQL = (
    "SELECT region, count(*) AS n, sum(amount) AS total "
    "FROM orders GROUP BY region ORDER BY region"
)


def build_corpus(n_orders: int) -> List[Document]:
    """A fresh, identically-seeded order corpus.

    Each side gets its own Document objects so the cached projection of
    one side never subsidizes the other.
    """
    workload = RelationalWorkload(n_customers=50, n_orders=n_orders, seed=SEED)
    return list(workload.orders())


def make_app(bulk: bool = False) -> Impliance:
    # Product-default telemetry stays on for both sides: the per-event
    # observability cost is part of what group commit amortizes.
    if bulk:
        return Impliance(ApplianceConfig(ingest=IngestConfig(batch_size=BULK_BATCH)))
    app = Impliance(ApplianceConfig())
    # The seed's index listeners indexed each document by itself, walking
    # it (``index_document``); the change feed hands even a single
    # document to ``index_batch``, which reads the cached projection.
    for manager in [app.indexes] + [node.indexes for node in app.cluster.data_nodes]:
        manager.index_batch = _document_at_a_time(manager)
    return app


def _document_at_a_time(manager):
    def index_batch(documents):
        for document in documents:
            manager.index_document(document)
        return len(documents)

    return index_batch


#: Index listeners that re-walked a document for its prose on the seed
#: path: the home node's index manager and the global catalog.
SEED_TEXT_WALKS = 2


def seed_text(content) -> str:
    """The seed ``Document.text``: a fresh walk of the content tree on
    every call, keeping each TEXT/STRING string leaf (the same walk as
    ``tests/oracle/text.py``)."""
    return "\n".join(
        value for _, value in iter_paths(content)
        if isinstance(value, str)
        and classify_value(value) in (ValueType.TEXT, ValueType.STRING)
    )


def seed_ingest(app: Impliance, document: Document) -> None:
    """The pre-pipeline per-document path: one routing round and one
    ``store.put`` per document, every maintenance stage fired from that
    commit (per-node indexes, global catalog, discovery, auto-views,
    cache invalidation — the indexes walking the document themselves,
    see :func:`make_app`).

    Stored documents now answer ``Document.text`` from their cached
    projection, so the seed's per-listener prose walks are made here."""
    home, _ = app.cluster.ingest(document)
    assert home.store is not None
    for _ in range(SEED_TEXT_WALKS):
        seed_text(document.content)


def fingerprint(app: Impliance) -> dict:
    docs = sorted(
        (d.doc_id, d.version, d.ingest_ts) for d in app.cluster.scan_all()
    )
    return {
        "docs": docs,
        "sql": app.sql(CHECK_SQL).rows,
        "search": [hit.doc_id for hit in app.search("pending", top_k=10)],
    }


def run_comparison(n_orders: int = N_ORDERS, reps: int = REPS) -> dict:
    seq_elapsed = bulk_elapsed = float("inf")
    seq_fp = bulk_fp = None
    for _ in range(reps):
        seq_app = make_app()
        seq_corpus = build_corpus(n_orders)
        start = time.perf_counter()
        for document in seq_corpus:
            seed_ingest(seq_app, document)
        seq_elapsed = min(seq_elapsed, time.perf_counter() - start)

        bulk_app = make_app(bulk=True)
        bulk_corpus = build_corpus(n_orders)
        start = time.perf_counter()
        stored = bulk_app.ingest_many(bulk_corpus)
        bulk_elapsed = min(bulk_elapsed, time.perf_counter() - start)

        assert len(stored) == n_orders
        if seq_fp is None:
            seq_fp, bulk_fp = fingerprint(seq_app), fingerprint(bulk_app)
            assert seq_fp == bulk_fp, "batched ingest changed an answer"

    return {
        "n_orders": n_orders,
        "reps": reps,
        "sequential": {
            "elapsed_s": seq_elapsed,
            "docs_per_sec": n_orders / seq_elapsed,
        },
        "batched": {
            "elapsed_s": bulk_elapsed,
            "docs_per_sec": n_orders / bulk_elapsed,
        },
        "speedup": seq_elapsed / bulk_elapsed,
        "batch_size": BULK_BATCH,
        "data_nodes": 4,
    }


def report_rows(summary: dict) -> list:
    return [
        [
            "batched",
            f"{summary['batched']['docs_per_sec']:,.0f}",
            f"{summary['batched']['elapsed_s'] * 1e3:.1f}",
        ],
        [
            "per-document",
            f"{summary['sequential']['docs_per_sec']:,.0f}",
            f"{summary['sequential']['elapsed_s'] * 1e3:.1f}",
        ],
    ]


def write_results(summary: dict, path: str = RESULT_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_claims(summary: dict, min_speedup: float = 3.0) -> None:
    assert summary["speedup"] >= min_speedup, (
        f"batched ingest only {summary['speedup']:.2f}x over per-document"
        f" (claim: >= {min_speedup}x)"
    )


@pytest.mark.benchmark(group="ingest")
def test_ingest_speedup_report(benchmark):
    summary = once(benchmark, run_comparison)
    print_table(
        "INGEST: bulk load, %d order documents" % summary["n_orders"],
        ["path", "docs/sec", "wall ms"],
        report_rows(summary),
    )
    print(f"speedup: {summary['speedup']:.2f}x")
    write_results(summary)
    assert_claims(summary)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller corpus (the make-verify target)",
    )
    args = parser.parse_args()
    n_orders = 2_000 if args.quick else N_ORDERS

    summary = run_comparison(n_orders)
    print_table(
        "INGEST: bulk load, %d order documents" % n_orders,
        ["path", "docs/sec", "wall ms"],
        report_rows(summary),
    )
    print(f"speedup: {summary['speedup']:.2f}x")
    write_results(summary)
    assert_claims(summary)
    print("\nINGEST smoke: OK (results in BENCH_ingest.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
