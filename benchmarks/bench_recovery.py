"""RECOVERY — RPO/RTO of failover under a mid-ingest crash.

Claims reproduced:
(1) **RPO = 0** — a data node killed in the middle of a streaming ingest
    loses no committed document: ``Impliance.fail_node`` promotes its
    standby log (snapshot + log replay) onto the survivors, so every
    document the ingest report counted as stored answers a lookup, and
    the chain serving each of the victim's documents carries its
    pre-crash version records as an exact prefix — still after
    ``Impliance.restore`` readmits the node with an empty store;
(2) **RTO is finite** — the simulated time the promote adds to the
    crash (standby-to-survivor transfer + replay CPU: the makespan just
    after the crash event minus the makespan just before it) is a
    measurable, positive span;
(3) **one holder per chain** — no document is held by two live data
    nodes after the promote and the readmission (``duplicate_chains``).

Results land in ``BENCH_recovery.json``.  Runs standalone too:
``python benchmarks/bench_recovery.py --quick`` is the recovery smoke
target ``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from repro.chaos import FaultEvent, FaultKind, FaultPlan
from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.ingest.config import IngestConfig
from repro.model.converters import from_text
from repro.storage.recovery import RecoveryConfig

from conftest import once, print_table

SEED = 2026
N_DOCS = 96
VICTIM = "data-1"
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_recovery.json")


def build_app() -> Impliance:
    return Impliance(
        ApplianceConfig(
            n_data_nodes=4,
            n_grid_nodes=2,
            n_cluster_nodes=1,
            # Small group commits so the kill lands between many commits,
            # and a short snapshot cadence so replay is snapshot + tail.
            ingest=IngestConfig(batch_size=8, queue_capacity=64),
            recovery=RecoveryConfig(snapshot_every=4),
        )
    )


def run_kill_restore(seed: int, n_docs: int = N_DOCS, kill_at: float = 0.5) -> dict:
    """One campaign: stream n_docs, crash VICTIM mid-stream, readmit it.

    The payload generator advances the chaos controller one sim-ms per
    document, so the crash fires *between* group commits while the
    stream is still producing — the worst case for replication lag.
    """
    app = build_app()
    kill_ms = float(int(n_docs * kill_at))
    plan = FaultPlan(
        [FaultEvent(kill_ms, FaultKind.CRASH, VICTIM)], seed=seed
    )
    controller = app.chaos(plan)
    victim_store = app.cluster.node(VICTIM).store

    crash_state = {}

    def payloads():
        for i in range(n_docs):
            if i < kill_ms or crash_state:
                controller.advance_to(float(i))
            else:
                # The crash lands now: remember the victim's committed
                # chains (the prefix the serving chains must reproduce),
                # time the promote on the sim clock, and count what it
                # failed to serve (RPO at the promote).
                oracle = {
                    doc_id: victim_store.history(doc_id).records()
                    for doc_id in victim_store.doc_ids()
                }
                before = app.cluster.makespan()
                assert controller.advance_to(float(i)), "crash did not fire"
                crash_state.update(
                    oracle=oracle,
                    kill_makespan=before,
                    rto_ms=app.cluster.makespan() - before,
                    lost_at_promote=sum(
                        1 for doc_id in oracle if app.lookup(doc_id) is None
                    ),
                )
            yield from_text(
                f"rd-{i}",
                f"recovery corpus document {i} mentions turbine",
                f"rd-{i}",
            )

    report = app.ingest_stream(payloads(), "document")
    assert "rto_ms" in crash_state, "crash never fired mid-stream"
    controller.settle()

    restore = app.restore(VICTIM)

    def holders(doc_id):
        return [n.store for n in app.cluster.data_nodes if n.store.contains(doc_id)]

    # RPO: after the readmission every committed document still answers...
    lost = sum(1 for i in range(n_docs) if app.lookup(f"rd-{i}") is None)
    # ...from exactly one live node...
    duplicates = sum(1 for i in range(n_docs) if len(holders(f"rd-{i}")) > 1)
    # ...and the victim's pre-crash records are an exact prefix of the
    # chains now serving them (no committed version rewound or rewritten).
    prefix_breaks = 0
    for doc_id, records in crash_state["oracle"].items():
        stores = holders(doc_id)
        served = stores[0].history(doc_id).records() if stores else []
        if served[: len(records)] != records:
            prefix_breaks += 1

    final = app.search("turbine")
    recovery_stats = app.stats()["recovery"]
    return {
        "seed": seed,
        "n_docs": n_docs,
        "offered": report.offered,
        "stored": report.stored,
        "shed": report.shed,
        "kill_ms": kill_ms,
        "kill_makespan": round(crash_state["kill_makespan"], 3),
        "lost_at_promote": crash_state["lost_at_promote"],
        "lost_documents": lost,
        "duplicate_chains": duplicates,
        "oracle_chains": len(crash_state["oracle"]),
        "prefix_breaks": prefix_breaks,
        "versions_replayed": recovery_stats["replayed_versions"],
        "repairs": restore.repairs,
        "rto_ms": round(crash_state["rto_ms"], 3),
        "final_degraded": final.degraded,
        "missing_segments": sum(
            len(m.data_loss_risk()) for m in app._storage_managers
        ),
        "replicator": {
            "shipments": recovery_stats["shipments"],
            "snapshots": recovery_stats["snapshots"],
            "replays": recovery_stats["replays"],
            "pending": recovery_stats["pending"],
        },
    }


def assert_claims(result: dict) -> None:
    assert result["shed"] == 0, "block admission must not shed"
    assert result["stored"] == result["offered"], "stream lost documents at ingest"
    assert result["lost_at_promote"] == 0, (
        "RPO violated: %d committed documents unanswerable after the promote"
        % result["lost_at_promote"]
    )
    assert result["lost_documents"] == 0, (
        "RPO violated: %d committed documents unanswerable" % result["lost_documents"]
    )
    assert result["prefix_breaks"] == 0, "serving chains diverge from the oracle"
    assert result["duplicate_chains"] == 0, "a document is held by two live nodes"
    assert result["rto_ms"] > 0.0, "RTO must be a positive simulated span"
    assert result["rto_ms"] < float("inf")
    assert not result["final_degraded"], "queries still degraded after readmission"
    assert result["missing_segments"] == 0, "segments unavailable after restore"
    assert result["replicator"]["pending"] == 0, "shipments still buffered"


def report_rows(results: list) -> list:
    return [
        [
            r["n_docs"], f"{r['kill_ms']:.0f}", r["stored"],
            r["lost_documents"], r["oracle_chains"], r["versions_replayed"],
            r["duplicate_chains"], f"{r['rto_ms']:.3f}",
        ]
        for r in results
    ]


HEADER = ["docs", "kill@ms", "stored", "lost (RPO)", "chains moved",
          "replayed", "duplicates", "RTO ms"]


def run_suite(n_docs: int = N_DOCS) -> list:
    return [
        run_kill_restore(SEED, n_docs=n_docs, kill_at=frac)
        for frac in (0.35, 0.65)
    ]


@pytest.mark.recovery
def test_recovery_rpo_zero_rto_finite(benchmark):
    results = once(benchmark, run_suite)
    print_table(
        "RECOVERY: mid-ingest crash of %s (seed %d)" % (VICTIM, SEED),
        HEADER, report_rows(results),
    )
    for result in results:
        assert_claims(result)


@pytest.mark.recovery
def test_recovery_replay_is_deterministic(benchmark):
    def run_twice():
        return run_kill_restore(SEED, 48), run_kill_restore(SEED, 48)

    first, second = once(benchmark, run_twice)
    assert first == second, "same seed must reproduce the same failover"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller stream (the make-verify recovery smoke target)",
    )
    args = parser.parse_args()
    n_docs = 48 if args.quick else N_DOCS

    results = run_suite(n_docs=n_docs)
    print_table(
        "RECOVERY: mid-ingest crash of %s (seed %d)" % (VICTIM, SEED),
        HEADER, report_rows(results),
    )
    for result in results:
        assert_claims(result)

    summary = {
        "seed": SEED,
        "victim": VICTIM,
        "quick": bool(args.quick),
        "runs": results,
        "rpo_documents": max(
            max(r["lost_at_promote"], r["lost_documents"]) for r in results
        ),
        "rto_ms_max": max(r["rto_ms"] for r in results),
    }
    with open(RESULT_PATH, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"\nwrote {os.path.normpath(RESULT_PATH)}")
    print("RECOVERY smoke: RPO=0, RTO=%.3fms  OK" % summary["rto_ms_max"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
