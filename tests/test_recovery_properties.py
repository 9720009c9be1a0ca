"""Property tests for the recovery tentpole and the as-of bisect fix.

1. ``VersionChain.as_of`` bisects — the property pins its equivalence to
   the linear scan it replaced, over random monotone chains and random
   probe timestamps (ties included).
2. Failover fidelity under chaos interleavings: random workloads (puts,
   updates, deletes) interleaved with standby-link partitions and a
   crash; after the promote, and again after ``Impliance.restore``
   readmits the node, every chain the victim held serves from exactly
   one live node and carries the victim's crash-time records as an
   exact prefix, and no committed document is lost (RPO = 0).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.model.document import Document
from repro.storage.recovery import RecoveryConfig
from repro.storage.versions import VersionChain

pytestmark = pytest.mark.recovery


# ======================================================================
# as_of: bisect ≡ linear scan
# ======================================================================
def linear_as_of(chain: VersionChain, ts: int):
    """The O(n) reference implementation the bisect replaced."""
    hit = None
    for document in chain:
        if document.ingest_ts <= ts:
            hit = document
        else:
            break
    return hit


@st.composite
def monotone_chains(draw):
    """A chain of 1..20 versions with monotone (tie-friendly) stamps."""
    deltas = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20)
    )
    chain = VersionChain("p")
    ts = draw(st.integers(min_value=0, max_value=50))
    for i, delta in enumerate(deltas):
        ts += delta
        chain.append(
            Document(doc_id="p", content={"i": i}, version=i + 1, ingest_ts=ts)
        )
    return chain


class TestAsOfEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(chain=monotone_chains(), probe=st.integers(min_value=-5, max_value=200))
    def test_bisect_matches_linear_scan(self, chain, probe):
        assert chain.as_of(probe) is linear_as_of(chain, probe)

    @settings(max_examples=50, deadline=None)
    @given(chain=monotone_chains())
    def test_every_version_timestamp_probes_back(self, chain):
        # Probing at each version's own stamp returns the last version
        # carrying that stamp (tie resolution matches the linear scan).
        for document in chain:
            assert chain.as_of(document.ingest_ts) is linear_as_of(
                chain, document.ingest_ts
            )


# ======================================================================
# restore fidelity under chaos interleavings
# ======================================================================
VICTIM = "data-1"

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "update", "delete", "partition", "heal"]),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=4,
    max_size=24,
)


def apply_ops(app: Impliance, ops, standby_host: str, created: set) -> None:
    """Drive a random workload; mutations only touch known doc ids."""
    for op, i in ops:
        doc_id = f"pp-{i}"
        if op == "put":
            if doc_id in created:
                continue  # chains are append-only; re-put is an update
            created.add(doc_id)
            app.ingest(f"property doc {i} payload", "text", doc_id=doc_id)
        elif op == "update":
            if app.lookup(doc_id) is not None:
                try:
                    app.update_document(doc_id, {"body": f"updated {i}"})
                except LookupError:
                    # The consistency group may refuse the update while
                    # the holder is unreachable across the partition —
                    # a legitimate outcome, not a recovery failure.
                    pass
        elif op == "delete":
            if app.lookup(doc_id) is not None:
                app.delete_document(doc_id)
        elif op == "partition":
            if not app.cluster.network.is_partitioned(VICTIM, standby_host):
                app.cluster.network.partition(VICTIM, standby_host)
        elif op == "heal":
            app.cluster.network.heal(VICTIM, standby_host)


def serving_chain(app: Impliance, doc_id: str) -> VersionChain:
    """*doc_id*'s one serving chain, wherever it lives (exactly one live
    data node may hold it)."""
    stores = [n.store for n in app.cluster.data_nodes if n.store.contains(doc_id)]
    assert len(stores) == 1, f"{doc_id} has {len(stores)} holders"
    return stores[0].history(doc_id)


class TestRestoreFidelityProperty:
    @settings(max_examples=10, deadline=None)
    @given(ops=op_strategy, post_ops=op_strategy)
    def test_restore_prefix_matches_crash_state(self, ops, post_ops):
        app = Impliance(
            ApplianceConfig(
                n_data_nodes=4,
                n_grid_nodes=1,
                n_cluster_nodes=1,
                recovery=RecoveryConfig(snapshot_every=4),
            )
        )
        standby_host = app.recovery.standby(VICTIM).standby_id
        created: set = set()

        apply_ops(app, ops, standby_host, created)
        app.cluster.network.heal(VICTIM, standby_host)

        victim_store = app.cluster.node(VICTIM).store
        oracle = {
            doc_id: victim_store.history(doc_id).records()
            for doc_id in victim_store.doc_ids()
        }
        live_before = {
            doc_id
            for doc_id in (f"pp-{i}" for i in range(12))
            if app.lookup(doc_id) is not None
        }

        # The promote serves the crash-time chains unchanged...
        app.fail_node(VICTIM)
        for doc_id, records in oracle.items():
            assert serving_chain(app, doc_id).records() == records, doc_id

        # ...and after more work and a readmission they are still an
        # exact prefix: nothing committed was rewound or rewritten.
        apply_ops(app, post_ops, standby_host, created)
        app.cluster.network.heal(VICTIM, standby_host)
        app.restore(VICTIM)
        for doc_id, records in oracle.items():
            rebuilt = serving_chain(app, doc_id).records()
            assert rebuilt[: len(records)] == records, doc_id
        for doc_id in created:
            serving_chain(app, doc_id)

        # RPO = 0: every document live before the crash still answers
        # (unless a post-crash op deleted it, leaving a tombstone).
        for doc_id in live_before:
            if app.lookup(doc_id) is None:
                assert serving_chain(app, doc_id).head.is_tombstone, (
                    f"{doc_id} vanished without a tombstone"
                )
