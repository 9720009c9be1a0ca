"""Differential property harness for incremental view maintenance.

The claim under test (the tentpole's correctness story): under
*arbitrary* interleavings of puts, batched puts, versioned updates,
deletes, and chaos corrupt/heal events, every incrementally maintained
materialized view is **byte-identical** to a from-scratch recompute at
every checkpointed epoch — and replaying a subscription's delivered
deltas from empty reconstructs the current result exactly.

The oracle is deliberately independent of the maintained state: a fresh
``MaterializedQuery`` built at checkpoint time (full rebuild, no deltas
ever applied), plus a multiset comparison against ``engine.sql`` to make
sure the canonical evaluation itself is not consistently wrong.  Amounts
are integers so float aggregation is exact regardless of order, keeping
the engine comparison meaningful.
"""

import json
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.converters import from_relational_row, from_text
from repro.model.views import base_table_view
from repro.query.continuous import SubscriptionManager, _row_key
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.materialized import MaterializationManager, MaterializedQuery
from repro.storage.store import DocumentStore

pytestmark = [pytest.mark.ivm, pytest.mark.chaos]

AGG_SQL = "SELECT region, count(*) AS n, sum(amount) AS total FROM orders GROUP BY region"
FILTER_SQL = "SELECT oid, amount FROM orders WHERE amount > 50"
SORTED_SQL = (
    "SELECT region, sum(amount) AS total FROM orders GROUP BY region ORDER BY total DESC"
)
JOIN_SQL = "SELECT * FROM orders JOIN customers ON orders.cid = customers.cid"
MAINTAINED = {"agg": AGG_SQL, "filtered": FILTER_SQL, "sorted": SORTED_SQL}
SEARCH_QUERY = "alert"


def order_doc(i, cid, region, amount):
    return from_relational_row(
        f"o{i}", "orders",
        {"oid": i, "cid": cid, "region": region, "amount": float(amount)},
    )


class Harness:
    """One appliance-shaped world: store + bus + MVs + subscriptions."""

    def __init__(self):
        self.store = DocumentStore()
        self.repo = LocalRepository(self.store)
        self.repo.views.define(
            base_table_view("orders", "orders", ["oid", "cid", "region", "amount"])
        )
        self.repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
        self.bus = self.store.feed
        self.engine = QueryEngine(self.repo)
        self.manager = MaterializationManager(self.engine)
        self.manager.attach_to_bus(self.bus)
        for name, sql in MAINTAINED.items():
            self.manager.define(name, sql)
        self.joined = self.manager.define("joined", JOIN_SQL)
        # customers for the join side
        for cid in range(3):
            self.store.put(from_relational_row(
                f"c{cid}", "customers", {"cid": cid, "name": f"name{cid}"}))
        # standing queries: one SQL, one keyword search
        self.subman = SubscriptionManager(SimpleNamespace(
            engine=self.engine, serving=None, indexes=self.repo.indexes,
            telemetry=None,
        ))
        self.subman.attach_to_bus(self.bus)
        self.sql_deltas = []
        self.sql_sub = self.subman.subscribe(AGG_SQL, on_delta=self.sql_deltas.append)
        self.search_deltas = []
        self.search_sub = self.subman.subscribe(
            SEARCH_QUERY, on_delta=self.search_deltas.append)

    # -- operations ----------------------------------------------------
    def put(self, i, cid, region, amount):
        fresh = order_doc(i, cid, region, amount)
        if self.store.contains(fresh.doc_id):
            head = self.store.versions.head(fresh.doc_id)
            self.store.put(head.new_version(fresh.content, fresh.metadata))
        else:
            self.store.put(fresh)

    def put_many(self, rows):
        with self.bus.coalescing():
            for i, cid, region, amount in rows:
                self.put(i, cid, region, amount)

    def delete(self, i):
        if self.store.contains(f"o{i}"):
            self.store.delete(f"o{i}")

    def put_text(self, i, matches):
        text = "an alert fired overnight" if matches else "a quiet uneventful shift"
        doc_id = f"t{i}"
        if self.store.contains(doc_id):
            head = self.store.versions.head(doc_id)
            fresh = from_text(doc_id, text)
            self.store.put(head.new_version(fresh.content, fresh.metadata))
        else:
            self.store.put(from_text(doc_id, text))

    def delete_text(self, i):
        if self.store.contains(f"t{i}"):
            self.store.delete(f"t{i}")

    def chaos(self, kind):
        self.bus.publish_node_event("n0", kind)

    # -- the differential checks ---------------------------------------
    def check(self):
        for name, sql in MAINTAINED.items():
            mv = self.manager.get(name)
            maintained = mv.rows()
            oracle = MaterializedQuery(f"oracle_{name}", sql, self.engine)
            scratch = oracle.refresh()
            assert json.dumps(maintained, sort_keys=True) == json.dumps(
                scratch, sort_keys=True
            ), f"{name}: incremental result diverged from from-scratch rebuild"
            engine_rows = list(self.engine.sql(sql).rows)
            assert Counter(map(_row_key, maintained)) == Counter(
                map(_row_key, engine_rows)
            ), f"{name}: maintained result disagrees with the engine"
        # the join MV is non-maintainable: fallback must stay correct
        joined = self.joined.rows()
        assert Counter(map(_row_key, joined)) == Counter(
            map(_row_key, self.engine.sql(JOIN_SQL).rows)
        ), "joined: fallback result disagrees with the engine"
        self.check_replay()

    def check_replay(self):
        # SQL subscription: replay every delivered delta from empty —
        # the multiset must equal the current result
        replayed = Counter()
        for delta in self.sql_deltas:
            for row in delta.added:
                replayed[_row_key(row)] += 1
            for row in delta.removed:
                replayed[_row_key(row)] -= 1
        replayed = +replayed  # drop zero entries
        current = Counter(map(_row_key, self.manager.get("agg").rows()))
        assert replayed == current, "subscription deltas do not replay to the result"
        # search subscription: replayed id set == live matching documents
        ids = set()
        for delta in self.search_deltas:
            ids |= set(delta.added)
            ids -= set(delta.removed)
        expected = {
            d.doc_id
            for d in self.store.scan(latest_only=True)
            if d.doc_id.startswith("t") and "alert" in d.text
        }
        assert ids == expected, "search deltas do not replay to the match set"


# ----------------------------------------------------------------------
# operation strategies
# ----------------------------------------------------------------------
ids = st.integers(min_value=0, max_value=11)
cids = st.integers(min_value=0, max_value=2)
regions = st.sampled_from(["east", "west", "north"])
amounts = st.integers(min_value=0, max_value=200)
row = st.tuples(ids, cids, regions, amounts)

operation = st.one_of(
    st.tuples(st.just("put"), row),
    st.tuples(st.just("put_many"), st.lists(row, min_size=1, max_size=4)),
    st.tuples(st.just("delete"), ids),
    st.tuples(st.just("text"), st.integers(min_value=0, max_value=4), st.booleans()),
    st.tuples(st.just("delete_text"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("chaos"), st.sampled_from(["corrupt", "heal", "crash"])),
    st.tuples(st.just("checkpoint")),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(operation, min_size=1, max_size=25))
def test_incremental_views_match_scratch_recompute(ops):
    harness = Harness()
    for op in ops:
        kind = op[0]
        if kind == "put":
            harness.put(*op[1])
        elif kind == "put_many":
            harness.put_many(op[1])
        elif kind == "delete":
            harness.delete(op[1])
        elif kind == "text":
            harness.put_text(op[1], op[2])
        elif kind == "delete_text":
            harness.delete_text(op[1])
        elif kind == "chaos":
            harness.chaos(op[1])
        else:
            harness.check()
    harness.check()


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(row, min_size=1, max_size=30),
    delete_picks=st.lists(ids, max_size=8),
)
def test_heavy_update_delete_churn(rows, delete_picks):
    """A denser write schedule with no chaos: every row id is updated
    repeatedly and a subset deleted; the delta path must carry all of it
    without a single full refresh after the initial build."""
    harness = Harness()
    mv = harness.manager.get("agg")
    mv.rows()
    refreshes_after_build = mv.stats.refreshes
    for r in rows:
        harness.put(*r)
    for i in delete_picks:
        harness.delete(i)
    harness.check()
    assert mv.stats.refreshes == refreshes_after_build, (
        "maintainable view took a full refresh on a plain write schedule"
    )


def test_chaos_forces_fallback_then_reconverges():
    """Deterministic spot check: corruption invalidates wholesale, the
    next read is a full refresh, and maintenance resumes incrementally."""
    harness = Harness()
    mv = harness.manager.get("agg")
    harness.put(1, 0, "east", 10)
    mv.rows()
    harness.chaos("corrupt")
    assert not mv.is_fresh and mv.stats.fallbacks >= 1
    harness.put(2, 1, "west", 20)
    mv.rows()
    refreshes = mv.stats.refreshes
    harness.put(3, 2, "east", 30)
    mv.rows()
    assert mv.stats.refreshes == refreshes  # back on the delta path
    harness.check()
