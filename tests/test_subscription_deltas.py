"""Standing-query deltas against the whole-result reference notifier.

A SQL subscription is a ``MaterializedQuery`` plus a delta cursor: each
notification is what the maintainer changed, not a diff of the whole
result.  The claim under test is that this changes nothing a subscriber
can see.  Under arbitrary interleavings of puts, batched puts, versioned
updates, deletes, chaos node events, reads of the maintained rows and
deliveries that raise, every subscription delivers exactly the deltas —
same epochs, same rows, same order — that ``tests/oracle/notifier.py``
(re-evaluate everything, diff against the last delivered multiset)
delivers from the same bus.

Two deterministic tests pin what the cursor buys and what it must keep:
a write a filter subscription cannot see evaluates nothing, and an
aggregate cursor drained after an interleaved ``rows()`` still reports
the group change.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.bus import InvalidationBus
from repro.core.appliance import Impliance
from repro.model.converters import from_relational_row, from_text
from repro.model.views import base_table_view
from repro.query.continuous import SubscriptionManager
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.ivm import ViewMaintainer
from repro.query.materialized import MaterializationManager, _row_key
from repro.storage.store import DocumentStore
from tests.oracle.notifier import ReferenceNotifier

pytestmark = [pytest.mark.ivm, pytest.mark.chaos]

QUERIES = {
    "filter": "SELECT oid, amount FROM orders WHERE amount > 30",
    "aggregate": "SELECT region, count(*) AS n, sum(amount) AS total FROM orders GROUP BY region",
    "having": (
        "SELECT region, sum(amount) AS total FROM orders GROUP BY region"
        " HAVING total > 40 ORDER BY total DESC"
    ),
    "join": "SELECT * FROM orders JOIN customers ON orders.cid = customers.cid",
    "search": "alert",
}


class FlakyScheduler:
    """Runs notifications inline, or raises for every one while failing."""

    def __init__(self):
        self.failing = False

    def execute_inline(self, request):
        if self.failing:
            raise RuntimeError("delivery failed")
        return request.fn()


class Harness:
    """One store and bus feeding the subscriptions and the reference."""

    def __init__(self):
        self.store = DocumentStore()
        self.repo = LocalRepository(self.store)
        self.repo.views.define(
            base_table_view("orders", "orders", ["oid", "cid", "region", "amount"])
        )
        self.repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
        for cid in range(3):
            self.store.put(from_relational_row(
                f"c{cid}", "customers", {"cid": cid, "name": f"name{cid}"}))
        self.bus = InvalidationBus()
        self.bus.attach_store(self.store)
        self.engine = QueryEngine(self.repo)
        self.scheduler = FlakyScheduler()
        self.manager = SubscriptionManager(SimpleNamespace(
            engine=self.engine, serving=self.scheduler, indexes=self.repo.indexes,
            telemetry=None,
        ))
        self.manager.attach_to_bus(self.bus)
        self.reference = ReferenceNotifier(self.engine, self.repo.indexes, self.scheduler)
        self.reference.attach_to_bus(self.bus)
        # a non-empty initial snapshot for every subscription
        self.put_many([(0, 0, "east", 160), (1, 1, "west", 100), (2, 3, "north", 180)])
        self.put_text(0, True)
        self.subs = {}
        self.delivered = {}
        self.expected = {}
        for name, query in QUERIES.items():
            self.delivered[name] = []
            self.subs[name] = self.manager.subscribe(
                query, on_delta=self.delivered[name].append)
            self.expected[name] = self.reference.subscribe(query).deltas

    # -- operations ----------------------------------------------------
    def put(self, i, cid, region, amount):
        fresh = from_relational_row(
            f"o{i}", "orders",
            {"oid": i, "cid": cid, "region": region, "amount": amount / 4},
        )
        if self.store.contains(fresh.doc_id):
            head = self.store.versions.head(fresh.doc_id)
            self.store.put(head.new_version(fresh.content, fresh.metadata))
        else:
            self.store.put(fresh)

    def put_many(self, rows):
        with self.bus.coalescing():
            for row in rows:
                self.put(*row)

    def delete(self, i):
        if self.store.contains(f"o{i}"):
            self.store.delete(f"o{i}")

    def put_text(self, i, matches):
        fresh = from_text(f"t{i}", "an alert fired" if matches else "a quiet shift")
        if self.store.contains(fresh.doc_id):
            head = self.store.versions.head(fresh.doc_id)
            fresh = head.new_version(fresh.content, fresh.metadata)
        self.store.put(fresh)

    def check(self):
        for name in QUERIES:
            assert self.delivered[name] == self.expected[name], name

    def check_replay(self):
        """Replayed from empty, each SQL subscription's deltas give the
        engine's answer (the reference shares the maintainer, the engine
        does not).  Amounts are quarters, so every float sum is exact."""
        for name, query in QUERIES.items():
            if name == "search":
                continue
            replayed = Counter()
            for delta in self.delivered[name]:
                replayed.update(map(_row_key, delta.added))
                replayed.subtract(map(_row_key, delta.removed))
            engine_rows = Counter(map(_row_key, self.engine.sql(query).rows))
            assert +replayed == engine_rows, name


ids = st.integers(min_value=0, max_value=9)
row = st.tuples(
    ids,
    st.integers(min_value=0, max_value=3),  # cid 3 has no customer
    st.sampled_from(["east", "west", "north"]),
    st.integers(min_value=0, max_value=200),
)
operation = st.one_of(
    st.tuples(st.just("put"), row),
    st.tuples(st.just("put_many"), st.lists(row, min_size=1, max_size=4)),
    st.tuples(st.just("delete"), ids),
    st.tuples(st.just("text"), st.integers(min_value=0, max_value=3), st.booleans()),
    st.tuples(st.just("chaos"), st.sampled_from(["corrupt", "heal", "crash"])),
    st.tuples(st.just("fail"), st.booleans()),
    st.tuples(st.just("read"), st.sampled_from(["filter", "aggregate", "having", "join"])),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operation, min_size=1, max_size=30))
def test_cursor_deltas_equal_whole_result_reference(ops):
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
        elif kind == "chaos":
            harness.bus.publish_node_event("n0", op[1])
        elif kind == "fail":
            harness.scheduler.failing = op[1]
        else:
            harness.subs[op[1]].view.rows()
        harness.check()
    # recover: the next epoch delivers whatever the failures held back
    harness.scheduler.failing = False
    harness.put(0, 0, "east", 1)
    harness.check()
    harness.check_replay()


# ----------------------------------------------------------------------
# deterministic
# ----------------------------------------------------------------------
THRESHOLD_SQL = "SELECT oid, amount FROM orders WHERE amount > 480"


def test_write_below_a_filter_evaluates_nothing(monkeypatch):
    app = Impliance()
    app.ingest_many(
        [{"oid": i, "region": "east", "amount": float(i * 10)} for i in range(60)],
        table="orders",
    )
    deltas = []
    app.subscriptions.subscribe(THRESHOLD_SQL, on_delta=deltas.append)
    assert {row["oid"] for row in deltas[0].added} == set(range(49, 60))
    evaluations = []
    original = ViewMaintainer.evaluate

    def counting(self):
        evaluations.append(self)
        return original(self)

    monkeypatch.setattr(ViewMaintainer, "evaluate", counting)
    monkeypatch.setattr(app.engine, "sql", None)  # any engine evaluation raises
    app.ingest({"oid": 100, "region": "west", "amount": 5.0}, table="orders")
    assert evaluations == [] and len(deltas) == 1
    assert app.telemetry.value("sub.notify.error") == 0
    app.ingest({"oid": 101, "region": "west", "amount": 999.0}, table="orders")
    assert evaluations == []
    assert deltas[-1].added == ({"oid": 101, "amount": 999.0},)
    assert deltas[-1].removed == ()


def test_search_match_that_comes_and_goes_undelivered_nets_out():
    harness = Harness()
    deltas = harness.delivered["search"]
    assert [(d.added, d.removed) for d in deltas] == [(("t0",), ())]
    harness.scheduler.failing = True
    harness.put_text(1, True)
    harness.put_text(1, False)
    harness.put_text(0, False)
    harness.scheduler.failing = False
    harness.put_text(2, False)
    assert [(d.added, d.removed) for d in deltas[1:]] == [((), ("t0",))]
    harness.check()


def test_aggregate_cursor_survives_an_interleaved_read():
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("orders", "orders", ["oid", "region", "amount"]))
    for i in range(4):
        store.put(from_relational_row(
            f"o{i}", "orders", {"oid": i, "region": "east" if i % 2 else "west",
                                "amount": float(i)}))
    bus = InvalidationBus()
    bus.attach_store(store)
    manager = MaterializationManager(QueryEngine(repo))
    manager.attach_to_bus(bus)
    mv = manager.define("totals", "SELECT region, sum(amount) AS total FROM orders GROUP BY region")
    added, removed = mv.drain_delta()
    assert added == ({"region": "east", "total": 4.0}, {"region": "west", "total": 2.0})
    assert removed == ()
    store.put(from_relational_row(
        "o9", "orders", {"oid": 9, "region": "east", "amount": 10.0}))
    # the read folds the stale group before the cursor is drained, and a
    # second write to the group must not lose what was last drained
    assert {"region": "east", "total": 14.0} in mv.rows()
    store.put(from_relational_row(
        "o8", "orders", {"oid": 8, "region": "east", "amount": 100.0}))
    assert mv.drain_delta() == (
        ({"region": "east", "total": 114.0},),
        ({"region": "east", "total": 4.0},),
    )
    assert mv.drain_delta() == ((), ())
    assert mv.stats.refreshes == 1
