"""Property-based proof of cache transparency (the tentpole invariant).

Two appliances run the *same* interleaved program of writes, queries,
and chaos events; one has the full cache hierarchy, the other has it
switched off.  After every query step the two answers are serialized to
canonical JSON and compared byte-for-byte — a cache that ever changes an
answer (stale result, missed invalidation, degraded rows served as
fresh) fails here, whatever the interleaving.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import CacheConfig
from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.model.document import Document
from repro.model.views import base_table_view

QUERIES = (
    "SELECT region, sum(amount) AS total FROM orders GROUP BY region",
    "SELECT oid, amount FROM orders ORDER BY oid",
    "SELECT region, count(*) AS n FROM orders GROUP BY region ORDER BY region",
    "SELECT name FROM customers ORDER BY name",
    "SELECT amount FROM orders WHERE region = 'east' ORDER BY amount",
)

REGIONS = ("east", "west", "north")

SEARCHES = ("refund", "widgetpro", "crashing excellent", "gadgetmax review", "east")
WORDS = ("refund", "WidgetPro", "GadgetMax", "crashing", "excellent", "review",
         "Alice Johnson", "terrible", "pending")
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)

# op encodings drawn by hypothesis: what happens at each program step
ops = st.one_of(
    st.tuples(st.just("put_order"), st.integers(0, 200), st.sampled_from(REGIONS),
              st.floats(0.0, 500.0, allow_nan=False)),
    st.tuples(st.just("put_customer"), st.integers(0, 50)),
    st.tuples(st.just("put_text"), st.integers(0, 30), texts),
    st.tuples(st.just("put_many"), st.lists(texts, min_size=2, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, 30)),
    st.tuples(st.just("discover"),),
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
    st.tuples(st.just("search"), st.integers(0, len(SEARCHES) - 1)),
    st.tuples(st.just("crash"),),
    st.tuples(st.just("recover"),),
    st.tuples(st.just("restore"),),
)


def _fresh_app(enabled: bool) -> Impliance:
    app = Impliance(ApplianceConfig(
        n_data_nodes=3, n_grid_nodes=1,  # restore needs three replicas' worth
        product_lexicon=("WidgetPro", "GadgetMax"),  # discovery folds these
        cache=CacheConfig(enabled=enabled),
    ))
    app.define_view(base_table_view("orders", "orders", ["oid", "region", "amount"]))
    app.define_view(base_table_view("customers", "customers", ["cid", "name"]))
    return app


def _canonical(rows) -> bytes:
    return json.dumps(rows, sort_keys=True, default=str).encode("utf-8")


def _ranking(result) -> bytes:
    return _canonical([(h.doc_id, h.score, h.via_annotation) for h in result.hits])


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program=st.lists(ops, min_size=1, max_size=25))
def test_cached_engine_byte_identical_under_interleaving(program):
    cached = _fresh_app(enabled=True)
    plain = _fresh_app(enabled=False)
    apps = (cached, plain)
    victim = None   # node currently down (driven identically on both)
    seen = set()    # doc ids written so far: re-writes go through update
    dead = set()    # deleted ids are never written again
    bulk = 0        # documents bulk-ingested so far (their id source)

    def write(doc_id, table, content):
        for app in apps:
            if doc_id in seen:
                app.update_document(doc_id, {table: content})
            else:
                app.ingest(content, table=table, doc_id=doc_id)
        seen.add(doc_id)

    def search(qi):
        got = cached.search(SEARCHES[qi])
        want = plain.search(SEARCHES[qi])
        assert _ranking(got) == _ranking(want), (
            f"cache changed the ranking for {SEARCHES[qi]!r}"
        )
        assert [h.document for h in got.hits] == [h.document for h in want.hits]
        assert got.rows == want.rows and got.degraded == want.degraded
        assert not want.cached
        return got

    for step in program:
        kind = step[0]
        if kind == "put_order":
            _, oid, region, amount = step
            write(f"o{oid}", "orders",
                  {"oid": oid, "region": region, "amount": amount})
        elif kind == "put_customer":
            _, cid = step
            write(f"c{cid}", "customers", {"cid": cid, "name": f"c{cid:03d}"})
        elif kind == "put_text":
            # Free text carries no table: the put flushes the whole tier,
            # where an order row leaves search entries to the generation.
            _, n, text = step
            doc_id = f"t{n}"
            for app in apps:
                if doc_id in dead:
                    break
                if doc_id in seen:
                    app.update_document(doc_id, {"document": {"body": text}})
                else:
                    app.ingest(text, format="text", doc_id=doc_id)
            seen.add(doc_id)
        elif kind == "put_many":
            documents = [
                Document(doc_id=f"b{bulk + i}", content={"document": {"body": text}})
                for i, text in enumerate(step[1])
            ]
            bulk += len(documents)
            for app in apps:
                app.ingest_many(documents)
        elif kind == "delete":
            doc_id = f"t{step[1]}"
            if doc_id in seen and doc_id not in dead:
                for app in apps:
                    app.delete_document(doc_id)
                dead.add(doc_id)
        elif kind == "discover":
            for app in apps:
                app.discover()
        elif kind == "search":
            search(step[1])
        elif kind == "restore":
            if victim is not None:
                for app in apps:
                    app.restore(victim)
                victim = None
        elif kind == "crash":
            if victim is None:
                victim = cached.cluster.data_nodes[0].node_id
                for app in apps:
                    app.fail_node(victim)
        elif kind == "recover":
            if victim is not None:
                for app in apps:
                    app.recover_node(victim)
                victim = None
        else:
            _, qi = step
            got = cached.sql(QUERIES[qi])
            want = plain.sql(QUERIES[qi])
            assert _canonical(got.rows) == _canonical(want.rows), (
                f"cache changed the answer for {QUERIES[qi]!r}"
            )
            assert not want.cached

    # final sweep: every query agrees byte-for-byte, twice in a row (the
    # second round is served hot on the cached side)
    for _ in range(2):
        for sql in QUERIES:
            assert _canonical(cached.sql(sql).rows) == _canonical(plain.sql(sql).rows)
    if victim is None:  # nothing missing, so the second round must be served hot
        for qi in range(len(SEARCHES)):
            search(qi)
            assert search(qi).cached
