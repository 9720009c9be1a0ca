"""The change feed is the only write notification.

Every door — ``ingest``, ``ingest_many``, ``ingest_stream``, discovery's
annotation commits, ``update_document``, ``delete_document`` and
failover's promote — ends as a store commit published on the cluster's
feed, and every derived structure learns of it there, in one fixed
order.  Differential: after any sequence of doors, the global index and
each node's index equal a rebuild from the documents they cover, every
live non-annotation version is processed or queued for discovery, and
the auto views cover every live row.  A group commit that raises after
one node's share landed still reaches every derived structure.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.node import NodeKind
from repro.cluster.topology import ImplianceCluster
from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.index.manager import IndexManager
from repro.index.text import InvertedIndex
from repro.model.converters import from_relational_row, from_text
from repro.model.document import DocumentKind
from repro.storage.versions import VersionConflictError
from repro.workloads.callcenter import CallCenterWorkload

PRODUCTS = ("WidgetPro", "GadgetMax")


def _app(n_data=3):
    return Impliance(ApplianceConfig(
        n_data_nodes=n_data, n_grid_nodes=1, product_lexicon=PRODUCTS,
    ))


# ----------------------------------------------------------------------
# index state, in comparable form (every field but the generation)
# ----------------------------------------------------------------------
def _nonempty(mapping):
    return {key: value for key, value in mapping.items() if value}


def _index_state(manager):
    text, structure, values, facets = (
        manager.text, manager.structure, manager.values, manager.facets,
    )
    return {
        "postings": _nonempty({t: dict(p) for t, p in text._postings.items()}),
        "lengths": dict(text._doc_lengths),
        "total_length": text._total_length,
        "structure": _nonempty(dict(structure._exact)),
        "leaves": _nonempty(dict(structure._by_leaf)),
        "doc_paths": dict(structure._doc_paths),
        "equality": _nonempty(dict(values._equality)),
        "numeric": _nonempty({p: sorted(e) for p, e in values._numeric.items()}),
        "doc_entries": {d: sorted(map(repr, e)) for d, e in values._doc_entries.items()},
        "buckets": {f: _nonempty(b) for f, b in facets._buckets.items()},
        "facet_values": _nonempty(dict(facets._doc_values)),
    }


def _rebuilt(documents, like=None):
    reference = IndexManager(
        facets=[like.facets._definitions[n] for n in like.facets.facet_names()]
        if like is not None else ()
    )
    for document in documents:
        reference.index_document(document)
    return reference


def _check_derived_state(app):
    live = list(app.documents())
    # The global index equals one rebuilt from the live documents.
    assert _index_state(app.indexes) == _index_state(_rebuilt(live, like=app.indexes))
    # Each node's index equals one rebuilt from its own store.
    for node in app.cluster.nodes_of(NodeKind.DATA, alive_only=False):
        own = list(node.store.scan())
        assert _index_state(node.indexes) == _index_state(_rebuilt(own)), node.node_id
    # Every live version discovery should see is processed or queued.
    discovery = app.discovery
    for document in live:
        if document.kind is not DocumentKind.ANNOTATION:
            assert (
                document.vid in discovery._processed
                or document.doc_id in discovery._queued
            ), document.vid
    # The auto views cover every live row.
    for document in live:
        table = document.metadata.get("table")
        if not table:
            continue
        columns = {
            path[1] for path, _ in document.paths() if len(path) == 2 and path[0] == table
        }
        if columns:
            assert columns <= set(app.views.get(table).column_names), table


# ----------------------------------------------------------------------
# the doors, as Hypothesis steps
# ----------------------------------------------------------------------
WORDS = ("alpha", "refund", "widgetpro", "gadgetmax", "late", "broken", "Alice Johnson")
TABLES = ("orders", "parts")
COLUMNS = ("a", "b", "c")

texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(
    lambda words: " ".join(words) + " call 555-123-4567"
)
rows = st.dictionaries(st.sampled_from(COLUMNS), st.integers(0, 5), min_size=1)
payloads = st.one_of(
    texts.map(lambda text: ("text", text)),
    st.tuples(st.sampled_from(TABLES), rows).map(lambda tr: ("row", tr)),
)
steps = st.one_of(
    st.tuples(st.just("ingest"), payloads),
    st.tuples(st.just("ingest_many"), st.lists(payloads, min_size=1, max_size=6)),
    st.tuples(st.just("ingest_stream"), st.lists(payloads, min_size=1, max_size=6)),
    st.tuples(st.just("discover"), st.sampled_from([None, 1, 3])),
    st.tuples(st.just("update"), st.tuples(st.integers(0, 50), rows)),
    st.tuples(st.just("delete"), st.integers(0, 50)),
    st.tuples(st.just("fail_recover"), st.integers(0, 2)),
)


def _ingest(app, door, items):
    texts_ = [p for kind, p in items if kind == "text"]
    by_table = {}
    for kind, p in items:
        if kind == "row":
            by_table.setdefault(p[0], []).append(p[1])
    if door == "ingest":
        for text in texts_:
            app.ingest(text, "text")
        for table, table_rows in by_table.items():
            for row in table_rows:
                app.ingest(row, table=table)
        return
    run = app.ingest_many if door == "ingest_many" else app.ingest_stream
    if texts_:
        run(texts_, "text")
    for table, table_rows in by_table.items():
        run(table_rows, table=table)


def _live_base(app):
    return sorted(
        d.doc_id for d in app.documents() if d.kind is not DocumentKind.ANNOTATION
    )


def _apply(app, step):
    door, arg = step
    if door in ("ingest", "ingest_many", "ingest_stream"):
        _ingest(app, door, [arg] if door == "ingest" else arg)
    elif door == "discover":
        app.discover(arg)
    elif door in ("update", "delete"):
        targets = _live_base(app)
        if not targets:
            return
        pick = arg[0] if door == "update" else arg
        doc_id = targets[pick % len(targets)]
        if door == "delete":
            app.delete_document(doc_id)
            return
        table = app.lookup(doc_id).metadata.get("table")
        content = {table: arg[1]} if table else {"note": f"updated {arg[1]} refund"}
        app.update_document(doc_id, content)
    else:
        node_id = f"data-{arg}"
        app.fail_node(node_id)
        _check_derived_state(app)
        app.recover_node(node_id)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(steps, min_size=1, max_size=8))
def test_derived_state_equals_a_rebuild_after_every_door(sequence):
    app = _app()
    for step in sequence:
        _apply(app, step)
        _check_derived_state(app)


def test_delete_after_discover_and_promote_keep_derived_state_equal():
    app = _app()
    app.ingest_many(["WidgetPro refund alpha", "GadgetMax late"], "text")
    app.ingest_many([{"a": 1}, {"b": 2}], table="orders")
    app.discover()
    for step in (("delete", 0), ("update", (1, {"c": 3})), ("fail_recover", 1),
                 ("discover", None), ("delete", 2)):
        _apply(app, step)
        _check_derived_state(app)


def test_promote_indexes_each_chain_once_per_index(monkeypatch):
    """Failover hands a survivor every version of each chain in one
    change set; each index takes in only the chain's head, and ends equal
    to a rebuild (indexing all 5 versions in turn did 5x the work)."""
    app = _app()
    docs = app.ingest_many([f"alpha refund call {i}" for i in range(40)], "text")
    for version in range(4):
        for document in docs:
            app.update_document(document.doc_id, f"late widgetpro {version} {document.doc_id}")
    victim = app.cluster.home_of(docs[0].doc_id).node_id
    added = []
    for name in ("add", "add_projected"):  # one text-index add per document indexed
        original = getattr(InvertedIndex, name)
        monkeypatch.setattr(
            InvertedIndex, name,
            lambda self, doc_id, *rest, _original=original: (
                added.append(doc_id), _original(self, doc_id, *rest))[1],
        )
    moved = app.fail_node(victim)
    assert moved > 0
    assert len(added) == 2 * moved  # the survivor's node index + the global one
    _check_derived_state(app)


# ----------------------------------------------------------------------
# a partial group commit reaches every derived structure
# ----------------------------------------------------------------------
def test_partial_group_commit_reaches_every_derived_structure():
    app = _app(n_data=2)
    app.ingest({"id": 0, "animal": "old"}, table="zoo", doc_id="bad")
    bad_home = app.cluster.home_of("bad")
    good_id = next(
        f"good{i}" for i in range(100) if app.cluster.home_of(f"good{i}") is not bad_home
    )
    good = from_relational_row(good_id, "zoo", {"id": 1, "animal": "giraffe", "neck_m": 2})
    conflicting = from_relational_row("bad", "zoo", {"id": 2, "animal": "dup"})
    with pytest.raises(VersionConflictError):
        app.ingest_many([good, conflicting])  # good's node commits first
    assert app.sql("SELECT count(*) AS n FROM zoo").rows == [{"n": 2}]
    assert [hit.doc_id for hit in app.search("giraffe").hits] == [good_id]
    assert good_id in app.cluster.home_of(good_id).indexes.text.match_all("giraffe")
    assert "neck_m" in app.views.get("zoo").column_names
    assert app.discovery.backlog == 2  # "bad" from the first ingest, and good
    _check_derived_state(app)


# ----------------------------------------------------------------------
# one feed, one order
# ----------------------------------------------------------------------
def test_feed_subscribers_are_registered_in_one_fixed_order():
    app = _app()
    assert app.caches.bus is app.cluster.feed
    assert app.cluster.feed._delta_subscribers == [
        app.cluster.index_commit,     # node indexes
        app._on_commit,               # global index, auto views, discovery
        app.caches._on_changes,       # caches
        app.materializations.on_changes,  # IVM
        app.subscriptions.on_changes,     # standing queries
        app.recovery.on_change_set,       # standby
    ]
    assert app.cluster.feed._batch_subscribers == []
    for node in app.cluster.data_nodes:
        assert node.store.feed is app.cluster.feed
        assert node.store.node_id == node.node_id


def test_commit_stages_run_in_order_and_are_looked_up_at_call_time():
    app = _app()
    calls = []
    for owner, name in (
        (app.indexes, "index_batch"),
        (app, "_maintain_auto_views"),
        (app.discovery, "enqueue_many"),
    ):
        original = getattr(owner, name)

        def wrapper(documents, _original=original, _name=name):
            calls.append((_name, [d.doc_id for d in documents]))
            return _original(documents)

        setattr(owner, name, wrapper)
    app.update_document(app.ingest("alpha refund", "text", doc_id="t1").doc_id,
                        {"note": "beta"})
    app.delete_document("t1")
    assert calls == [
        ("index_batch", ["t1"]), ("_maintain_auto_views", ["t1"]), ("enqueue_many", ["t1"]),
        ("index_batch", ["t1"]), ("_maintain_auto_views", ["t1"]), ("enqueue_many", ["t1"]),
        ("index_batch", ["t1"]), ("_maintain_auto_views", []), ("enqueue_many", []),
    ]


def test_a_pipeline_batch_is_published_in_arrival_order():
    app = _app(n_data=4)
    seen = []
    app.cluster.feed.subscribe_deltas(lambda changes: seen.append(
        [(change.doc_id, change.node_id) for change in changes]
    ))
    documents = [from_text(f"d{i}", f"document {i}") for i in range(12)]
    app.ingest_many(documents)
    (published,) = seen
    assert [doc_id for doc_id, _ in published] == [d.doc_id for d in documents]
    assert len({node_id for _, node_id in published}) > 1
    for doc_id, node_id in published:
        assert app.cluster.home_of(doc_id).node_id == node_id


def test_annotation_ids_follow_arrival_order():
    workload = CallCenterWorkload(n_customers=4, n_transcripts=10, seed=11)
    app = Impliance(ApplianceConfig(
        n_data_nodes=4, product_lexicon=workload.product_lexicon(),
    ))
    app.ingest_many(list(workload.transcripts()))
    app.discover()
    annotations = sorted(
        (d.doc_id, d.refs[0]) for d in app.documents() if d.kind is DocumentKind.ANNOTATION
    )
    # Subjects of ann-000001 ... ann-000045, pinned from the code before
    # the feed: transcripts are annotated in the order they arrived.
    calls = [0] * 4 + [1] * 5 + [2] * 3 + [3] * 4 + [4] * 4 + [5] * 6 + [6] * 4 \
        + [7] * 6 + [8] * 5 + [9] * 4
    assert annotations == [
        (f"ann-{n:06d}", f"crm-call-{call}") for n, call in enumerate(calls, start=1)
    ]


# ----------------------------------------------------------------------
# node ids: the standby, readmission, standalone use
# ----------------------------------------------------------------------
def test_standby_skips_a_change_whose_node_died_before_publication():
    app = _app(n_data=2)
    node = app.cluster.node("data-0")
    before = app.recovery.stats.shipments
    with app.cluster.feed.coalescing():
        node.store.put(from_text("late", "committed then lost"))
        node.fail()
    assert app.recovery.stats.shipments == before
    node.recover()
    app.ingest_many([from_text(f"x{i}", "shipped") for i in range(4)])
    assert app.recovery.stats.shipments > before


def test_a_readmitted_node_publishes_under_its_own_id():
    app = _app(n_data=2)
    app.ingest_many([from_text(f"d{i}", f"before {i}") for i in range(6)])
    app.fail_node("data-1")
    app.recover_node("data-1")
    node = app.cluster.node("data-1")
    assert node.store.feed is app.cluster.feed and node.store.node_id == "data-1"
    doc_id = next(f"n{i}" for i in range(100) if app.cluster.home_of(f"n{i}") is node)
    app.ingest(from_text(doc_id, "zebra after readmission"))
    assert node.indexes.text.match_all("zebra") == {doc_id}
    assert app.recovery.standby("data-1").applied_lsn == node.store.commit_lsn
    _check_derived_state(app)


def test_a_standalone_cluster_keeps_its_node_indexes_current():
    cluster = ImplianceCluster(n_data=3, n_grid=1)
    stored, shares, _ = cluster.ingest_batch(
        [from_text(f"s{i}", f"standalone {i}") for i in range(9)]
    )
    for node_id, share in shares.items():
        indexes = cluster.node(node_id).indexes
        assert indexes.text.match_all("standalone") == {d.doc_id for d in share}
