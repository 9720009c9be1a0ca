"""Tests of the benchmark harness itself (not of the appliance).

Run with ``python -m pytest benchmarks/e2e -q``.  The repository's
tier-1 collection (``testpaths = ["tests"]``) does not pick this file up.
"""

from __future__ import annotations

import pytest

import run  # noqa: F401 - puts src/ on sys.path
import corpus
import metrics
import trace as tracing
from recorder import Recorder
from workloads import MixedServing, ScanSql, TrickleWrite, apportion, digest


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert metrics.percentile(values, 0.5) == 3.0
    assert metrics.percentile(values, 0.95) == 5.0
    assert metrics.percentile(values, 0.2) == 1.0
    assert metrics.percentile(values, 0.21) == 2.0
    assert metrics.percentile([7.0], 0.95) == 7.0
    assert values == [5.0, 1.0, 4.0, 2.0, 3.0]  # input left alone


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        metrics.percentile([], 0.5)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 0.0)


def test_samples_beyond_p95():
    assert metrics.samples_beyond(200, 0.95) == 10
    assert metrics.samples_beyond(199, 0.95) == 9
    assert metrics.samples_beyond(36000, 0.95) == 1800


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert metrics.relative_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert metrics.relative_spread([3.0]) == 0.0


def test_apportion_is_exact_and_proportional():
    assert apportion(10, [0.5, 0.25, 0.25]) in ([5, 3, 2], [5, 2, 3])
    counts = apportion(36000, [0.50, 0.25, 0.15, 0.09, 0.01])
    assert counts == [18000, 9000, 5400, 3240, 360]
    skew = apportion(1000, [1.0 / (rank + 1) for rank in range(8)])
    assert sum(skew) == 1000 and skew == sorted(skew, reverse=True)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_cover():
    clock = _Clock()
    tracer = tracing.Tracer(clock)
    root = tracer.begin_op("sql")            # 0 .. 10
    clock.now = 1.0
    outer = tracer.enter("serving.execute")  # 1 .. 9
    clock.now = 2.0
    first = tracer.enter("query.sql")        # 2 .. 5
    clock.now = 5.0
    tracer.exit(first)
    clock.now = 6.0
    hot = tracer.enter("storage.get")        # 6 .. 8, aggregated only
    clock.now = 8.0
    tracer.exit(hot, hot=True)
    clock.now = 9.0
    tracer.exit(outer)
    clock.now = 10.0
    tracer.exit(root)

    assert tracer.totals["op.sql"] == [1, 10.0, 2.0]
    assert tracer.totals["serving.execute"] == [1, 8.0, 3.0]
    assert tracer.totals["query.sql"] == [1, 3.0, 3.0]
    assert tracer.totals["storage.get"] == [1, 2.0, 2.0]
    # the layer table's rows sum to the time inside ops
    assert sum(tracer.layer_table().values()) == pytest.approx(10.0)
    # hot spans are not recorded one by one; the others carry parent and op
    assert [s[1] for s in tracer.spans] == ["query.sql", "serving.execute", "op.sql"]
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["query.sql"][4] == by_name["serving.execute"][0]
    assert by_name["op.sql"][4] == -1 and by_name["query.sql"][5] == 0
    # the same arithmetic from the recorded spans alone (the hot child is
    # not among them, so its cover stays with its parent)
    own = tracing.self_times(tracer.spans)
    assert own[by_name["op.sql"][0]] == pytest.approx(2.0)
    assert own[by_name["serving.execute"][0]] == pytest.approx(5.0)


def test_lazy_boundary_times_production_not_consumption():
    clock = _Clock()
    tracer = tracing.Tracer(clock)

    class Store:
        def scan(self):
            for item in range(3):
                clock.now += 2.0  # producing an item costs 2
                yield item

    store = Store()
    tracer.wrap(store, "scan", "storage.scan", hot=True, lazy=True)
    root = tracer.begin_op("sql")
    for _item in store.scan():
        clock.now += 5.0      # the consumer's own work
    tracer.exit(root)
    tracer.unwrap_all()
    assert tracer.totals["storage.scan"][1] == pytest.approx(6.0)
    assert tracer.totals["op.sql"][2] == pytest.approx(15.0)
    assert "scan" not in vars(store)


# ----------------------------------------------------------------------
# schedules are a function of the seed
# ----------------------------------------------------------------------
_POOL = {
    "sql": [(f"SELECT {i}",) for i in range(10)],
    "search": [(f"term{i}",) for i in range(8)],
    "faceted": [(None, "format"), ("a", "format"), ("b", "table")],
    "graph": [("connections", "a", "b"), ("related", "c"), ("connections", "c", "d")],
}


def _schedules(seed: int):
    return {
        "scan_sql": digest([q for _t, _x, q in ScanSql(seed, 2.0)._schedule()]),
        "mixed_serving": digest(MixedServing(seed, 0.5)._schedule(_POOL)),
        "trickle_write": digest(TrickleWrite(seed, 2.0)._schedule(1000)),
        "load_enrich": digest(
            [(c.table, c.payloads) for c in corpus.bulk_corpus(seed, 1500).chunks]
        ),
    }


def test_schedules_repeat_by_seed_and_differ_across_seeds():
    first, again, other = _schedules(3), _schedules(3), _schedules(4)
    assert first == again
    for name in first:
        assert first[name] != other[name], name


def test_scan_sql_literals_are_fresh_and_cover_each_range():
    schedule = ScanSql(5, 4.0)._schedule()
    assert len({query for _t, _x, query in schedule}) == len(schedule)
    for template, x, _query in schedule:
        assert template.low <= x <= template.high


def test_mixed_serving_schedule_has_exact_shares():
    schedule = MixedServing(9, 1.0)._schedule(_POOL)
    kinds = [kind for _tenant, kind, _args in schedule]
    assert len(kinds) == MixedServing.REQUESTS_PER_S
    for kind, share in MixedServing.KIND_SHARES:
        assert kinds.count(kind) == round(share * len(kinds))
    assert [tenant for tenant, _k, _a in schedule[:6]] == [0, 1, 2, 0, 1, 2]


# ----------------------------------------------------------------------
# failure accounting and un-instrumenting
# ----------------------------------------------------------------------
def test_recorder_classifies_failures_and_keeps_going():
    rec = Recorder()

    def boom():
        raise TypeError("bad call")

    assert rec.call("sql", boom, keep=True) is None
    assert rec.call("sql", lambda: 7, keep=True) == 7
    rec.fail("sql", "WrongAnswer")
    assert rec.failures == {"sql": {"TypeError": 1, "WrongAnswer": 1}}
    assert rec.attempted == 2 and rec.failed_calls == 2
    assert rec.kept() == [("sql", None), ("sql", 7)]


def test_tracing_wrappers_are_removed_after_a_traced_round():
    from repro import Impliance
    from repro.exec.operators import GroupAggregator
    from repro.query.keyword import KeywordSearch
    import repro.query.compile as compile_module

    app = Impliance()
    session = app.connect()
    session.ingest_many([{"oid": i, "amount": float(i)} for i in range(10)], table="orders")
    add_batch = GroupAggregator.add_batch
    sort_batches = compile_module.sort_batches
    keyword_search = KeywordSearch.search
    listeners = list(app.caches.bus._delta_subscribers)
    store = next(n.store for n in app.cluster.nodes() if n.store is not None)

    tracer = tracing.Tracer()
    tracing.instrument(tracer, app)
    assert "sql" in vars(app.engine) and GroupAggregator.add_batch is not add_batch
    rec = Recorder(tracer)
    rec.call("sql", session.sql, "SELECT count(*) AS n FROM orders")
    rec.call("search", session.search, "orders")
    assert tracer.count("query.sql") == 1 and tracer.count("op.sql") == 1
    tracer.unwrap_all()

    assert "sql" not in vars(app.engine)
    assert "execute_inline" not in vars(app.serving)
    assert "put_many" not in vars(store) and "get" not in vars(store.buffer_pool)
    assert GroupAggregator.add_batch is add_batch
    assert compile_module.sort_batches is sort_batches
    assert KeywordSearch.search is keyword_search
    assert app.caches.bus._delta_subscribers == listeners
    # and the appliance still answers, untraced
    before = tracer.count("query.sql")
    assert session.sql("SELECT count(*) AS n FROM orders").rows == [{"n": 10}]
    assert tracer.count("query.sql") == before


# ----------------------------------------------------------------------
# the manifest agrees with the registry
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_registry():
    assert run.check_names() == []
