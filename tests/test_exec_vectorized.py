"""Vectorized execution: ColumnBatch, batch operators, and the guarantee
that the engine's compiled pipelines return exactly what the row-at-a-time
oracle (``tests/oracle/row_engine.py``) returns (docs/EXECUTION.md)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.exec import costs
from repro.exec.batch import (
    MISSING,
    ColumnBatch,
    batches_from_columns,
    batches_from_rows,
    rows_from_batches,
)
from repro.exec.operators import (
    AggSpec,
    GroupAggregator,
    OperatorStats,
    hash_join_batches,
    merge_joined_row,
    sort_batches,
    sort_rows,
)
from tests.oracle import row_operators
from tests.oracle.row_operators import group_aggregate, hash_join, top_k
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.adaptive import AdaptiveConfig
from repro.query.compile import compile_selector
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.plans import (
    Aggregate,
    Comparison,
    CompareOp,
    Conjunction,
    Filter,
    Join,
    Limit,
    ScanView,
    Sort,
)
from repro.storage.store import DocumentStore
from repro.workloads.relational import RelationalWorkload
from tests.oracle.row_engine import RowEngine, batch_counts


# ----------------------------------------------------------------------
# ColumnBatch
# ----------------------------------------------------------------------
class TestColumnBatch:
    def test_round_trip_uniform_rows(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": None}]
        batch = ColumnBatch.from_rows(rows)
        assert batch.length == 2
        assert batch.column("a") == [1, 2]
        assert batch.to_rows() == rows

    def test_round_trip_ragged_rows(self):
        # Join output is ragged: r_-renamed columns exist only on
        # collision rows.  The batch must reproduce exactly those dicts.
        rows = [{"a": 1}, {"a": 2, "r_a": 9}, {"a": 3}]
        batch = ColumnBatch.from_rows(rows)
        assert batch.raw_column("r_a") == [MISSING, 9, MISSING]
        assert batch.column("r_a") == [None, 9, None]  # read like row.get
        assert batch.to_rows() == rows

    def test_absent_column_reads_all_none(self):
        batch = ColumnBatch.from_rows([{"a": 1}])
        assert batch.column("zzz") == [None]
        assert batch.raw_column("zzz") is None

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ColumnBatch({"a": [1, 2], "b": [1]})

    def test_take_head_select_drop(self):
        batch = ColumnBatch.from_rows(
            [{"a": i, "b": -i} for i in range(5)]
        )
        assert batch.take([4, 0]).column("a") == [4, 0]
        assert batch.head(2).length == 2
        assert batch.head(99) is batch
        assert batch.select_columns(["b", "zzz"]).to_rows()[0] == {"b": 0, "zzz": None}
        assert batch.drop_column("b").column_names == ["a"]

    def test_concat_aligns_ragged_schemas(self):
        left = ColumnBatch.from_rows([{"a": 1}])
        right = ColumnBatch.from_rows([{"a": 2, "b": 3}])
        merged = ColumnBatch.concat([left, right])
        assert merged.length == 2
        assert merged.to_rows() == [{"a": 1}, {"a": 2, "b": 3}]

    def test_stream_adapters(self):
        rows = [{"i": i} for i in range(10)]
        batches = list(batches_from_rows(rows, batch_size=4))
        assert [b.length for b in batches] == [4, 4, 2]
        assert rows_from_batches(batches) == rows
        sliced = batches_from_columns({"i": list(range(10))}, 10, batch_size=4)
        assert [b.length for b in sliced] == [4, 4, 2]
        assert rows_from_batches(sliced) == rows


# ----------------------------------------------------------------------
# vectorized operators agree with the row operators
# ----------------------------------------------------------------------
ROWS = [
    {"g": "a", "v": 3.0, "w": None},
    {"g": "b", "v": None, "w": 5},
    {"g": "a", "v": 1.0, "w": 2},
    {"g": "b", "v": 4.0, "w": None},
    {"g": None, "v": 2.0, "w": 1},
]


def _batches(rows, size=2):
    return list(batches_from_rows(rows, batch_size=size))


class TestVectorizedOperators:
    def test_filter_matches_row_filter(self):
        predicate = Conjunction((Comparison("v", CompareOp.GT, 1.5),))
        expected = [r for r in ROWS if predicate.matches(r)]
        select = compile_selector(predicate)
        out = rows_from_batches(b.take(select(b)) for b in _batches(ROWS))
        assert out == expected

    def test_sort_matches_row_sort(self):
        for descending in (False, True):
            expected = row_operators.sort_rows(list(ROWS), ["v"], descending)
            got = sort_batches(_batches(ROWS), ["v"], descending).to_rows()
            assert got == expected

    def test_group_aggregate_matches_row_aggregate(self):
        aggs = [
            AggSpec("n", "count", "v"),
            AggSpec("star", "count"),
            AggSpec("s", "sum", "v"),
            AggSpec("a", "avg", "v"),
            AggSpec("lo", "min", "v"),
            AggSpec("hi", "max", "v"),
        ]
        expected = group_aggregate(ROWS, ["g"], aggs)
        aggregator = GroupAggregator(["g"], aggs)
        for batch in _batches(ROWS):
            aggregator.add_batch(batch)
        assert aggregator.finish().to_rows() == expected

    def test_hash_join_matches_row_join(self):
        left = [{"k": 1, "x": "l1"}, {"k": 2, "x": "l2"}, {"k": None, "x": "l3"}]
        right = [{"k": 1, "y": "r1"}, {"k": 1, "y": "r2"}, {"k": None, "y": "r3"}]
        expected = list(hash_join(left, right, "k", "k"))
        got = rows_from_batches(
            hash_join_batches(_batches(left), _batches(right), "k", "k")
        )
        assert got == expected
        assert all(row["k"] == 1 for row in got)  # null keys never join

    def test_batch_stats_accounting(self):
        stats = OperatorStats()
        keyed = [r for r in ROWS if r["g"] is not None]
        out = list(hash_join_batches(_batches(ROWS), _batches(keyed), "g", "g", stats))
        assert stats.rows_in == len(ROWS) + len(keyed)
        assert stats.rows_out == sum(b.length for b in out) == 8
        # 3 probe + 2 build batches in; the all-NULL-key probe batch joins nothing
        assert stats.batches_in == 5 and stats.batches_out == len(out) == 2


# ----------------------------------------------------------------------
# satellite regressions: join rename collisions, sort/top_k stats
# ----------------------------------------------------------------------
class TestJoinRenameCollision:
    def test_merge_stacks_prefix_instead_of_clobbering(self):
        # The left row already carries r_name from an earlier join; a
        # second collision on name must NOT silently overwrite it.
        joined = {"name": "left", "r_name": "earlier"}
        merge_joined_row(joined, {"name": "right"})
        assert joined == {
            "name": "left",
            "r_name": "earlier",
            "r_r_name": "right",
        }

    def test_merge_no_rename_when_values_equal(self):
        joined = {"k": 1, "name": "same"}
        merge_joined_row(joined, {"k": 1, "name": "same", "extra": 2})
        assert joined == {"k": 1, "name": "same", "extra": 2}

    def test_hash_join_preserves_existing_r_column(self):
        left = [{"k": 1, "name": "a", "r_name": "from-first-join"}]
        right = [{"k": 1, "name": "b"}]
        (row,) = list(hash_join(left, right, "k", "k"))
        assert row["r_name"] == "from-first-join"
        assert row["r_r_name"] == "b"
        (brow,) = rows_from_batches(
            hash_join_batches(_batches(left), _batches(right), "k", "k")
        )
        assert brow == row


class TestSortTopKStats:
    def test_sort_rows_charges_stats(self):
        stats = OperatorStats()
        sort_rows(list(ROWS), ["v"], stats=stats)
        assert stats.rows_in == len(ROWS)
        assert stats.rows_out == len(ROWS)

    def test_top_k_charges_stats(self):
        stats = OperatorStats()
        out = top_k(list(ROWS), 2, "v", stats=stats)
        assert stats.rows_in == len(ROWS)
        assert stats.rows_out == len(out) == 2


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
REGIONS = ["east", "west", "north", "south"]


def _build_repo(n_customers=25, n_orders=120, with_nulls=True):
    repo = LocalRepository(DocumentStore())
    repo.views.define(
        base_table_view("customers", "customers", ["cid", "name", "segment", "region"])
    )
    repo.views.define(
        base_table_view(
            "orders", "orders", ["oid", "cid", "amount", "region", "status"]
        )
    )
    workload = RelationalWorkload(n_customers=n_customers, n_orders=n_orders, seed=11)
    for document in workload.documents():
        repo.store.put(document)
    if with_nulls:
        # null-heavy tail: amounts and statuses go NULL so the SQL
        # null-skipping semantics are actually exercised end to end
        for i in range(20):
            repo.store.put(
                from_relational_row(
                    f"ord-null-{i}",
                    "orders",
                    {
                        "oid": n_orders + i,
                        "cid": i % n_customers,
                        "amount": None if i % 2 else float(i),
                        "region": REGIONS[i % 4] if i % 3 else None,
                        "status": None,
                    },
                    primary_key=["oid"],
                )
            )
    return repo


@pytest.fixture(scope="module")
def engines():
    repo = _build_repo()
    return QueryEngine(repo, batch_size=32), RowEngine(repo)


class TestEngineIntegration:
    QUERIES = [
        "SELECT * FROM orders",
        "SELECT oid, amount FROM orders WHERE amount > 100 ORDER BY amount DESC LIMIT 9",
        "SELECT region, count(*) AS n, avg(amount) AS a FROM orders GROUP BY region",
        "SELECT * FROM orders JOIN customers ON cid = cid WHERE amount > 250",
        "SELECT segment, sum(amount) AS total FROM orders JOIN customers"
        " ON cid = cid GROUP BY segment ORDER BY total",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_engines_agree_on_rows_and_cost(self, engines, query):
        vec, row = engines
        rv, rr = vec.sql(query), row.sql(query)
        assert rv.rows == rr.rows
        assert rv.sim_ms == pytest.approx(rr.sim_ms)

    def test_vectorized_result_carries_batches_and_stats(self, engines):
        vec, row = engines
        result = vec.sql("SELECT * FROM orders WHERE amount > 100")
        assert result.batches is not None
        assert rows_from_batches(result.batches) == result.rows
        assert result.operator_stats["scan"].batches_out >= 1
        assert result.operator_stats["filter"].rows_out == len(result.rows)
        legacy = row.sql("SELECT * FROM orders WHERE amount > 100")
        assert legacy.batches is None
        assert legacy.operator_stats["filter"].rows_out == len(legacy.rows)

    def test_count_star_vs_count_column_nulls(self, engines):
        vec, row = engines
        for engine in engines:
            result = engine.sql(
                "SELECT count(*) AS star, count(amount) AS n,"
                " avg(amount) AS a FROM orders"
            )
            (out,) = result.rows
            assert out["star"] == 140  # every row counts
            assert out["n"] == 130  # 10 NULL amounts skipped
            assert out["a"] is not None

    def test_appliance_defaults_vectorized_with_batch_telemetry(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        for i in range(30):
            app.ingest(
                {"oid": i, "amount": float(i), "region": REGIONS[i % 4]},
                "relational",
                table="orders",
            )
        result = app.sql("SELECT region, sum(amount) AS s FROM orders GROUP BY region")
        assert len(result.rows) == 4
        assert result.batches is not None
        snapshot = app.telemetry.snapshot()
        assert snapshot["counters"]["exec.batches"] >= 1

    def test_batch_counters_pinned(self, engines):
        """``batches_in``/``batches_out`` have no row-side twin to agree
        with, so they are pinned: 140 orders scan as 5 batches of
        ``batch_size=32``, and the last one (the small-amount NULL tail)
        has no row above 100."""
        vec, _ = engines

        def counters(query):
            return batch_counts(vec.sql(query).operator_stats)

        assert counters("SELECT * FROM orders WHERE amount > 100") == {
            "scan": (0, 5), "filter": (5, 4),
        }
        assert counters("SELECT oid FROM orders WHERE region = 'nowhere'") == {
            "scan": (0, 5), "filter": (5, 0), "project": (0, 0),
        }
        assert counters(
            "SELECT region, count(*) AS n FROM orders WHERE amount > 100 GROUP BY region"
        ) == {"scan": (0, 5), "filter": (5, 4), "aggregate": (4, 1)}
        assert counters("SELECT * FROM orders ORDER BY amount LIMIT 3") == {
            "scan": (0, 5), "sort": (1, 1),
        }
        assert counters(
            "SELECT * FROM orders JOIN customers ON cid = cid WHERE amount > 250"
        ) == {"scan": (0, 5), "filter": (5, 4), "indexed_join": (0, 2)}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QueryEngine(_build_repo(2, 2, with_nulls=False), vectorized=False),
            lambda: ApplianceConfig(vectorized=False),
            lambda: AdaptiveConfig(compiled_pipelines=False),
        ],
        ids=["QueryEngine", "ApplianceConfig", "AdaptiveConfig"],
    )
    def test_engine_flags_are_gone(self, build):
        """One engine: the two flags are removed, not accepted and ignored."""
        with pytest.raises(TypeError):
            build()


# ----------------------------------------------------------------------
# batch shipping on the distributed path
# ----------------------------------------------------------------------
class TestBatchShipping:
    def _loaded_appliance(self):
        app = Impliance(ApplianceConfig(n_data_nodes=3, n_grid_nodes=1))
        for i in range(90):
            app.ingest(
                {"oid": i, "amount": float(i % 40), "region": REGIONS[i % 4]},
                "relational",
                table="orders",
            )
        return app

    def _extract(self, document):
        content = document.content.get("orders")
        return dict(content) if isinstance(content, dict) else None

    def test_pushdown_ships_batches(self):
        app = self._loaded_appliance()
        result, report = app.executor.aggregate_distributed(
            self._extract,
            ["region"],
            [AggSpec("total", "sum", "amount"), AggSpec("n", "count")],
            pushdown=True,
        )
        assert {r["region"] for r in result} == set(REGIONS)
        assert sum(r["n"] for r in result) == 90
        shipped = app.telemetry.snapshot()["counters"].get("exec.batches_shipped", 0)
        assert shipped >= 1
        assert report.bytes_shipped > 0

    def test_columnar_wire_beats_row_wire(self):
        rows = [{"region": REGIONS[i % 4], "total": float(i), "n": i} for i in range(64)]
        batches = list(batches_from_rows(rows, batch_size=32))
        assert costs.estimate_batches_bytes(batches) < costs.estimate_rows_bytes(rows)

    def test_partitioned_source_still_degrades(self):
        app = self._loaded_appliance()
        grid = app.cluster.grid_nodes[0]
        victim = app.cluster.data_nodes[0]
        app.cluster.network.partition(victim.node_id, grid.node_id)
        result, report = app.executor.aggregate_distributed(
            self._extract,
            ["region"],
            [AggSpec("n", "count")],
            pushdown=True,
        )
        assert report.degraded and report.lost_partitions == 1
        lost_rows = victim.store.doc_count
        assert lost_rows > 0
        assert sum(r["n"] for r in result) == 90 - lost_rows  # survivors only


# ----------------------------------------------------------------------
# property test: the engine and the oracle run the same random plans identically
# ----------------------------------------------------------------------
_PROP_REPO = None


def _prop_engines():
    global _PROP_REPO
    if _PROP_REPO is None:
        _PROP_REPO = _build_repo(n_customers=12, n_orders=60)
        # 0.0 is already a stored amount; -0.0 must keep its own
        # dictionary code on the encoded filter path
        _PROP_REPO.store.put(
            from_relational_row(
                "ord-negzero",
                "orders",
                {"oid": 999, "cid": 3, "amount": -0.0, "region": "east", "status": "open"},
                primary_key=["oid"],
            )
        )
    return QueryEngine(_PROP_REPO, batch_size=16), RowEngine(_PROP_REPO)


_comparisons = st.one_of(
    st.tuples(
        st.just("amount"),
        st.sampled_from([CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE]),
        st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    ),
    st.tuples(
        st.just("region"),
        st.sampled_from([CompareOp.EQ, CompareOp.NE]),
        st.sampled_from(REGIONS + ["EAST", "nowhere"]),
    ),
    st.tuples(st.just("status"), st.just(CompareOp.EQ),
              st.sampled_from(["open", "shipped", "returned"])),
    st.tuples(st.just("cid"), st.just(CompareOp.EQ), st.integers(0, 14)),
    st.tuples(st.just("amount"), st.just(CompareOp.CONTAINS),
              st.sampled_from([-0.0, 0.0, "7."])),
).map(lambda t: Comparison(*t))

_aggs = st.lists(
    st.sampled_from(
        [
            AggSpec("star", "count"),
            AggSpec("n", "count", "amount"),
            AggSpec("s", "sum", "amount"),
            AggSpec("a", "avg", "amount"),
            AggSpec("lo", "min", "amount"),
            AggSpec("hi", "max", "amount"),
        ]
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda a: a.name,
)


@st.composite
def _plans(draw):
    if draw(st.booleans()):
        plan = Join(ScanView("orders"), ScanView("customers"), "cid", "cid")
        sort_cols = ["oid", "amount", "segment"]
    else:
        plan = ScanView("orders")
        sort_cols = ["oid", "amount", "region", "status"]
    terms = draw(st.lists(_comparisons, max_size=2))
    if terms:
        plan = Filter(plan, Conjunction(tuple(terms)))
    shape = draw(st.sampled_from(["agg", "sort", "plain"]))
    if shape == "agg":
        group_by = draw(
            st.lists(st.sampled_from(["region", "status"]), max_size=2, unique=True)
        )
        plan = Aggregate(plan, tuple(group_by), tuple(draw(_aggs)))
    elif shape == "sort":
        keys = draw(st.lists(st.sampled_from(sort_cols), min_size=1, max_size=2,
                             unique=True))
        plan = Sort(plan, tuple(keys), descending=draw(st.booleans()))
        if draw(st.booleans()):
            plan = Limit(plan, draw(st.integers(0, 25)))
    return plan


@settings(max_examples=40, deadline=None)
@given(plan=_plans())
def test_property_engines_identical(plan):
    vec, row = _prop_engines()
    rv = vec.execute(plan)
    rr = row.execute(plan)
    assert rv.rows == rr.rows
    assert repr(rv.rows) == repr(rr.rows)  # == cannot tell -0.0 from 0.0
    assert rv.sim_ms == pytest.approx(rr.sim_ms)
