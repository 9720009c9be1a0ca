"""Unit tests for the physical row operators."""

import pytest

from repro.exec.operators import (
    AggSpec,
    AggregationTypeError,
    OperatorStats,
    group_aggregate,
    merge_partial_aggregates,
    partial_aggregate,
    sort_rows,
)
from tests.oracle.row_operators import hash_join, top_k

ORDERS = [
    {"oid": 1, "cid": 1, "amount": 100.0, "region": "east"},
    {"oid": 2, "cid": 1, "amount": 250.0, "region": "west"},
    {"oid": 3, "cid": 2, "amount": 75.0, "region": "east"},
    {"oid": 4, "cid": 3, "amount": 500.0, "region": "west"},
    {"oid": 5, "cid": 2, "amount": 20.0, "region": "east"},
]
CUSTOMERS = [
    {"cid": 1, "name": "Acme"},
    {"cid": 2, "name": "Beta"},
    {"cid": 9, "name": "Nobody"},
]


class TestHashJoin:
    def test_inner_join(self):
        out = list(hash_join(ORDERS, CUSTOMERS, "cid", "cid"))
        assert len(out) == 4  # cid=3 has no matching customer
        assert all("name" in r for r in out)

    def test_unmatched_rows_dropped(self):
        out = list(hash_join(ORDERS, CUSTOMERS, "cid", "cid"))
        assert all(r["cid"] != 9 for r in out)
        orphan = [{"cid": 42, "oid": 99}]
        assert list(hash_join(orphan, CUSTOMERS, "cid", "cid")) == []

    def test_null_keys_never_join(self):
        left = [{"k": None, "v": 1}]
        right = [{"k": None, "w": 2}]
        assert list(hash_join(left, right, "k", "k")) == []

    def test_colliding_column_prefixed(self):
        left = [{"k": 1, "name": "left-name"}]
        right = [{"k": 1, "name": "right-name"}]
        out = list(hash_join(left, right, "k", "k"))
        assert out[0]["name"] == "left-name"
        assert out[0]["r_name"] == "right-name"

    def test_stats(self):
        stats = OperatorStats()
        list(hash_join(ORDERS, CUSTOMERS, "cid", "cid", stats))
        assert stats.rows_in == len(ORDERS) + len(CUSTOMERS)
        assert stats.rows_out == 4


class TestSortTopK:
    def test_sort_ascending(self):
        out = sort_rows(ORDERS, ["amount"])
        assert [r["oid"] for r in out] == [5, 3, 1, 2, 4]

    def test_sort_descending(self):
        out = sort_rows(ORDERS, ["amount"], descending=True)
        assert out[0]["oid"] == 4

    def test_sort_mixed_none(self):
        rows = [{"v": None}, {"v": 2}, {"v": "s"}]
        out = sort_rows(rows, ["v"])
        assert out[0]["v"] is None  # nulls first, strings last
        assert out[-1]["v"] == "s"

    def test_sort_multi_key(self):
        out = sort_rows(ORDERS, ["region", "amount"])
        assert [r["oid"] for r in out] == [5, 3, 1, 2, 4]

    def test_top_k(self):
        out = top_k(ORDERS, 2, "amount")
        assert [r["oid"] for r in out] == [4, 2]

    def test_top_k_ascending(self):
        out = top_k(ORDERS, 2, "amount", descending=False)
        assert [r["oid"] for r in out] == [5, 3]

    def test_top_k_larger_than_input(self):
        assert len(top_k(ORDERS, 100, "amount")) == 5

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            top_k(ORDERS, 0, "amount")


class TestAggregation:
    def test_group_sum_count(self):
        out = group_aggregate(
            ORDERS, ["region"],
            [AggSpec("total", "sum", "amount"), AggSpec("n", "count")],
        )
        by_region = {r["region"]: r for r in out}
        assert by_region["east"]["total"] == pytest.approx(195.0)
        assert by_region["east"]["n"] == 3
        assert by_region["west"]["total"] == pytest.approx(750.0)

    def test_avg_min_max(self):
        out = group_aggregate(
            ORDERS, [],
            [
                AggSpec("avg_amt", "avg", "amount"),
                AggSpec("lo", "min", "amount"),
                AggSpec("hi", "max", "amount"),
            ],
        )
        assert out[0]["avg_amt"] == pytest.approx(189.0)
        assert out[0]["lo"] == 20.0
        assert out[0]["hi"] == 500.0

    def test_empty_input(self):
        assert group_aggregate([], ["region"], [AggSpec("n", "count")]) == []

    def test_global_aggregate_no_group(self):
        out = group_aggregate(ORDERS, [], [AggSpec("n", "count")])
        assert out == [{"n": 5}]

    def test_non_numeric_sum_raises(self):
        rows = [{"g": 1, "v": "555-123-4567"}]
        with pytest.raises(AggregationTypeError):
            group_aggregate(rows, ["g"], [AggSpec("s", "sum", "v")])

    def test_money_strings_aggregate(self):
        rows = [{"g": 1, "v": "$100.50"}, {"g": 1, "v": "$9.50"}]
        out = group_aggregate(rows, ["g"], [AggSpec("s", "sum", "v")])
        assert out[0]["s"] == pytest.approx(110.0)

    def test_nulls_skipped_in_numeric_agg(self):
        # SQL semantics: NULLs are invisible to count(col)/sum/avg/min/max;
        # only a bare count(*) counts every row.
        rows = [{"g": 1, "v": 10}, {"g": 1, "v": None}]
        out = group_aggregate(
            rows,
            ["g"],
            [
                AggSpec("s", "sum", "v"),
                AggSpec("n", "count", "v"),
                AggSpec("star", "count"),
            ],
        )
        assert out[0]["s"] == 10.0
        assert out[0]["n"] == 1  # count(v) skips the NULL
        assert out[0]["star"] == 2  # count(*) counts all rows

    def test_null_heavy_aggregates(self):
        rows = [
            {"g": "a", "v": None},
            {"g": "a", "v": 4},
            {"g": "a", "v": None},
            {"g": "a", "v": 2},
            {"g": "b", "v": None},
        ]
        out = group_aggregate(
            rows,
            ["g"],
            [
                AggSpec("n", "count", "v"),
                AggSpec("star", "count"),
                AggSpec("s", "sum", "v"),
                AggSpec("a", "avg", "v"),
                AggSpec("lo", "min", "v"),
                AggSpec("hi", "max", "v"),
            ],
        )
        a, b = out
        assert (a["g"], a["n"], a["star"], a["s"]) == ("a", 2, 4, 6.0)
        assert a["a"] == pytest.approx(3.0)  # avg over non-null values only
        assert (a["lo"], a["hi"]) == (2.0, 4.0)
        # all-NULL group: count(v)=0, aggregates are NULL, count(*) still counts
        assert (b["g"], b["n"], b["star"]) == ("b", 0, 1)
        assert b["s"] == 0.0 and b["a"] is None
        assert b["lo"] is None and b["hi"] is None

    def test_invalid_agg_spec(self):
        with pytest.raises(ValueError):
            AggSpec("x", "median", "v")
        with pytest.raises(ValueError):
            AggSpec("x", "sum", None)

    def test_deterministic_group_order(self):
        out = group_aggregate(ORDERS, ["region"], [AggSpec("n", "count")])
        assert [r["region"] for r in out] == ["east", "west"]


class TestPartialAggregation:
    def split(self, rows, parts):
        chunks = [[] for _ in range(parts)]
        for i, row in enumerate(rows):
            chunks[i % parts].append(row)
        return chunks

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_partial_merge_equals_global(self, parts):
        aggs = [
            AggSpec("total", "sum", "amount"),
            AggSpec("n", "count"),
            AggSpec("avg_amt", "avg", "amount"),
            AggSpec("hi", "max", "amount"),
        ]
        expected = group_aggregate(ORDERS, ["region"], aggs)
        partials = []
        for chunk in self.split(ORDERS, parts):
            partials.extend(partial_aggregate(chunk, ["region"], aggs))
        merged = merge_partial_aggregates(partials, ["region"], aggs)
        assert len(merged) == len(expected)
        for exp, got in zip(expected, merged):
            assert got["region"] == exp["region"]
            assert got["total"] == pytest.approx(exp["total"])
            assert got["n"] == exp["n"]
            assert got["avg_amt"] == pytest.approx(exp["avg_amt"])
            assert got["hi"] == exp["hi"]

    def test_partial_rows_carry_decomposed_avg(self):
        partials = partial_aggregate(ORDERS, ["region"], [AggSpec("a", "avg", "amount")])
        assert "__a_sum" in partials[0] and "__a_cnt" in partials[0]
