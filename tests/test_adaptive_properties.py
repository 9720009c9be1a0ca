"""Property tests: compiled + adaptive execution ≡ the row oracle.

For any data shape, any statistics staleness, and any probe-cost
penalty (a chaos-degraded node), the compiled path with mid-query
re-optimization enabled must return the same multiset of rows as the
row-at-a-time oracle (``tests/oracle/row_engine.py``).  When no re-plan
fires, the compiled path must match the oracle *exactly* — same order,
same per-operator row counts, charges equal up to float summation
order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.adaptive import ReplanReport
from repro.query.engine import LocalRepository, QueryEngine
from repro.storage.store import DocumentStore
from tests.oracle.row_engine import RowEngine, row_counts

pytestmark = pytest.mark.adaptive


def _build_repo(customers, orders):
    store = DocumentStore()
    repo = LocalRepository(store)
    repo.views.define(base_table_view("customers", "customers", ["cid", "name"]))
    repo.views.define(base_table_view("orders", "orders", ["oid", "cid", "amount"]))
    for i, cid in enumerate(customers):
        store.put(from_relational_row(f"c{i}", "customers", {"cid": cid, "name": f"C{cid}"}))
    for i, (cid, amount) in enumerate(orders):
        store.put(from_relational_row(
            f"o{i}", "orders", {"oid": i, "cid": cid, "amount": amount}
        ))
    return repo


def _multiset(rows):
    return sorted(sorted(r.items()) for r in rows)


customers_strategy = st.lists(
    st.integers(min_value=0, max_value=12), min_size=0, max_size=20, unique=True
)
orders_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)


class TestCompiledEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        customers=customers_strategy,
        orders=orders_strategy,
        threshold=st.integers(min_value=0, max_value=100),
    )
    def test_compiled_matches_interpreters_exactly(self, customers, orders, threshold):
        repo = _build_repo(customers, orders)
        query = (
            f"SELECT name, amount FROM orders JOIN customers ON cid = cid "
            f"WHERE amount > {threshold}"
        )
        compiled = QueryEngine(repo).sql(query)
        oracle = RowEngine(repo).sql(query)
        assert compiled.rows == oracle.rows
        assert compiled.sim_ms == pytest.approx(oracle.sim_ms)
        assert row_counts(compiled.operator_stats) == row_counts(oracle.operator_stats)

    @settings(max_examples=25, deadline=None)
    @given(
        customers=customers_strategy,
        orders=orders_strategy,
        group_threshold=st.integers(min_value=0, max_value=100),
    )
    def test_aggregates_identical(self, customers, orders, group_threshold):
        repo = _build_repo(customers, orders)
        query = (
            f"SELECT cid, count(*) AS n, sum(amount) AS total FROM orders "
            f"WHERE amount > {group_threshold} GROUP BY cid"
        )
        compiled = QueryEngine(repo).sql(query)
        oracle = RowEngine(repo).sql(query)
        assert compiled.rows == oracle.rows
        assert compiled.sim_ms == pytest.approx(oracle.sim_ms)


class TestAdaptiveEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        customers=st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=20, unique=True
        ),
        initial_orders=orders_strategy,
        extra_orders=orders_strategy,
        penalty=st.sampled_from([1.0, 1.0, 4.0, 16.0]),
    )
    def test_replanned_runs_keep_the_multiset(
        self, customers, initial_orders, extra_orders, penalty
    ):
        """Statistics collected before growth + an optional degraded node:
        whatever the re-optimizer decides, the answer is the answer."""
        repo = _build_repo(customers, initial_orders)
        engine = QueryEngine(repo)
        stats = engine.collect_statistics(["customers", "orders"])
        for i, (cid, amount) in enumerate(extra_orders):
            repo.store.put(from_relational_row(
                f"x{i}", "orders",
                {"oid": 10_000 + i, "cid": cid, "amount": amount},
            ))
        if penalty > 1.0:
            repo.probe_penalty = lambda: penalty
        query = "SELECT name, amount FROM orders JOIN customers ON cid = cid"
        adaptive = engine.sql(query, planner="costbased", statistics=stats, adaptive=True)
        static = RowEngine(repo).sql(query)
        assert _multiset(adaptive.rows) == _multiset(static.rows)

    @settings(max_examples=15, deadline=None)
    @given(
        customers=st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=20, unique=True
        ),
        orders=orders_strategy,
    )
    def test_fresh_statistics_never_replan(self, customers, orders):
        """Well-estimated shapes: zero replans, and the adaptive run is
        byte-identical to the non-adaptive compiled run."""
        repo = _build_repo(customers, orders)
        engine = QueryEngine(repo)
        stats = engine.collect_statistics(["customers", "orders"])
        query = "SELECT name, amount FROM orders JOIN customers ON cid = cid"
        adaptive = engine.sql(query, planner="costbased", statistics=stats, adaptive=True)
        plain = engine.sql(query, planner="costbased", statistics=stats)
        assert not [
            r for r in adaptive.adaptive_reports if isinstance(r, ReplanReport)
        ]
        assert adaptive.rows == plain.rows
        assert adaptive.sim_ms == pytest.approx(plain.sim_ms)
