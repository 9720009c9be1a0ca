"""Serving-layer invariant, property-tested.

**Byte identity** — for any interleaved schedule of queries (and chaos
fail/recover events applied identically to both sides), the session API
returns exactly what the legacy bare entry points return.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ApplianceConfig, Impliance, Principal

# ----------------------------------------------------------------------
# sessions are byte-identical to the legacy entry points
# ----------------------------------------------------------------------
ops = st.lists(
    st.sampled_from(("search", "sql", "faceted", "graph", "fail", "recover")),
    min_size=1,
    max_size=12,
)


def make_app() -> Impliance:
    app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
    app.ingest_many(
        [
            {"oid": i, "amount": 10.0 * i, "region": ("east", "west", "north")[i % 3]}
            for i in range(1, 9)
        ],
        table="orders",
    )
    app.ingest("Ms. Alice Johnson praised the WidgetPro downtown.")
    app.ingest("Bob reported the WidgetPro crashing at the office.")
    app.discover()
    return app


def apply_event(app: Impliance, event: str) -> None:
    if event == "fail" and len(app.cluster.data_nodes) > 1:
        app.fail_node(app.cluster.data_nodes[0].node_id)
    elif event == "recover":
        dead = [
            n
            for n in app.cluster.nodes_of(
                app.cluster.data_nodes[0].kind, alive_only=False
            )
            if not n.alive
        ]
        if dead:
            app.recover_node(dead[0].node_id)


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(schedule=ops)
def test_session_byte_identical_to_legacy_under_chaos(schedule):
    legacy_app, session_app = make_app(), make_app()
    session = session_app.connect(
        principal=Principal("tenant-x", ("user",)), qos="interactive"
    )
    for op in schedule:
        if op in ("fail", "recover"):
            apply_event(legacy_app, op)
            apply_event(session_app, op)
            continue
        if op == "search":
            a = legacy_app.search("widgetpro")
            b = session.search("widgetpro")
            assert [(h.doc_id, h.score) for h in a.hits] == [
                (h.doc_id, h.score) for h in b.hits
            ]
            assert a.degraded == b.degraded
        elif op == "sql":
            stmt = "SELECT region, count(*) AS n FROM orders GROUP BY region"
            a = legacy_app.sql(stmt)
            b = session.sql(stmt)
            assert a.rows == b.rows
            assert a.degraded == b.degraded
        elif op == "faceted":
            assert (
                legacy_app.faceted("widgetpro").facet_counts("format")
                == session.faceted("widgetpro").facet_counts("format")
            )
        elif op == "graph":
            assert legacy_app.graph().hubs(top=5) == session.graph().hubs(top=5)
