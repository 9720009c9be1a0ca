"""Sessions: the tenant-bound client API of the appliance.

``Impliance.connect(principal=..., qos=...)`` returns a :class:`Session`
— the unit of multi-tenancy.  Every call on a session becomes a
:class:`~repro.serving.scheduler.Request` attributed to the session's
tenant and QoS tier, runs through the scheduler (which counts it), and
— when the session carries an
:class:`~repro.security.policy.AccessPolicy` — is enforced on the hot
path through the same repository-boundary scoping
:class:`~repro.security.enforcement.SecureSession` pioneered.

The *implicit default session* (principal ``default``, interactive tier,
no policy) is what the legacy bare entry points
(``Impliance.search``/``sql``/``faceted``/``graph``) now delegate to;
its results are byte-identical to the pre-serving implementations — the
query bodies below are those implementations, moved, with only tenant
accounting added around them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.model.document import Document
from repro.query.faceted import FacetedSession
from repro.query.graph import GraphQuery
from repro.query.keyword import KeywordSearch, copy_hits
from repro.query.result import QueryResult
from repro.security.policy import AccessDenied, Action, Principal, SYSTEM_ROLE
from repro.serving.scheduler import Request


class Session:
    """One tenant's handle on the appliance.

    Sessions are cheap (no per-session threads, caches or queues) and
    are context managers::

        with app.connect(principal=alice, qos="interactive") as s:
            s.search("widget")
            s.sql("SELECT * FROM orders")
    """

    def __init__(
        self,
        app,
        principal: Principal,
        qos: str,
        *,
        policy=None,
        audit=None,
        tenant: Optional[str] = None,
        session_id: int = 0,
    ) -> None:
        self._app = app
        self.principal = principal
        self.qos = qos
        self.tenant = tenant if tenant is not None else principal.name
        self.policy = policy
        self.session_id = session_id
        self.closed = False
        if policy is not None:
            from repro.security.enforcement import SecureSession

            self._secure = SecureSession(app, principal, policy, audit)
        else:
            self._secure = None
        #: The repository queries run over: the appliance itself for an
        #: unrestricted session, the policy-scoped view otherwise.
        self._repo = self._secure if self._secure is not None else app
        #: Standing queries opened on this session (closed with it).
        self._subscriptions: List[Any] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def audit(self):
        return self._secure.audit if self._secure is not None else None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for subscription in self._subscriptions:
            subscription.close()
        self._subscriptions = []
        self.closed = True

    def _run(self, kind: str, fn) -> Any:
        if self.closed:
            raise RuntimeError(f"session {self.session_id} is closed")
        return self._app.serving.execute_inline(
            Request(tenant=self.tenant, qos=self.qos, kind=kind, fn=fn)
        )

    # ------------------------------------------------------------------
    # query interfaces — the moved Impliance bodies (byte-identical on
    # the default session), tenant-attributed and policy-scoped.
    # ------------------------------------------------------------------
    def search(self, query: str, top_k: int = 10) -> QueryResult:
        """Keyword search (Section 3.2.1), attributed to this tenant."""
        return self._run("search", lambda: self._search_impl(query, top_k))

    def _search_impl(self, query: str, top_k: int) -> QueryResult:
        app = self._app
        # Open sessions share the SQL result-cache tier (docs/CACHING.md):
        # an answer is valid while the text-index generation it read is
        # current.  Policy sessions never touch it — every grant must be
        # audited, and cached hits must not outlive a policy change.
        cache = app.caches if self._secure is None and app.caches.enabled else None
        entry = None
        with app.telemetry.span("query.search", query=query) as span:
            if cache is not None:
                epoch = cache.epoch
                generation = app.indexes.text.generation
                key = ("search", query, top_k)
                entry = cache.results.lookup(key, generation)
            if entry is not None:
                span.tag("cache", "hit")
                hits = copy_hits(entry.hits)
            elif self._secure is None:
                hits = KeywordSearch(app).search(query, top_k=top_k)
            else:
                # The policy path: SecureSession.search applies QUERY
                # filtering at the hit boundary and audits each grant.
                hits = self._secure.search(query, top_k=top_k)
            span.tag("hits", len(hits))
        app.telemetry.inc("query.search")
        result = QueryResult.from_hits(hits, trace=span.record())
        if entry is not None:
            result.cached = True  # search is unpriced: no sim-ms either way
        elif cache is not None and cache.epoch == epoch and cache.can_admit_results():
            # Same admission guards as SQL: nothing invalidated while we
            # ran, and no segment missing (degraded answers never cached).
            cache.results.store(
                key, result.rows, frozenset(), 0.0, hits=copy_hits(hits), generation=generation
            )
        return app._flag_degradation(result)

    def sql(
        self,
        query: str,
        planner: str = "simple",
        statistics=None,
        adaptive: bool = False,
    ) -> QueryResult:
        """SQL over views (Figure 2's legacy-application path)."""
        return self._run(
            "sql", lambda: self._sql_impl(query, planner, statistics, adaptive)
        )

    def _sql_impl(self, query: str, planner: str, statistics, adaptive: bool) -> QueryResult:
        app = self._app
        if self._secure is None:
            return app._flag_degradation(
                app.engine.sql(
                    query, planner=planner, statistics=statistics, adaptive=adaptive
                )
            )
        # Policy-scoped SQL: an engine over the secured repository only
        # ever sees permitted documents, so joins and aggregates cannot
        # leak through side channels (no result cache on this engine —
        # cached rows must never outlive a policy change).
        from repro.query.engine import QueryEngine

        result = QueryEngine(self._secure).sql(
            query, planner=planner, statistics=statistics, adaptive=adaptive
        )
        self._secure.audit.record(
            self.principal.name, Action.QUERY, "-", True, f"sql:{query}"
        )
        return app._flag_degradation(result)

    def faceted(self, query: Optional[str] = None) -> FacetedSession:
        """Start a guided-search session scoped to this tenant."""
        return self._run("faceted", lambda: self._faceted_impl(query))

    def _faceted_impl(self, query: Optional[str]) -> FacetedSession:
        app = self._app
        if self._secure is None:
            return FacetedSession(app, query, telemetry=app.telemetry)
        visible = {d.doc_id for d in self._secure.documents()}
        return FacetedSession(self._secure, query, within=visible)

    def graph(self) -> GraphQuery:
        """The graph/connection query interface."""
        return self._run("graph", lambda: self._graph_impl())

    def _graph_impl(self) -> GraphQuery:
        app = self._app
        if self._secure is None:
            return GraphQuery(app, telemetry=app.telemetry)
        return GraphQuery(self._secure)

    def connections(
        self,
        source: str,
        target: str,
        max_hops: int = 4,
        relations: Optional[Sequence[str]] = None,
    ) -> QueryResult:
        """How is *source* connected to *target*?"""
        return self._run(
            "connections",
            lambda: self._app._flag_degradation(
                self._graph_impl().connected(
                    source, target, max_hops=max_hops, relations=relations
                )
            ),
        )

    def find(self, query, top_k: int = 10) -> QueryResult:
        """Hybrid search over content, structure, values, facets, and
        annotations (Section 3.2's unified search)."""
        return self._run("find", lambda: self._find_impl(query, top_k))

    def _find_impl(self, query, top_k: int) -> QueryResult:
        from repro.query.hybrid import HybridSearch

        app = self._app
        with app.telemetry.span("query.hybrid") as span:
            hits = HybridSearch(self._repo).search(query, top_k=top_k)
            span.tag("hits", len(hits))
        app.telemetry.inc("query.hybrid")
        return app._flag_degradation(QueryResult.from_hits(hits, trace=span.record()))

    # ------------------------------------------------------------------
    # writes — tenant-attributed ingest through the staged pipeline
    # ------------------------------------------------------------------
    def _check_may_write(self) -> None:
        """Coarse write gate for policy sessions: the principal must hold
        a role some rule grants UPDATE (system bypasses, as everywhere).
        Per-document UPDATE checks still apply on :meth:`update_document`."""
        if self.policy is None or SYSTEM_ROLE in self.principal.roles:
            return
        from repro.security.policy import Effect

        for rule in self.policy.rules():
            if (
                rule.effect is Effect.ALLOW
                and Action.UPDATE in rule.actions
                and self.principal.has_any_role(rule.roles)
            ):
                return
        raise AccessDenied(f"{self.principal.name} may not ingest")

    def ingest(self, payload: Any, format: Optional[str] = None, **kwargs: Any):
        """Single-payload ingest, attributed to this tenant."""
        self._check_may_write()
        return self._run("ingest", lambda: self._app.ingest(payload, format, **kwargs))

    def ingest_many(
        self,
        payloads: Iterable[Any],
        format: Optional[str] = None,
        *,
        table: Optional[str] = None,
        delimiter: str = ",",
    ) -> List[Document]:
        """Bulk ingest through the staged pipeline (the fast path)."""
        self._check_may_write()
        return self._run(
            "ingest_many",
            lambda: self._app.ingest_many(
                payloads, format, table=table, delimiter=delimiter
            ),
        )

    def ingest_stream(
        self,
        payloads: Iterable[Any],
        format: Optional[str] = None,
        *,
        table: Optional[str] = None,
        delimiter: str = ",",
    ):
        """Streaming ingest under the configured admission policy."""
        self._check_may_write()
        return self._run(
            "ingest_stream",
            lambda: self._app.ingest_stream(
                payloads, format, table=table, delimiter=delimiter
            ),
        )

    def delete_document(self, doc_id: str) -> Document:
        """Tombstone a document (append-only delete), tenant-attributed.
        History and time travel survive; reads, scans, indexes, and
        incrementally maintained views see the document as gone."""
        self._check_may_write()
        return self._run("delete", lambda: self._app.delete_document(doc_id))

    # ------------------------------------------------------------------
    # standing queries — continuous results over the invalidation bus
    # ------------------------------------------------------------------
    def subscribe(self, query: str, on_delta=None):
        """Open a standing query (SQL or keyword search) on this tenant.

        Returns a :class:`~repro.query.continuous.Subscription` whose
        result deltas are pushed once per invalidation epoch as ingest
        batches commit; notifications run through the scheduler as this
        tenant's ``discovery``-tier work.  Poll with ``subscription.poll()``
        or pass ``on_delta``.  Closed automatically with the session.
        """
        subscription = self._run(
            "subscribe",
            lambda: self._app.subscriptions.subscribe(
                query, tenant=self.tenant, on_delta=on_delta
            ),
        )
        self._subscriptions.append(subscription)
        return subscription

    def update_document(self, doc_id: str, content: Any) -> Document:
        """Versioned update; per-document UPDATE enforcement when the
        session carries a policy."""
        if self._secure is not None:
            return self._run(
                "update", lambda: self._secure.update_document(doc_id, content)
            )
        return self._run(
            "update", lambda: self._app.update_document(doc_id, content)
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """This tenant's slice of the serving stats."""
        return self._app.serving.stats()["tenants"].get(
            self.tenant,
            {"admitted": 0, "completed": 0, "failed": 0, "failed_by_class": {},
             "by_qos": {}, "mean_latency_ms": 0.0},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Session(tenant={self.tenant!r}, principal={self.principal.name!r}, "
            f"qos={self.qos!r}, policy={'yes' if self.policy else 'no'})"
        )
