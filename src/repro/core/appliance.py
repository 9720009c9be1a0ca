"""The Impliance appliance: the public, single-system-image facade.

This class is what a user of the appliance sees (Section 2.2's "stewing
pot"): throw data in with no preparation, search it immediately, let
asynchronous discovery enrich it, and query the enriched soup through
keyword, faceted, SQL, and graph interfaces.  Internally it wires the
simulated cluster, global indexes, the view catalog, the discovery
engine, execution management, storage management, and rolling upgrades.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Union

from repro.cache import CacheHierarchy
from repro.cluster.network import Network
from repro.cluster.node import NodeKind
from repro.cluster.topology import ImplianceCluster
from repro.core.config import ApplianceConfig
from repro.core.upgrades import UpgradeEngine, UpgradePolicy, UpgradeReport
from repro.discovery.annotators import Annotator, default_annotators
from repro.discovery.mining import PiggybackMiner
from repro.discovery.pipeline import DiscoveryEngine
from repro.discovery.relationships import RelationshipRule
from repro.exec.parallel import ParallelExecutor
from repro.index.facets import FacetDefinition, metadata_facet, source_format_facet
from repro.index.manager import IndexManager
from repro.ingest import IngestPipeline, IngestReport
from repro.model.converters import (
    from_csv,
    from_email,
    from_json_object,
    from_relational_row,
    from_text,
    from_xml,
    sniff_format,
)
from repro.model.document import Document
from repro.model.projection import projection_of
from repro.model.views import RelationalView, ViewCatalog, base_table_view
from repro.obs.telemetry import Telemetry
from repro.query.continuous import SubscriptionManager
from repro.query.engine import QueryEngine
from repro.query.faceted import FacetedSession
from repro.query.materialized import MaterializationManager, MaterializedQuery
from repro.query.graph import GraphQuery
from repro.query.result import QueryResult
from repro.security.policy import Principal
from repro.serving import QOS_INTERACTIVE, QOS_TIERS, RequestScheduler, Session
from repro.storage.compression import DictionaryCompressor
from repro.storage.recovery import ContinuousReplicator, RestoreReport
from repro.storage.replication import ReplicaManager
from repro.storage.store import DocumentStore
from repro.util import IdGenerator, validate_choice
from repro.virt.execmgr import ExecutionManager, Task, TaskClass
from repro.virt.storagemgr import StorageManager


class Impliance:
    """One appliance instance — operational out of the box.

    >>> app = Impliance()
    >>> app.ingest("hello world, the widget is great")
    >>> app.discover()
    >>> hits = app.search("widget")

    The constructor performs the entire "deployment": hardware detection,
    software wiring, index/creation, annotator installation.  No further
    setup calls are required before ingesting or querying — the TCO
    experiment counts exactly this.
    """

    def __init__(self, config: Optional[ApplianceConfig] = None) -> None:
        self.config = config if config is not None else ApplianceConfig()
        # Observability first: every other subsystem threads through it.
        self.telemetry = Telemetry(enabled=self.config.telemetry)
        self.cluster = ImplianceCluster(
            n_data=self.config.n_data_nodes,
            n_grid=self.config.n_grid_nodes,
            n_cluster=self.config.n_cluster_nodes,
            network=Network(
                latency_ms=self.config.network_latency_ms,
                bandwidth=self.config.network_bandwidth,
            ),
            buffer_capacity=self.config.buffer_capacity,
        )
        self.cluster.attach_telemetry(self.telemetry)
        # Single-system-image catalog: a global index over everything,
        # plus the view catalog legacy SQL applications use (Figure 2).
        self.indexes = IndexManager(
            facets=[source_format_facet(), metadata_facet("table", "table")],
            telemetry=self.telemetry if self.telemetry.enabled else None,
        )
        self.views = ViewCatalog()
        # The cache hierarchy sits between the engine and everything that
        # can change an answer: every commit and every chaos/topology
        # event reach it on the cluster's change feed, and results are
        # only admitted while no storage segment is missing (a degraded
        # answer must never outlive the degradation).
        self.caches = CacheHierarchy(self.config.cache, telemetry=self.telemetry)
        self.caches.admit_results = lambda: self.missing_segments() == 0
        self.engine = QueryEngine(
            self,
            telemetry=self.telemetry,
            batch_size=self.config.batch_size,
            cache=self.caches,
            adaptive_config=self.config.adaptive,
        )
        self.materializations = MaterializationManager(self.engine)
        self.executor = ParallelExecutor(
            self.cluster,
            telemetry=self.telemetry,
            batch_size=self.config.batch_size,
        )
        self.miner = PiggybackMiner()
        # The staged write path every ingest entry point (a single document
        # is a batch of one) and every discovery chunk commits through.
        self.ingest_pipeline = IngestPipeline(self, self.config.ingest)

        annotators = default_annotators(
            products=self.config.product_lexicon,
            locations=self.config.location_lexicon,
            procedures=self.config.procedure_lexicon,
        )
        self.discovery = DiscoveryEngine(
            repository=self,
            persist=self.ingest_pipeline.commit,
            annotators=annotators,
            telemetry=self.telemetry,
        )
        self.background = ExecutionManager(
            self.cluster.grid_nodes or self.cluster.data_nodes,
            background_share=self.config.background_share,
        )
        self.upgrades = UpgradeEngine()
        # The serving layer: every session request runs through this
        # scheduler, which counts it per tenant and QoS tier
        # (docs/SERVING.md).
        self.serving = RequestScheduler(
            telemetry=self.telemetry if self.telemetry.enabled else None,
        )
        # Standing queries: result deltas pushed per invalidation epoch,
        # delivered through the scheduler as discovery-tier work.
        self.subscriptions = SubscriptionManager(self)
        self._default_session: Optional[Session] = None
        self._session_count = 0

        # Continuous replication: every group commit published on the
        # feed is shipped to a per-data-node standby log on a cluster
        # node, and a crashed node's standby is promoted onto the
        # survivors as snapshot + log replay (docs/RECOVERY.md).
        self.recovery = ContinuousReplicator(
            self.cluster,
            config=self.config.recovery,
            telemetry=self.telemetry if self.telemetry.enabled else None,
        )
        self._subscribe_to_feed()

        # Per-data-node storage managers + a miner on each buffer pool.
        # One shared cold-path compressor: the key dictionary is learned
        # across every node's sealed segments, and its byte counters flow
        # onto the shared metrics (storage.compress.*).
        self._storage_managers: List[StorageManager] = []
        storage_telemetry = self.telemetry if self.telemetry.enabled else None
        self.compressor = DictionaryCompressor(telemetry=storage_telemetry)
        data_ids = [n.node_id for n in self.cluster.data_nodes]
        for node in self.cluster.data_nodes:
            assert node.store is not None
            self._storage_managers.append(
                StorageManager(
                    node.store,
                    ReplicaManager(
                        data_ids,
                        telemetry=storage_telemetry,
                        network=self.cluster.network,
                    ),
                    telemetry=storage_telemetry,
                    compressor=self.compressor,
                )
            )
            self.miner.attach(node.store.buffer_pool)

        self._ids: Dict[str, IdGenerator] = {}
        self._auto_views: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Repository protocol (query engine / discovery look through this)
    # ------------------------------------------------------------------
    def documents(self) -> Iterator[Document]:
        return self.cluster.scan_all()

    def document_batches(self, batch_size: int = 256) -> Iterator[List[Document]]:
        """Batched scan feeding the vectorized engine (same order as
        :meth:`documents`)."""
        return self.cluster.scan_all_batches(batch_size)

    def view_column_batches(self, view, batch_size: int = 256):
        """Native columnar scan across the cluster (docs/STORAGE.md):
        still-encoded batches straight off the data nodes' column pages,
        or ``None`` when *view* cannot be answered columnar.  The charged
        document count is the cluster-wide live population — the same
        documents :meth:`documents` would have walked."""
        batches = self.cluster.scan_all_view_batches(view, batch_size)
        if batches is None:
            return None
        return batches, self.cluster.live_doc_count

    def lookup(self, doc_id: str) -> Optional[Document]:
        return self.cluster.lookup(doc_id)

    # ------------------------------------------------------------------
    # internal wiring
    # ------------------------------------------------------------------
    def _subscribe_to_feed(self) -> None:
        """The one place derived state subscribes to the change feed.

        Every commit — ingest, discovery's annotation commits, updates,
        deletes, failover's promote — reaches, in this order: the node
        indexes (the cluster subscribed them when it was built), then the
        global index, the auto views and the discovery queue
        (:meth:`_on_commit`), the caches, IVM, standing queries and, last,
        the standby log.  Caches invalidate before the incremental
        consumers run, so a maintainer or standing query that recomputes
        through the engine is never served a result cached against the
        previous epoch; shipping is passive and sees the commit last.
        """
        feed = self.cluster.feed
        feed.subscribe_deltas(self._on_commit)
        self.caches.attach_to_bus(feed)
        self.materializations.attach_to_bus(feed)
        self.subscriptions.attach_to_bus(feed)
        self.recovery.attach_to_bus(feed)

    def _on_commit(self, changeset) -> None:
        """Feed stages two to four: the global index takes the whole
        change set (tombstones unindex), the auto views grow and the
        discovery queue takes the live documents, in commit order."""
        documents = changeset.documents
        self.indexes.index_batch(documents)
        live = [document for document in documents if not document.is_tombstone]
        self._maintain_auto_views(live)
        self.discovery.enqueue_many(live)

    def _maintain_auto_views(self, documents: Sequence[Document]) -> None:
        """Auto-define/extend the identity views of tabular documents —
        rows are SQL-queryable immediately, with no schema declaration,
        whatever channel they arrived by (relational, CSV, consolidated).

        Batched: columns are unioned per table first, so one ingest batch
        replaces each grown view at most once.  The resulting catalog
        state is identical to per-document maintenance over the same
        sequence.
        """
        per_table: Dict[str, Set[str]] = {}
        for document in documents:
            table = document.metadata.get("table")
            if not table:
                continue
            columns = {
                path[-1]
                for path in projection_of(document).leaf_paths
                if len(path) == 2 and path[0] == table
            }
            if columns:  # content shaped like rows of this table
                per_table.setdefault(table, set()).update(columns)
        for table, columns in per_table.items():
            known = self._auto_views.get(table)
            if known is None:
                self._auto_views[table] = set(columns)
                if table not in self.views:
                    self.views.define(base_table_view(table, table, sorted(columns)))
            elif not columns <= known:
                known |= columns
                self.views.replace(base_table_view(table, table, sorted(known)))

    def _next_id(self, prefix: str) -> str:
        gen = self._ids.get(prefix)
        if gen is None:
            gen = IdGenerator(prefix)
            self._ids[prefix] = gen
        return gen.next()

    # ------------------------------------------------------------------
    # ingestion: any type, schema, or format — no preparation
    # ------------------------------------------------------------------
    def ingest_document(self, document: Document) -> Document:
        """Persist an already-converted document (routes to its home
        data node, indexes it, queues discovery) — a staged batch of
        one."""
        return self.ingest_pipeline.run_documents((document,))[0]

    def _convert(
        self,
        payload: Any,
        fmt: str,
        *,
        table: Optional[str] = None,
        doc_id: Optional[str] = None,
        title: str = "",
        primary_key: Optional[Sequence[str]] = None,
        metadata: Optional[Mapping[str, Any]] = None,
        delimiter: str = ",",
    ) -> List[Document]:
        """Parse/convert stage: normalize one payload of *fmt* into model
        documents (CSV fans out to one per record)."""
        if fmt == "document":
            return [payload]
        if fmt == "relational":
            if table is None:
                raise ValueError("relational ingest requires table=")
            the_id = doc_id or self._next_id(f"row-{table}")
            return [from_relational_row(the_id, table, payload, primary_key)]
        if fmt == "json":
            the_id = doc_id or self._next_id("doc")
            return [from_json_object(the_id, payload, metadata)]
        if fmt == "xml":
            the_id = doc_id or self._next_id("xml")
            return [from_xml(the_id, payload)]
        if fmt == "email":
            the_id = doc_id or self._next_id("eml")
            return [from_email(the_id, payload)]
        if fmt == "csv":
            if table is None:
                raise ValueError("CSV ingest requires table=")
            prefix = doc_id or self._next_id(f"csv-{table}")
            return list(from_csv(prefix, table, payload, delimiter=delimiter))
        if fmt == "text":
            the_id = doc_id or self._next_id("txt")
            return [from_text(the_id, payload, title)]
        raise ValueError(f"unknown ingest format {fmt!r}")

    def ingest(
        self,
        payload: Any,
        format: Optional[str] = None,
        *,
        table: Optional[str] = None,
        doc_id: Optional[str] = None,
        title: str = "",
        primary_key: Optional[Sequence[str]] = None,
        metadata: Optional[Mapping[str, Any]] = None,
        delimiter: str = ",",
    ) -> Union[Document, List[Document]]:
        """Throw anything in the pot: the single ingestion entry point.

        *payload* may be a :class:`Document`, a mapping (a relational row
        when *table* is given, a JSON tree otherwise), or a string of XML,
        e-mail, CSV (*table* required), or free text.  When *format* is
        omitted the payload is sniffed (:func:`sniff_format`); pass one of
        ``"document"``, ``"relational"``, ``"json"``, ``"xml"``,
        ``"email"``, ``"csv"``, ``"text"`` to override.

        Returns the persisted :class:`Document` — or a list of them for
        CSV, which yields one document per record.
        """
        fmt = format or sniff_format(payload, table=table)
        with self.telemetry.span("ingest", format=fmt) as span:
            documents = self._convert(
                payload,
                fmt,
                table=table,
                doc_id=doc_id,
                title=title,
                primary_key=primary_key,
                metadata=metadata,
                delimiter=delimiter,
            )
            stored = self.ingest_pipeline.run_documents(documents)
            result: Union[Document, List[Document]] = (
                stored if fmt == "csv" else stored[0]
            )
            span.tag("docs", len(stored))
        self.telemetry.inc(f"ingest.format.{fmt}")
        return result

    def ingest_many(
        self,
        payloads: Iterable[Any],
        format: Optional[str] = None,
        *,
        table: Optional[str] = None,
        delimiter: str = ",",
    ) -> List[Document]:
        """Bulk ingest through the staged pipeline (the fast path).

        Each payload is converted exactly as :meth:`ingest` would convert
        it (per-payload sniffing when *format* is omitted); the resulting
        documents then flow through the batched write path — group-commit
        storage writes sharded across the data nodes, one index
        maintenance round and one cache invalidation epoch per batch.
        Returns every stored document in arrival order (CSV payloads fan
        out in place).
        """
        documents: List[Document] = []
        formats: Dict[str, int] = {}
        for payload in payloads:
            fmt = format or sniff_format(payload, table=table)
            documents.extend(
                self._convert(payload, fmt, table=table, delimiter=delimiter)
            )
            formats[fmt] = formats.get(fmt, 0) + 1
        with self.telemetry.span("ingest.many", payloads=len(documents)) as span:
            stored = self.ingest_pipeline.run_documents(documents)
            span.tag("docs", len(stored))
        for fmt, count in formats.items():
            self.telemetry.inc(f"ingest.format.{fmt}", count)
        return stored

    def ingest_stream(
        self,
        payloads: Iterable[Any],
        format: Optional[str] = None,
        *,
        table: Optional[str] = None,
        delimiter: str = ",",
    ) -> "IngestReport":
        """Streaming ingest under the configured admission policy.

        Like :meth:`ingest_many` but honors the staging queue's admission
        control: a ``"shed"``-configured appliance may drop documents
        when the queue is full rather than stalling the producer.  The
        returned :class:`repro.ingest.IngestReport` accounts for every
        offered, stored, and shed document.
        """
        def documents() -> Iterator[Document]:
            for payload in payloads:
                fmt = format or sniff_format(payload, table=table)
                self.telemetry.inc(f"ingest.format.{fmt}")
                yield from self._convert(
                    payload, fmt, table=table, delimiter=delimiter
                )

        with self.telemetry.span("ingest.stream") as span:
            report = self.ingest_pipeline.run_stream(documents())
            span.tag("docs", report.stored)
        return report

    def update_document(self, doc_id: str, content: Any) -> Document:
        """Versioned update through the consistency group (never in
        place, Section 4)."""
        applied, _ = self.executor.cluster_update({doc_id: lambda _old: content})
        if applied != 1:
            raise LookupError(f"no document {doc_id!r} to update")
        updated = self.lookup(doc_id)
        assert updated is not None
        return updated

    def delete_document(self, doc_id: str) -> Document:
        """Delete *doc_id* by appending a tombstone version (Section 4:
        never in place — history and snapshots survive).

        The tombstone flows down the change feed as a delete change:
        indexes drop the document, materialized views subtract its rows
        incrementally, subscriptions see it leave their results, and
        ``lookup``/scans answer as if it were never stored.  Returns the
        tombstone; raises LookupError for an unknown document.
        """
        for node in self.cluster.data_nodes:
            if node.store is not None and node.store.contains(doc_id):
                tombstone = node.store.delete(doc_id)
                self.telemetry.inc("ingest.deletes")
                return tombstone
        raise LookupError(f"no document {doc_id!r} to delete")

    # ------------------------------------------------------------------
    # discovery control
    # ------------------------------------------------------------------
    def discover(self, budget: Optional[int] = None) -> int:
        """Run discovery synchronously (drain, or up to *budget* docs)."""
        if budget is None:
            return self.discovery.drain()
        return self.discovery.run_pass(budget)

    def schedule_discovery(self, batch: int = 32, cost_ms_per_doc: float = 1.0) -> int:
        """Queue the current backlog as background tasks; returns the
        number of tasks submitted.  Use :meth:`run_background` to make
        progress alongside interactive work."""
        backlog = self.discovery.backlog
        submitted = 0
        while backlog > 0:
            todo = min(batch, backlog)
            self.background.submit(
                Task(
                    label="discovery-pass",
                    cost_ms=todo * cost_ms_per_doc,
                    task_class=TaskClass.BACKGROUND,
                    action=lambda todo=todo: self.discovery.run_pass(todo),
                )
            )
            backlog -= todo
            submitted += 1
        return submitted

    def run_background(self, quantum_ms: float = 100.0) -> None:
        self.background.run_quantum(quantum_ms)

    def add_annotator(self, annotator: Annotator) -> None:
        self.discovery.annotators.append(annotator)

    def add_relationship_rule(self, rule: RelationshipRule) -> None:
        self.discovery.add_rule(rule)

    def consolidate(
        self,
        source_docs: Sequence[Document],
        target_docs: Sequence[Document],
        target_root: str,
        dedup: bool = True,
    ) -> List[Document]:
        """Schema-map *source_docs* into the target schema and ingest the
        consolidated DERIVED documents (Section 3.2: purchase orders "can
        all be searched together" whatever channel they arrived by).

        With *dedup* (default), a source record whose mapped values match
        an existing target record is recognized as the *same business
        object*: no derived copy is ingested — aggregates must not
        "double-count revenues contained in diverse sources" (§2.2) —
        and a ``same_as`` edge links the channels for provenance.

        Returns the ingested consolidated documents (duplicates excluded).
        """
        from repro.discovery.schemamapping import SchemaMapper
        from repro.index.joins import JoinEdge

        mapper = SchemaMapper()
        targets = list(target_docs)
        mapping = mapper.propose(list(source_docs), targets, target_root)
        consolidated = []
        for document in source_docs:
            duplicate_of = None
            if dedup:
                duplicate_of = mapper.find_duplicate(document, mapping, targets)
            if duplicate_of is not None:
                self.indexes.joins.add(
                    JoinEdge("same_as", document.doc_id, duplicate_of, confidence=0.9)
                )
                continue
            derived = mapper.consolidate(
                document, mapping, self._next_id(f"cons-{target_root}")
            )
            consolidated.append(self.ingest_document(derived))
        return consolidated

    # ------------------------------------------------------------------
    # sessions — the serving layer's client API (docs/SERVING.md)
    # ------------------------------------------------------------------
    def connect(
        self,
        principal: Optional[Principal] = None,
        *,
        qos: Optional[str] = None,
        policy=None,
        audit=None,
        tenant: Optional[str] = None,
    ) -> Session:
        """Open a tenant-bound :class:`~repro.serving.Session`.

        Every request issued on the session is attributed to the
        principal's tenant and the session's QoS tier in
        ``stats()["serving"]``, and — when *policy* is given — enforced
        on the hot path at the repository boundary.  *qos* is one of
        ``"interactive"`` (the default), ``"batch"``, ``"discovery"``;
        anything else raises ``ValueError``.
        """
        if principal is None:
            principal = Principal("default", ("system",))
        elif not isinstance(principal, Principal):
            raise TypeError(
                f"connect(principal=...) takes a repro.security.Principal, "
                f"got {type(principal).__name__}: {principal!r}"
            )
        if qos is None:
            qos = QOS_INTERACTIVE
        validate_choice("Impliance.connect", "qos", qos, QOS_TIERS)
        self._session_count += 1
        return Session(
            self,
            principal,
            qos,
            policy=policy,
            audit=audit,
            tenant=tenant,
            session_id=self._session_count,
        )

    def default_session(self) -> Session:
        """The implicit session the bare query entry points delegate to:
        principal ``default``, the default QoS tier, no policy — results
        are byte-identical to the pre-session entry points."""
        if self._default_session is None or self._default_session.closed:
            self._default_session = self.connect()
        return self._default_session

    # ------------------------------------------------------------------
    # query interfaces — thin shims over the implicit default session.
    # Deprecation path: prefer ``app.connect(...).search(...)``; these remain for existing
    # callers and delegate verbatim — see docs/SERVING.md for the
    # migration guide.
    # ------------------------------------------------------------------
    def _flag_degradation(self, result: QueryResult) -> QueryResult:
        """Graceful degradation: a query issued while replicas are
        unreachable still answers, but the result is flagged partial
        with the count of segments that had no live copy."""
        missing = self.missing_segments()
        if missing:
            result.mark_degraded(missing)
            self.telemetry.inc("query.degraded")
        return result

    def search(self, query: str, top_k: int = 10) -> QueryResult:
        """Keyword search — works out of the box (Section 3.2.1).

        Deprecated in favor of ``connect().search()``; delegates to the
        implicit default session (byte-identical results).
        """
        return self.default_session().search(query, top_k=top_k)

    def sql(
        self,
        query: str,
        planner: str = "simple",
        statistics=None,
        adaptive: bool = False,
    ) -> QueryResult:
        """SQL over views (Figure 2's legacy-application path).

        Deprecated in favor of ``connect().sql()``; delegates to the
        implicit default session (byte-identical results).
        """
        return self.default_session().sql(
            query, planner=planner, statistics=statistics, adaptive=adaptive
        )

    def faceted(self, query: Optional[str] = None) -> FacetedSession:
        """Start a guided-search session.

        Deprecated in favor of ``connect().faceted()``; delegates to the
        implicit default session.
        """
        return self.default_session().faceted(query)

    def graph(self) -> GraphQuery:
        """The graph/connection query interface.

        Deprecated in favor of ``connect().graph()``; delegates to the
        implicit default session.
        """
        return self.default_session().graph()

    def connections(
        self,
        source: str,
        target: str,
        max_hops: int = 4,
        relations: Optional[Sequence[str]] = None,
    ) -> QueryResult:
        """Graph search through the unified result surface: how is
        *source* connected to *target*?  Empty (falsy) result when no
        path exists; otherwise ``result.connection`` holds the
        :class:`ConnectionResult` and ``result.rows`` the edge list.
        """
        return self.default_session().connections(
            source, target, max_hops=max_hops, relations=relations
        )

    def as_of(self, ts: int):
        """Time-travel: a queryable snapshot of the whole appliance at
        logical time *ts* (Section 4 versioning, operationalized).

        >>> snapshot = app.as_of(earlier_ts)
        >>> snapshot.sql("SELECT * FROM orders")
        """
        from repro.query.snapshot import SnapshotRepository

        return SnapshotRepository(self, ts, views=self.views)

    def find(self, query, top_k: int = 10) -> QueryResult:
        """Hybrid search: one conjunctive query over content, structure,
        values, facets, and annotations (Section 3.2's unified search).

        *query* is a :class:`repro.query.hybrid.HybridQuery`.  Delegates
        to the implicit default session like the other entry points.
        """
        return self.default_session().find(query, top_k=top_k)

    def define_view(self, view: RelationalView) -> None:
        self.views.define(view)
        # New catalog state can change what plans are valid and what a
        # cached result would contain; flush through the bus.
        self.caches.on_catalog_change()

    def materialize(self, name: str, sql: str) -> MaterializedQuery:
        """Define a named materialized query; it refreshes lazily and is
        invalidated through the shared cache bus like every other tier."""
        return self.materializations.define(name, sql)

    def secure_session(self, principal, policy, audit=None):
        """A policy-scoped, audited view of the appliance for one
        principal (Section 4 security extension).  All query interfaces
        work on the returned session exactly as on the appliance.

        Prefer :meth:`connect` with ``policy=`` — it applies the same
        enforcement and attributes each request to the principal's tenant.
        """
        from repro.security.enforcement import SecureSession

        return SecureSession(self, principal, policy, audit)

    def define_facet(self, definition: FacetDefinition) -> None:
        self.indexes.facets.define(definition)
        # Back-fill the facet over already-stored documents.
        for document in self.documents():
            self.indexes.facets.add(document)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def upgrade_software(self, version: str, policy: Optional[UpgradePolicy] = None) -> UpgradeReport:
        engine = UpgradeEngine(policy) if policy is not None else self.upgrades
        return engine.apply(self.cluster.nodes(), version)

    def fail_node(self, node_id: str) -> int:
        """Inject a node failure and fail over autonomically.

        For a data node, the storage managers first re-plan segment
        placement without it.  Then its standby log is *promoted*
        (:meth:`ContinuousReplicator.promote`): its snapshot and log, plus
        any of its shipments still buffered, replay onto each chain's home
        on the live hash ring, skipping chains a survivor already holds,
        with the standby-to-survivor transfer and the replay CPU charged
        to the survivors.  The dead node's store is never read.  Returns
        the number of chains moved (none for a grid or cluster node).
        """
        node = self.cluster.fail_node(node_id)
        moved = 0
        if node.kind is NodeKind.DATA:
            for manager in self._storage_managers:
                manager.on_node_failure(node_id)
            moved = self.recovery.promote(node_id)
        # After the promote, not before: results computed mid-failover
        # must not survive the flush that announces the new topology.
        self.caches.bus.publish_node_event(node_id, "crash")
        return moved

    def recover_node(self, node_id: str) -> int:
        """Bring a failed node back into service.

        A dead data node is readmitted *empty*: its chains were promoted
        onto the survivors when it failed, so it gets a fresh store and
        node index (the store publishes on the same feed under the same
        node id), its storage manager and the piggyback miner rebind to
        them, and its standby re-bases on the empty store
        (:meth:`ContinuousReplicator.resync`).  New data routes to it from
        then on, and the storage managers drain replica deficits onto the
        returned capacity.  Returns the number of repair actions taken.
        """
        node = self.cluster.node(node_id)
        readmit = node.kind is NodeKind.DATA and not node.alive
        if readmit:
            self._fresh_store(node)
        self.cluster.recover_node(node_id)
        node.restore_speed()
        repairs = 0
        if readmit:
            for manager in self._storage_managers:
                repairs += len(manager.on_node_added(node_id))
            self.recovery.resync(node_id)
        self.caches.bus.publish_node_event(node_id, "recover")
        return repairs

    def _fresh_store(self, node) -> None:
        """Swap an empty store and node index into the dead data node
        *node*, and rebind its storage manager and the miner to them.

        The fresh store re-allocates segment ids from zero, so the
        manager gets a fresh replica placement over every data node, the
        dead ones — *node* included — marked failed until they return.
        """
        manager = next(m for m in self._storage_managers if m.store is node.store)
        store = DocumentStore(
            clock=self.cluster.clock,
            buffer_capacity=self.config.buffer_capacity,
            feed=self.cluster.feed,
            node_id=node.node_id,
        )
        node.store = store
        node.indexes = IndexManager()
        data_nodes = self.cluster.nodes_of(NodeKind.DATA, alive_only=False)
        replicas = ReplicaManager(
            [n.node_id for n in data_nodes],
            telemetry=self.telemetry if self.telemetry.enabled else None,
            network=self.cluster.network,
        )
        for other in data_nodes:
            if not other.alive:
                replicas.on_node_failure(other.node_id)
        manager.adopt_store(store, replicas)
        self.miner.attach(store.buffer_pool)

    def restore(self, node_id: str) -> RestoreReport:
        """Readmit the failed data node *node_id*: exactly
        :meth:`recover_node`, after checking that the node is a data
        node (``ValueError`` otherwise) and is dead (``ValueError`` for a
        live one).  Nothing is replayed here — the node's data was
        promoted onto the survivors when it failed, and it comes back
        with an empty store."""
        node = self.cluster.node(node_id)
        if node.kind is not NodeKind.DATA:
            raise ValueError(f"{node_id} is not a data node")
        if node.alive:
            raise ValueError(f"{node_id} is alive; restore targets a failed node")
        repairs = self.recover_node(node_id)
        self.recovery.stats.restores += 1
        self.telemetry.inc("recovery.restores")
        return RestoreReport(node_id=node_id, repairs=repairs)

    def missing_segments(self) -> int:
        """Storage segments with zero live replicas right now — the
        degradation signal every query entry point reports."""
        return sum(len(m.data_loss_risk()) for m in self._storage_managers)

    def probe_penalty(self) -> float:
        """Current index-probe cost multiplier (1.0 = healthy cluster).

        Index probes land on whichever data node owns the key, so a
        chaos-degraded node inflates every probe by its slowdown.  The
        query engine folds this into the cost model and the mid-query
        re-optimizer's checkpoints (docs/ADAPTIVE.md)."""
        return self.executor.slowdown_factor()

    def chaos(self, plan):
        """Bind a seeded :class:`repro.chaos.FaultPlan` to this appliance.

        Returns the :class:`repro.chaos.ChaosController` that will apply
        the plan's faults against this cluster and count every injection,
        retry, and repair in the appliance telemetry.
        """
        from repro.chaos.controller import ChaosController

        return ChaosController(
            self.cluster, plan, appliance=self, telemetry=self.telemetry
        )

    def health(self) -> Dict[str, Any]:
        """Single-pane health report: topology, storage, discovery."""
        inventory = self.cluster.inventory
        storage_reports = [m.service_report() for m in self._storage_managers]
        return {
            "topology": {
                "data": inventory.data_nodes,
                "grid": inventory.grid_nodes,
                "cluster": inventory.cluster_nodes,
            },
            "documents": self.cluster.doc_count,
            "discovery_backlog": self.discovery.backlog,
            "annotations": self.discovery.stats.annotations_created,
            "join_edges": self.indexes.joins.edge_count,
            "under_replicated": sum(
                len(r["under_replicated"]) for r in storage_reports
            ),
            "missing_segments": self.missing_segments(),
            "admin_actions": 0,
        }

    def stats(self) -> Dict[str, Any]:
        """One snapshot of everything the telemetry layer observed, plus
        the appliance facts ``health()`` reports: counters, gauges,
        histograms, span timings, document/annotation totals.  Feed it to
        :func:`repro.obs.format_snapshot` for a printable report.
        """
        snapshot = self.telemetry.snapshot()
        snapshot["appliance"] = {
            "documents": self.cluster.doc_count,
            "discovery_backlog": self.discovery.backlog,
            "annotations": self.discovery.stats.annotations_created,
            "join_edges": self.indexes.joins.edge_count,
        }
        snapshot["cache"] = self.caches.stats()
        snapshot["serving"] = self.serving.stats()
        snapshot["storage"] = self.storage_stats()
        snapshot["recovery"] = self.recovery.report()
        snapshot["adaptive"] = self.engine.adaptive_stats()
        return snapshot

    def storage_stats(self) -> Dict[str, Any]:
        """Aggregate storage-layer report across the data nodes: row
        bytes vs columnar raw/encoded bytes (the native page format's
        compression ratio, docs/STORAGE.md), buffer-pool byte traffic
        split encoded/decoded, and the cold-path compressor's stage
        counters."""
        live_docs = 0
        row_bytes = 0
        columnar_rows = 0
        columnar_dead = 0
        columnar_irregular = 0
        columnar_raw = 0
        columnar_encoded = 0
        pool_encoded = 0
        pool_decoded = 0
        pool_resident = 0
        for node in self.cluster.data_nodes:
            store = node.store
            assert store is not None
            live_docs += store.live_doc_count
            row_bytes += store.stats.bytes_stored
            for table in store.column_store.tables():
                group = store.column_store.group(table)
                assert group is not None
                columnar_rows += group.rows_appended
                columnar_dead += group.dead_rows
                columnar_irregular += group.irregular_rows
                columnar_raw += group.raw_bytes
                columnar_encoded += group.encoded_bytes()
            pool_encoded += store.buffer_pool.stats.bytes_read_encoded
            pool_decoded += store.buffer_pool.stats.bytes_read_decoded
            pool_resident += store.buffer_pool.resident_bytes
        ratio = columnar_encoded / columnar_raw if columnar_raw else 1.0
        if self.telemetry.enabled:
            self.telemetry.set_gauge("storage.columnar.bytes_raw", columnar_raw)
            self.telemetry.set_gauge("storage.columnar.bytes_encoded", columnar_encoded)
            self.telemetry.set_gauge("storage.columnar.ratio", ratio)
        compress = self.compressor.stats
        return {
            "live_documents": live_docs,
            "row_bytes_stored": row_bytes,
            "columnar": {
                "rows": columnar_rows,
                "dead_rows": columnar_dead,
                "irregular_rows": columnar_irregular,
                "bytes_raw": columnar_raw,
                "bytes_encoded": columnar_encoded,
                "ratio": ratio,
            },
            "buffer_pool": {
                "bytes_read_encoded": pool_encoded,
                "bytes_read_decoded": pool_decoded,
                "resident_bytes": pool_resident,
            },
            "compress": {
                "calls": compress.calls,
                "bytes_in": compress.bytes_in,
                "bytes_out": compress.bytes_out,
                "ratio": compress.ratio,
            },
        }

    @property
    def doc_count(self) -> int:
        return self.cluster.doc_count
