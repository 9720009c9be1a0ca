"""Harness-side tracing: spans around the calls into each layer.

The program has no spans below the query engine yet (ROADMAP item 3), so
the traced round wraps, from outside, the entry points at each layer
boundary on the appliance instance the harness built.  A wrapper records
``(id, name, start, end, parent, op)`` in memory; *hot* boundaries —
called thousands of times per request — only add to their name's count
and busy time.  A lazy boundary (a generator the caller drains) is timed
per ``next()``, so its busy time is the time spent producing, not the
time the consumer spent between pulls.

Self time of a span is its duration minus the part its child spans
cover.  One thread, no overlap: the cover is the sum of the children's
durations.  Every wrapper is removed by :meth:`Tracer.unwrap_all`.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, int]  # id, name, start, end, parent, op

#: Root span name prefix: one root per harness op, named ``op.<kind>``.
OP_PREFIX = "op."


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_s")

    def __init__(self, span_id: int, name: str) -> None:
        self.span_id = span_id
        self.name = name
        self.child_s = 0.0
        self.start = 0.0


class Tracer:
    """Stack-based span recorder with per-name aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: name -> [count, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.op_id = -1
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def enter(self, name: str) -> _Frame:
        frame = _Frame(self._next_id, name)
        self._next_id += 1
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame, hot: bool = False) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        total = self.totals.get(frame.name)
        if total is None:
            total = self.totals[frame.name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame.child_s
        parent = -1
        if stack:
            stack[-1].child_s += duration
            parent = stack[-1].span_id
        if not hot:
            self.spans.append(
                (frame.span_id, frame.name, frame.start, end, parent, self.op_id)
            )

    def begin_op(self, kind: str) -> _Frame:
        """Open the root span of one harness op."""
        self.op_id += 1
        return self.enter(OP_PREFIX + kind)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _timed(self, fn: Callable, name: str, hot: bool, lazy: bool) -> Callable:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, hot)
            if lazy and result is not None:
                return tracer._timed_iter(result, name)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _timed_iter(self, iterable: Iterable, name: str) -> Iterator:
        iterator = iter(iterable)
        while True:
            frame = self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit(frame, hot=True)
            yield item

    def wrap(self, owner: Any, attr: str, name: str, *, hot: bool = False,
             lazy: bool = False) -> None:
        """Replace ``owner.attr`` (an instance, class or module attribute)
        with a timed wrapper, remembering how to put the original back."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        bound = getattr(owner, attr)
        if isinstance(owner, type):
            # Patching a class: the wrapper must stay a plain function so
            # it binds ``self`` like the method it replaces.
            bound = vars(owner)[attr]
        setattr(owner, attr, self._timed(bound, name, hot, lazy))

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def wrap_listeners(self, listeners: List[Callable], namer: Callable[[Any], Optional[str]]) -> None:
        """Time the entries of a listener list in place (the invalidation
        bus keeps bound methods, so patching the owner would miss them).
        *namer* maps a listener's owner to a span name, or None to skip."""
        originals = list(listeners)
        for index, listener in enumerate(originals):
            name = namer(getattr(listener, "__self__", None))
            if name is not None:
                listeners[index] = self._timed(listener, name, False, False)

        def undo() -> None:
            listeners[:] = originals + listeners[len(originals):]

        self._undo.append(undo)

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # reading the trace
    # ------------------------------------------------------------------
    def inclusive_s(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def self_s(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def count(self, *names: str) -> int:
        return int(sum(self.totals[n][0] for n in names if n in self.totals))

    def layer_table(self) -> Dict[str, float]:
        """Self seconds per layer (the span name up to its first dot;
        root spans land under ``op``).  Sums to the total time spent
        inside harness ops."""
        table: Dict[str, float] = {}
        for name, (_count, _inclusive, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            table[layer] = table.get(layer, 0.0) + self_s
        return table

    def write(self, path: str) -> None:
        """Dump aggregates, then one line per recorded span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"totals": self.totals}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id from recorded spans alone: duration minus
    the summed durations of the span's direct children."""
    spans = list(spans)
    own = {span[0]: span[3] - span[2] for span in spans}
    for span_id, _name, start, end, parent, _op in spans:
        if parent in own:
            own[parent] -= end - start
    return own


# ----------------------------------------------------------------------
# the appliance's layer boundaries
# ----------------------------------------------------------------------
def _listener_name(owner: Any) -> Optional[str]:
    return {
        "CacheHierarchy": "cache.invalidate",
        "MaterializationManager": "query.ivm",
        "SubscriptionManager": "query.continuous",
        "ContinuousReplicator": "storage.recovery",
    }.get(type(owner).__name__)


def instrument(tracer: Tracer, app: Any) -> None:
    """Wrap the layer boundaries of *app* (see the module docstring)."""
    import repro.core.appliance as appliance_module
    import repro.ingest.pipeline as pipeline_module
    import repro.query.compile as compile_module
    from repro.exec.operators import GroupAggregator
    from repro.query.faceted import FacetedSession
    from repro.query.graph import GraphQuery
    from repro.query.keyword import KeywordSearch
    from repro.query.materialized import MaterializedQuery
    from repro.storage.encoding import ColumnDictionary

    wrap = tracer.wrap
    wrap(app.serving, "execute_inline", "serving.execute_inline")
    # query
    wrap(app.engine, "sql", "query.sql")
    wrap(app.engine, "run_physical", "query.run_physical")
    wrap(app.engine.simple_planner, "plan", "query.planner.plan")
    # Built per request, so patched on the class.
    wrap(KeywordSearch, "search", "query.search")
    wrap(FacetedSession, "__init__", "query.faceted")
    wrap(FacetedSession, "facet_counts", "query.faceted")
    wrap(GraphQuery, "connected", "query.graph")
    wrap(GraphQuery, "related", "query.graph")
    wrap(MaterializedQuery, "rows", "query.materialized.rows")
    wrap(app.subscriptions, "_evaluate_and_deliver", "query.continuous.deliver")
    wrap(app.indexes.joins, "connection", "index.joins.connection")
    # cache
    wrap(app.caches.plans, "parse", "cache.plans.parse")
    wrap(app.caches.plans, "physical", "cache.plans.physical")
    wrap(app.caches.plans, "compiled", "cache.plans.compiled")
    wrap(app.caches.results, "lookup", "cache.results.lookup")
    wrap(app.caches.results, "store", "cache.results.store")
    wrap(app.caches.probes, "lookup", "cache.probes.lookup", hot=True)
    bus = app.caches.bus
    tracer.wrap_listeners(bus._delta_subscribers, _listener_name)
    tracer.wrap_listeners(bus._batch_subscribers, _listener_name)
    # exec
    wrap(app.executor, "ingest_batch", "exec.ingest_batch")
    wrap(app.executor, "scan_view_batches", "exec.scan_view_batches")
    wrap(app.executor, "cluster_update", "exec.cluster_update")
    wrap(GroupAggregator, "add_batch", "exec.operators", hot=True)
    wrap(GroupAggregator, "finish", "exec.operators", hot=True)
    for kernel in ("sort_batches", "hash_join_batches", "hash_join_swapped_batches"):
        wrap(compile_module, kernel, "exec.operators", hot=True)
    # storage
    wrap(ColumnDictionary, "matching_codes", "storage.encoding.matching_codes", hot=True)
    for node in app.cluster.nodes():
        store = node.store
        if store is None:
            continue
        wrap(store, "put_many", "storage.put_many")
        wrap(store, "put", "storage.put", hot=True)
        wrap(store, "delete", "storage.delete")
        wrap(store, "scan_view_batches", "storage.scan_view_batches", hot=True, lazy=True)
        wrap(store.buffer_pool, "get", "storage.bufferpool.get", hot=True)
    # index
    wrap(app.indexes, "index_batch", "index.index_batch")
    wrap(app.indexes, "index_document", "index.index_document", hot=True)
    wrap(app.indexes, "unindex", "index.unindex", hot=True)
    wrap(app.indexes.text, "search", "index.text.search")
    wrap(app.indexes.text, "match_all", "index.text.match_all")
    wrap(app.indexes.facets, "counts", "index.facets.counts")
    # ingest
    wrap(app.ingest_pipeline, "run_documents", "ingest.run_documents")
    # model
    wrap(app, "_convert", "model.convert", hot=True)
    wrap(appliance_module, "sniff_format", "model.convert", hot=True)
    wrap(pipeline_module, "projection_of", "model.projection", hot=True)
    wrap(app, "_maintain_auto_views", "model.view_maintain")
    # discovery
    wrap(app.discovery, "run_pass", "discovery.run_pass")
    wrap(app.discovery, "process_document", "discovery.process_document", hot=True)
    wrap(app.discovery, "enqueue_many", "discovery.enqueue_many")
    wrap(app.discovery.resolver, "resolve", "discovery.resolve", hot=True)
    for annotator in app.discovery.annotators:
        wrap(annotator, "annotate", "discovery.annotate", hot=True)
    # cluster
    wrap(app.cluster.network, "transfer", "cluster.network.transfer", hot=True)
