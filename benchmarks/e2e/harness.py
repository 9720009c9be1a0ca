"""One round of one workload: set-up, timed region, checks, metrics.

A round runs in its own interpreter (``run.py`` starts one per round),
so ``peak_rss_mb`` and the collector's state belong to that workload
alone.  End-to-end metrics always come from an untraced region; the
traced round runs the same schedule a second time, on a fresh appliance,
with ``trace.instrument`` in place, and reports the per-layer metrics
and what the tracing itself cost.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Any, Dict, List, Optional

import metrics
import trace as tracing
from metrics import median, percentile, samples_beyond
from recorder import Recorder
from workloads import WORKLOADS, State, Workload, digest, output_digests

#: Set-ups made per untraced round; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Times the timed region is run per untraced round, each on a fresh
#: set-up with the same inputs.  A call's latency is the shortest it took
#: over the repeats: this machine slows by a third or more for a second
#: or two at a time, which lands on different calls in each repeat, while
#: what the program itself costs — a snapshot, a collection — recurs on
#: the same call.
REGION_REPEATS = 2
_HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(_HERE, "out")


class Snapshot:
    """The counters a region's deltas are taken from."""

    def __init__(self, app) -> None:
        stats = app.stats()
        self.counters: Dict[str, float] = stats["counters"]
        self.cache = stats["cache"]
        self.serving = stats["serving"]
        self.storage = stats["storage"]
        self.adaptive = stats["adaptive"]
        self.network = (app.cluster.network.stats.messages, app.cluster.network.stats.bytes_sent)
        self.ingest_queue = (app.ingest_pipeline.queue.stats.stalls,
                             app.ingest_pipeline.queue.stats.shed)
        pools = [n.store.buffer_pool.stats for n in app.cluster.nodes() if n.store is not None]
        self.pool = (sum(p.requests for p in pools), sum(p.hits for p in pools))

    @property
    def stored_bytes(self) -> int:
        return self.storage["row_bytes_stored"] + self.storage["columnar"]["bytes_encoded"]

    def node_sim_ms(self, kind: Optional[str] = None) -> float:
        prefix = "node.kind." + (kind + "." if kind else "")
        return sum(v for k, v in self.counters.items()
                   if k.startswith(prefix) and k.endswith(".sim_ms"))


def _delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def _timed_setup(workload: Workload, samples: List[State], config=None) -> State:
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(config)
    state.setup_s = time.perf_counter() - started
    samples.append(state)
    return state


def _region(workload: Workload, state: State, tracer=None):
    """Run the timed region; returns (recorder, before, after, rss MB)."""
    rec = Recorder(tracer)
    before = Snapshot(state.app)
    rec.begin()
    workload.run(state, rec)
    rec.end()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = Snapshot(state.app)
    return rec, before, after, rss_mb


def _hidden_failures(rec: Recorder, before: Snapshot, after: Snapshot) -> None:
    """Count what the program dropped without raising to the caller:
    standing-query notifications that errored or were shed, documents the
    ingest queue shed, and any request the scheduler saw fail that no
    caller was told about."""
    raised = rec.failed_calls
    notify_errors = int(_delta(after.counters, before.counters, "sub.notify.error"))
    notify_shed = int(_delta(after.counters, before.counters, "sub.notify.shed"))
    if notify_errors:
        rec.fail("notify", "SwallowedError", notify_errors)
    if notify_shed:
        rec.fail("notify", "Shed", notify_shed)
    ingest_shed = after.ingest_queue[1] - before.ingest_queue[1]
    if ingest_shed:
        rec.fail("ingest", "QueueShed", ingest_shed)
    unseen = after.serving["failed"] - before.serving["failed"] - raised - notify_errors
    if unseen > 0:
        rec.fail("serving", "SwallowedFailure", unseen)


def _region_metrics(state: State, rec: Recorder, best: List[float],
                    before: Snapshot, after: Snapshot, rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics the timed region yields (the others are
    added by :func:`_setup_metrics` once every set-up has been made).
    *best* holds, per call, the shortest latency over the repeats of the
    region, in seconds; counts and costs are those of the last repeat,
    which the repeats have been checked to agree on."""
    attempted = rec.attempted
    ok = attempted - min(attempted, rec.failed_calls)
    sim_ms = rec.sim_ms + after.node_sim_ms() - before.node_sim_ms()
    return {
        "ops_s": ok / sum(best),
        "latency_p50_ms": median(best) * 1000.0,
        "latency_p95_ms": percentile(best, 0.95) * 1000.0,
        "sim_ms_per_op": sim_ms / attempted,
        "stored_bytes_per_user_byte": after.stored_bytes / state.user_bytes,
        "peak_rss_mb": rss_mb,
        "correct_share": ok / attempted,
    }


def _determinism(workload: Workload, state: State, rec: Recorder, before: Snapshot,
                 after: Snapshot) -> Dict[str, Any]:
    """What must be bit-identical across repeats and rounds of one seed."""
    return {
        "schedule": workload.schedule_digest(state),
        "outputs": digest(output_digests(rec)),
        "sim_ms": rec.sim_ms + after.node_sim_ms() - before.node_sim_ms(),
        "stored_bytes": after.stored_bytes,
        "cache": {tier: {k: v for k, v in after.cache[tier].items() if k != "bytes"}
                  for tier in ("plan", "result", "probe")},
    }


def _detail(rec: Recorder, best: List[float], seconds: float) -> Dict[str, Any]:
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in zip(rec.kinds, best):
        by_kind.setdefault(kind, []).append(latency * 1000.0)
    return {
        "attempted": rec.attempted,
        "failed": rec.failed_calls,
        "failures": rec.failures,
        "timed_region_s": rec.wall_s,
        "seconds_asked": seconds,
        "latency_samples": rec.attempted,
        "samples_beyond_p95": samples_beyond(rec.attempted, 0.95),
        "by_kind": {
            kind: {"calls": len(values), "p50_ms": median(values)}
            for kind, values in sorted(by_kind.items())
        },
    }


def run_untraced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Set-ups, the timed region (repeated, see ``REGION_REPEATS``), the
    output checks, and every end-to-end metric."""
    repeats = min(REGION_REPEATS, SETUP_REPEATS)
    workload = WORKLOADS[name](seed, seconds / repeats)
    setups: List[State] = []
    region_walls: List[float] = []
    best: List[float] = []
    determinism: Dict[str, Any] = {}
    disagree = False
    rss_mb = 0.0
    state = rec = before = after = None
    for repeat in range(repeats):
        if state is not None:
            # Everything the previous repeat ran on is released first, so
            # appliances do not stack and the heap stays the size of one.
            _release(state)
            del rec
        state = _timed_setup(workload, setups)
        rec, before, after, rss = _region(workload, state)
        region_walls.append(rec.wall_s)
        seen = _determinism(workload, state, rec, before, after)
        if repeat == 0:
            determinism, rss_mb, best = seen, rss, list(rec.latencies)
        else:
            disagree = disagree or seen != determinism
            best = [min(pair) for pair in zip(best, rec.latencies)]
    # Checks come after the last repeat, on its appliance: nothing they
    # allocate or define sits in the heap while a region is being timed.
    _hidden_failures(rec, before, after)
    if disagree:
        rec.fail("determinism", "RepeatsDisagree")
    workload.check(state, rec)
    rec.compact()
    values = _region_metrics(state, rec, best, before, after, rss_mb)
    detail = _detail(rec, best, seconds)
    detail["region_repeats_s"] = region_walls
    _release(state)
    for _ in range(SETUP_REPEATS - repeats):
        _release(_timed_setup(workload, setups))
    values.update(_setup_metrics(workload, rec, best, setups))
    detail["setup_samples_s"] = [s.setup_s for s in setups]
    return {"metrics": values, "determinism": determinism, "detail": detail}


def _release(state: State) -> None:
    """Drop the appliance and everything holding it, keeping the timings."""
    keep = {k: v for k, v in vars(state).items()
            if isinstance(v, (int, float)) or k.endswith("_calls_s")}
    vars(state).clear()
    vars(state).update(keep)


def _setup_metrics(workload: Workload, rec: Recorder, best: List[float],
                   setups: List[State]) -> Dict[str, float]:
    """``setup_s`` as the median over the set-ups made, and the bulk
    rates, which most workloads take from their set-ups."""
    ingest_rate, discover_rate = workload.bulk_rates(rec, best, setups)
    return {
        "setup_s": median([s.setup_s for s in setups]),
        "ingest_docs_s": ingest_rate,
        "discover_docs_s": discover_rate,
    }


# ----------------------------------------------------------------------
# the traced round
# ----------------------------------------------------------------------
def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The same schedule as :func:`run_untraced` — one region's worth of
    *seconds* — untraced, then traced on a fresh appliance."""
    workload = WORKLOADS[name](seed, seconds / min(REGION_REPEATS, SETUP_REPEATS))
    setups: List[State] = []
    # Untraced pass first: the baseline the tracing overhead is taken
    # against and the source of the per-kind latency medians.
    state = _timed_setup(workload, setups)
    plain, _b, _a, _rss = _region(workload, state)
    _release(state)

    state = _timed_setup(workload, setups)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, state.app)
    try:
        rec, before, after, _rss = _region(workload, state, tracer)
    finally:
        tracer.unwrap_all()
    _hidden_failures(rec, before, after)
    workload.check(state, rec)

    values = {m.name: 0.0 for m in metrics.PER_LAYER}
    values.update(_layer_metrics(state, tracer, plain, rec, before, after))
    values.update(workload.side_probes(state, rec, plain))

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{name}.jsonl"))
    detail = _detail(rec, rec.latencies, seconds)
    detail["untraced_region_s"] = plain.wall_s
    in_ops = sum(rec.latencies)
    table = tracer.layer_table()
    detail["layer_self_ms"] = {layer: s * 1000.0 for layer, s in sorted(table.items())}
    detail["layer_sum_over_region"] = sum(table.values()) / rec.wall_s
    detail["layer_sum_over_ops"] = _ratio(sum(table.values()), in_ops)
    detail["span_totals_ms"] = {
        span: {"count": int(c), "inclusive_ms": i * 1000.0, "self_ms": s * 1000.0}
        for span, (c, i, s) in sorted(tracer.totals.items())
    }
    return {"metrics": values, "detail": detail}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(state: State, tracer, plain: Recorder, rec: Recorder,
                   before: Snapshot, after: Snapshot) -> Dict[str, float]:
    ops = rec.attempted
    t = tracer

    def counters(key: str) -> float:
        return _delta(after.counters, before.counters, key)

    def ms(*names: str) -> float:
        return t.inclusive_s(*names) * 1000.0

    def cache(tier: str, key: str) -> float:
        return after.cache[tier][key] - before.cache[tier][key]

    writes = sum(1 for k in rec.kinds if k in ("ingest", "update", "delete"))
    docs_in = counters("ingest.docs")
    batches = counters("ingest.batches")
    enriched = counters("discovery.docs_processed")
    executed = t.count("query.run_physical")
    returned = scanned = 0
    for _kind, out in rec.kept():
        stats = getattr(out, "operator_stats", None)
        if stats and "scan" in stats:
            scanned += stats["scan"].rows_in
            returned += len(out.rows)
    compiled = after.adaptive["compiled"]
    compiled_before = before.adaptive["compiled"]
    compiled_runs = (compiled["built"] + compiled["hits"]
                     - compiled_before["built"] - compiled_before["hits"])
    result_lookups = cache("result", "hits") + cache("result", "misses")
    plan_hits = cache("plan", "parse_hits") + cache("plan", "plan_hits")
    plan_lookups = plan_hits + cache("plan", "parse_misses") + cache("plan", "plan_misses")
    probe_lookups = cache("probe", "hits") + cache("probe", "misses")
    pool_requests = after.pool[0] - before.pool[0]
    view = getattr(state, "view", None)
    fallbacks = view.stats.fallbacks if view is not None else 0
    applied = view.stats.deltas_applied if view is not None else 0

    def p50(kind: str) -> float:
        """Median untraced latency of *kind* (and its ``kind.x`` variants)."""
        values = [s * 1000.0 for k, s in zip(plain.kinds, plain.latencies)
                  if k == kind or k.startswith(kind + ".")]
        return median(values) if values else 0.0

    in_ops = sum(rec.latencies)
    return {
        "serving.self_ms_per_op": t.self_s("serving.execute_inline") * 1000.0 / ops,
        "serving.admitted": after.serving["admitted"] - before.serving["admitted"],
        "serving.shed": after.serving["shed"] - before.serving["shed"],
        "serving.failed": after.serving["failed"] - before.serving["failed"],
        "query.parse_plan_ms_per_op": ms("cache.plans.parse", "cache.plans.physical") / ops,
        "query.execute_ms_per_op": ms("query.run_physical") / ops,
        "query.rows_examined_per_row_returned": _ratio(scanned, returned),
        "query.compiled_share": _ratio(compiled_runs, executed),
        "query.sql_p50_ms": p50("sql"),
        "query.search_p50_ms": p50("search"),
        "query.faceted_p50_ms": p50("faceted"),
        "query.graph_p50_ms": p50("graph"),
        "query.ivm_repair_ms_per_write": _ratio(ms("query.ivm"), writes),
        "query.ivm_fallback_share": _ratio(fallbacks, fallbacks + applied),
        "query.mv_read_p50_ms": p50("mv_rows"),
        "query.notify_ms_per_write": _ratio(ms("query.continuous"), writes),
        "cache.result_hit_rate": _ratio(cache("result", "hits"), result_lookups),
        "cache.plan_hit_rate": _ratio(plan_hits, plan_lookups),
        "cache.probe_hit_rate": _ratio(cache("probe", "hits"), probe_lookups),
        "cache.result_evictions": cache("result", "evictions"),
        "cache.lookup_store_ms_per_op": ms("cache.results.lookup", "cache.results.store") / ops,
        "cache.invalidations_per_write": _ratio(cache("result", "invalidations"), writes),
        "exec.operators_ms_per_op": ms("exec.operators") / ops,
        "exec.batches_per_op": counters("exec.batches") / ops,
        "exec.bytes_shipped_per_op": counters("exec.bytes_shipped") / ops,
        "exec.ingest_batch_ms_per_doc": _ratio(ms("exec.ingest_batch"), docs_in),
        "storage.scan_ms_per_op": ms("storage.scan_view_batches") / ops,
        "storage.code_match_ms_per_op": ms("storage.encoding.matching_codes") / ops,
        "storage.bufferpool_hit_rate": _ratio(after.pool[1] - before.pool[1], pool_requests),
        "storage.bytes_decoded_per_op": (
            after.storage["buffer_pool"]["bytes_read_decoded"]
            - before.storage["buffer_pool"]["bytes_read_decoded"]) / ops,
        "storage.put_ms_per_doc": _ratio(ms("storage.put_many"), docs_in),
        "storage.replication_ship_ms_per_batch": _ratio(ms("storage.recovery"), batches),
        "storage.columnar_ratio": after.storage["columnar"]["ratio"],
        "index.index_batch_ms_per_doc": _ratio(ms("index.index_batch"), docs_in),
        "index.text_search_ms_per_op": ms("index.text.search") / ops,
        "ingest.commit_ms_per_batch": _ratio(ms("ingest.run_documents"), batches),
        "ingest.batch_size_mean": _ratio(docs_in, batches),
        "ingest.stalls": after.ingest_queue[0] - before.ingest_queue[0],
        "ingest.shed": after.ingest_queue[1] - before.ingest_queue[1],
        "ingest.single_doc_ms": p50("ingest"),
        "model.convert_ms_per_doc": _ratio(ms("model.convert"), docs_in),
        "model.projection_ms_per_doc": _ratio(ms("model.projection"), docs_in),
        "model.view_maintain_ms_per_doc": _ratio(ms("model.view_maintain"), docs_in),
        "discovery.ms_per_doc": _ratio(ms("discovery.run_pass"), enriched),
        "discovery.annotate_ms_per_doc": _ratio(ms("discovery.annotate"), enriched),
        "discovery.resolve_ms_per_doc": _ratio(ms("discovery.resolve"), enriched),
        "discovery.annotations_per_doc": _ratio(counters("discovery.annotations"), enriched),
        "discovery.edges_per_doc": _ratio(counters("discovery.edges"), enriched),
        "cluster.data_sim_ms_per_op": (after.node_sim_ms("data") - before.node_sim_ms("data")) / ops,
        "cluster.grid_sim_ms_per_op": (after.node_sim_ms("grid") - before.node_sim_ms("grid")) / ops,
        "cluster.network_bytes_per_op": (after.network[1] - before.network[1]) / ops,
        "cluster.network_msgs_per_op": (after.network[0] - before.network[0]) / ops,
        "bench.trace_overhead_share": (rec.wall_s - plain.wall_s) / plain.wall_s,
        "bench.unattributed_share": _ratio(
            sum(s for name, (_c, _i, s) in t.totals.items()
                if name.startswith(tracing.OP_PREFIX)), in_ops),
    }
