"""The benchmark's metric registry and its small statistics helpers.

Every name the harness prints is declared here, with its unit, the
direction that counts as better, and — for a per-layer metric — the
layer (a package under ``src/repro/``) it measures and the end-to-end
metric and workload it is expected to move.  ``run.py --check`` holds
this registry, the emitted names and ``BENCHMARK.json`` to each other.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Sequence


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "build appliance + generate inputs + preload, before the timed region "
             "(median of the set-ups made in one run)"),
    EndToEnd("ops_s", "1/s", "higher", 0.20,
             "API calls completed and correct per wall-second of the timed region"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.20,
             "per-call wall latency, median (each call at its shortest over the region's repeats)"),
    EndToEnd("latency_p95_ms", "ms", "lower", 0.20,
             "per-call wall latency, 95th percentile (at least 10 samples beyond it)"),
    EndToEnd("ingest_docs_s", "1/s", "higher", 0.20,
             "bulk-ingested documents durable and queryable per wall-second"),
    EndToEnd("discover_docs_s", "1/s", "higher", 0.20,
             "documents enriched by Impliance.discover per wall-second"),
    EndToEnd("sim_ms_per_op", "sim-ms/op", "lower", 0.05,
             "simulated cluster milliseconds charged per call; repeats exactly for one seed"),
    EndToEnd("stored_bytes_per_user_byte", "B/B", "lower", 0.05,
             "row + columnar bytes stored per payload byte offered; repeats exactly for one seed"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the run's interpreter"),
    EndToEnd("correct_share", "share", "higher", 0.0001,
             "1 - failed_share: calls that neither raised, were shed, nor failed "
             "their output check, over calls attempted"),
]

_SCAN = "scan_sql"
_MIX = "mixed_serving"
_LOAD = "load_enrich"
_WRITE = "trickle_write"

PER_LAYER: List[PerLayer] = [
    # serving
    PerLayer("serving.self_ms_per_op", "ms", "lower", "serving",
             f"latency_p50_ms@{_MIX}; none on {_SCAN}"),
    PerLayer("serving.admitted", "count", "higher", "serving", f"ops_s@{_MIX}"),
    PerLayer("serving.shed", "count", "lower", "serving", "correct_share on every workload"),
    PerLayer("serving.failed", "count", "lower", "serving", "correct_share on every workload"),
    # query
    PerLayer("query.parse_plan_ms_per_op", "ms", "lower", "query", f"ops_s@{_SCAN}"),
    PerLayer("query.execute_ms_per_op", "ms", "lower", "query", f"ops_s@{_SCAN}"),
    PerLayer("query.rows_examined_per_row_returned", "ratio", "lower", "query",
             f"ops_s@{_SCAN}"),
    PerLayer("query.compiled_share", "share", "higher", "query", f"ops_s@{_SCAN}"),
    PerLayer("query.sql_p50_ms", "ms", "lower", "query", f"latency_p50_ms@{_MIX}"),
    PerLayer("query.search_p50_ms", "ms", "lower", "query", f"latency_p95_ms@{_MIX}"),
    PerLayer("query.faceted_p50_ms", "ms", "lower", "query", f"latency_p50_ms@{_MIX}"),
    PerLayer("query.graph_p50_ms", "ms", "lower", "query", f"latency_p50_ms@{_MIX}"),
    PerLayer("query.ivm_repair_ms_per_write", "ms", "lower", "query", f"ops_s@{_WRITE}"),
    PerLayer("query.ivm_fallback_share", "share", "lower", "query", f"ops_s@{_WRITE}"),
    PerLayer("query.mv_read_p50_ms", "ms", "lower", "query", f"latency_p50_ms@{_WRITE}"),
    PerLayer("query.notify_ms_per_write", "ms", "lower", "query", f"ops_s@{_WRITE}"),
    # cache
    PerLayer("cache.result_hit_rate", "share", "higher", "cache",
             f"latency_p50_ms@{_MIX}; about 0 and none on {_SCAN}"),
    PerLayer("cache.plan_hit_rate", "share", "higher", "cache", f"latency_p50_ms@{_MIX}"),
    PerLayer("cache.probe_hit_rate", "share", "higher", "cache", f"ops_s@{_SCAN}"),
    PerLayer("cache.result_evictions", "count", "lower", "cache", f"peak_rss_mb@{_SCAN}"),
    PerLayer("cache.lookup_store_ms_per_op", "ms", "lower", "cache",
             f"latency_p50_ms@{_MIX}"),
    PerLayer("cache.invalidations_per_write", "count", "lower", "cache", f"ops_s@{_WRITE}"),
    # exec
    PerLayer("exec.operators_ms_per_op", "ms", "lower", "exec",
             f"ops_s@{_SCAN}; none on {_MIX}"),
    PerLayer("exec.batches_per_op", "count", "lower", "exec", f"ops_s@{_SCAN}"),
    PerLayer("exec.bytes_shipped_per_op", "B", "lower", "exec", f"sim_ms_per_op@{_SCAN}"),
    PerLayer("exec.ingest_batch_ms_per_doc", "ms", "lower", "exec", f"ingest_docs_s@{_LOAD}"),
    # storage
    PerLayer("storage.scan_ms_per_op", "ms", "lower", "storage", f"ops_s@{_SCAN}"),
    PerLayer("storage.code_match_ms_per_op", "ms", "lower", "storage",
             f"ops_s and peak_rss_mb@{_SCAN}"),
    PerLayer("storage.bufferpool_hit_rate", "share", "higher", "storage", f"ops_s@{_SCAN}"),
    PerLayer("storage.bytes_decoded_per_op", "B", "lower", "storage", f"ops_s@{_SCAN}"),
    PerLayer("storage.put_ms_per_doc", "ms", "lower", "storage",
             f"ingest_docs_s@{_LOAD}; ops_s@{_WRITE}"),
    PerLayer("storage.replication_ship_ms_per_batch", "ms", "lower", "storage",
             f"ingest_docs_s@{_LOAD}; ops_s@{_WRITE}"),
    PerLayer("storage.columnar_ratio", "ratio", "lower", "storage",
             f"stored_bytes_per_user_byte@{_LOAD}"),
    PerLayer("storage.restore_ms", "ms", "lower", "storage",
             f"none (post-run fail_node + restore on {_LOAD})"),
    PerLayer("storage.restore_lost_docs", "count", "lower", "storage",
             f"correct_share@{_LOAD}; must be 0"),
    # index
    PerLayer("index.index_batch_ms_per_doc", "ms", "lower", "index",
             f"ingest_docs_s@{_LOAD}; none on {_SCAN}"),
    PerLayer("index.text_search_ms_per_op", "ms", "lower", "index", f"latency_p95_ms@{_MIX}"),
    # ingest
    PerLayer("ingest.commit_ms_per_batch", "ms", "lower", "ingest", f"ingest_docs_s@{_LOAD}"),
    PerLayer("ingest.batch_size_mean", "count", "higher", "ingest", f"ingest_docs_s@{_LOAD}"),
    PerLayer("ingest.stalls", "count", "lower", "ingest", f"ingest_docs_s@{_LOAD}"),
    PerLayer("ingest.shed", "count", "lower", "ingest", f"correct_share@{_LOAD}"),
    PerLayer("ingest.single_doc_ms", "ms", "lower", "ingest", f"latency_p50_ms@{_WRITE}"),
    # model
    PerLayer("model.convert_ms_per_doc", "ms", "lower", "model", f"ingest_docs_s@{_LOAD}"),
    PerLayer("model.projection_ms_per_doc", "ms", "lower", "model", f"ingest_docs_s@{_LOAD}"),
    PerLayer("model.view_maintain_ms_per_doc", "ms", "lower", "model",
             f"ingest_docs_s@{_LOAD}"),
    # discovery
    PerLayer("discovery.ms_per_doc", "ms", "lower", "discovery", f"discover_docs_s@{_LOAD}"),
    PerLayer("discovery.annotate_ms_per_doc", "ms", "lower", "discovery",
             f"discover_docs_s@{_LOAD}"),
    PerLayer("discovery.resolve_ms_per_doc", "ms", "lower", "discovery",
             f"discover_docs_s@{_LOAD}"),
    PerLayer("discovery.annotations_per_doc", "count", "higher", "discovery",
             f"discover_docs_s@{_LOAD}"),
    PerLayer("discovery.edges_per_doc", "count", "higher", "discovery",
             f"discover_docs_s@{_LOAD}"),
    PerLayer("discovery.mention_recall", "share", "higher", "discovery",
             f"correct_share@{_LOAD}"),
    # cluster
    PerLayer("cluster.data_sim_ms_per_op", "sim-ms/op", "lower", "cluster",
             "sim_ms_per_op on every workload"),
    PerLayer("cluster.grid_sim_ms_per_op", "sim-ms/op", "lower", "cluster",
             "sim_ms_per_op on every workload"),
    PerLayer("cluster.network_bytes_per_op", "B", "lower", "cluster",
             "sim_ms_per_op on every workload"),
    PerLayer("cluster.network_msgs_per_op", "count", "lower", "cluster",
             "sim_ms_per_op on every workload"),
    # security
    PerLayer("security.policy_sql_ratio", "ratio", "lower", "security",
             f"none (side probe after {_MIX})"),
    PerLayer("security.policy_search_ratio", "ratio", "lower", "security",
             f"none (side probe after {_MIX})"),
    # obs and the harness itself
    PerLayer("obs.telemetry_overhead_share", "share", "lower", "obs",
             f"latency_p50_ms@{_MIX}"),
    PerLayer("bench.trace_overhead_share", "share", "lower", "bench", "none"),
    PerLayer("bench.unattributed_share", "share", "lower", "bench", "none"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
UNITS.update({m.name: m.unit for m in PER_LAYER})


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    *q* of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly beyond the nearest-rank *q*."""
    return n - math.ceil(q * n)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness
    figure the benchmark's bounds are set against)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
