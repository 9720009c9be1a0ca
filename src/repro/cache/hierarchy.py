"""The cache hierarchy: every tier behind one appliance-owned handle.

The facade constructs one :class:`CacheHierarchy` per appliance, attaches
it to the cluster's change feed (:class:`~repro.storage.bus.InvalidationBus`)
and hands the hierarchy to the query engine.  Wiring rules:

* puts invalidate by dependency — result entries whose ``base_views()``
  set contains the written table are dropped, the probe memo flushes,
  physical-plan entries age out via the bus epoch; keyword-search
  entries (open sessions, same tier) carry no table dependency and are
  validated at lookup against the text index's generation instead;
* node events (chaos crash/corrupt/partition, topology changes, catalog
  redefinitions) flush the result cache and probe memo wholesale;
* results computed while the appliance reports missing segments are
  never admitted (``admit_results`` callback) — a degraded answer must
  not outlive the degradation.

``CacheConfig(enabled=False)`` turns the hierarchy into a guaranteed
no-op: the engine checks :attr:`enabled` before every tier access.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.cache.config import CacheConfig
from repro.cache.plancache import PlanCache
from repro.cache.probememo import IndexProbeMemo
from repro.cache.resultcache import ResultCache
from repro.storage.bus import InvalidationBus


class CacheHierarchy:
    """Plan cache + result cache + probe memo on one invalidation bus."""

    def __init__(self, config: Optional[CacheConfig] = None, telemetry=None) -> None:
        self.config = config if config is not None else CacheConfig()
        # None-guarded (not the DISABLED singleton): cache lookups sit on
        # the hottest query path, mirroring the per-node IndexManager rule.
        self.telemetry = telemetry if (telemetry is not None and telemetry.enabled) else None
        self.plans = PlanCache(self.config.plan_entries, telemetry=self.telemetry)
        self.results = ResultCache(
            self.config.result_entries,
            self.config.result_bytes,
            telemetry=self.telemetry,
        )
        self.probes = IndexProbeMemo(self.config.probe_entries, telemetry=self.telemetry)
        #: Admission guard for results; the facade points this at
        #: ``missing_segments() == 0`` so degraded answers are never
        #: cached.  None admits everything (standalone engines).
        self.admit_results: Optional[Callable[[], bool]] = None
        # A standalone hierarchy listens to a private bus of its own until
        # it is attached to a change feed.
        self.attach_to_bus(InvalidationBus())

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def epoch(self) -> int:
        return self.bus.epoch

    def attach_to_bus(self, bus: InvalidationBus) -> None:
        """Listen to *bus* (a store's or the cluster's change feed); its
        epoch becomes the one plan entries are stamped with."""
        self.bus = bus
        bus.subscribe_deltas(self._on_changes)
        bus.subscribe_node_events(self._on_node_event)

    def can_admit_results(self) -> bool:
        return self.admit_results is None or self.admit_results()

    # ------------------------------------------------------------------
    # bus reactions
    # ------------------------------------------------------------------
    def _on_changes(self, changeset) -> None:
        """One publication per group commit: invalidate by the *union* of
        the change set's table dependencies, flush the probe memo once.
        A change set of one is exactly the old per-put behavior; deletes
        (tombstones keep their chain's ``table`` metadata) invalidate the
        same way — a cached aggregate must not keep counting a deleted
        row."""
        if self.telemetry is not None:
            self.telemetry.inc("cache.invalidation.puts", len(changeset))
            self.telemetry.inc("cache.invalidation.put_batches")
            deletes = sum(1 for change in changeset if change.is_delete)
            if deletes:
                self.telemetry.inc("cache.invalidation.deletes", deletes)
        for table in changeset.tables:
            self.results.invalidate_table(table)
        self.probes.flush()

    def _on_node_event(self, node_id: str, kind: str) -> None:
        """Topology/chaos/catalog change: flush everything derived from
        data placement.  (Parsed statements survive — parsing is pure.)"""
        if self.telemetry is not None:
            self.telemetry.inc("cache.invalidation.node_events")
            self.telemetry.inc(f"cache.invalidation.node_event.{kind}")
        self.results.flush()
        self.probes.flush()

    def on_catalog_change(self) -> None:
        """A view was defined or replaced outside the change feed."""
        self.bus.publish_node_event("catalog", "catalog")

    # ------------------------------------------------------------------
    def flush_all(self) -> None:
        self.plans.flush()
        self.results.flush()
        self.probes.flush()

    def stats(self) -> Dict[str, Any]:
        """One snapshot of every tier's counters (facade ``stats()``)."""
        return {
            "enabled": self.enabled,
            "epoch": self.bus.epoch,
            "plan": {
                "parse_hits": self.plans.stats.parse_hits,
                "parse_misses": self.plans.stats.parse_misses,
                "plan_hits": self.plans.stats.plan_hits,
                "plan_misses": self.plans.stats.plan_misses,
                "compiled_hits": self.plans.stats.compiled_hits,
                "compiled_misses": self.plans.stats.compiled_misses,
                "entries": self.plans.entry_count,
            },
            "result": {
                "hits": self.results.stats.hits,
                "misses": self.results.stats.misses,
                "search_hits": self.results.stats.search_hits,
                "search_misses": self.results.stats.search_misses,
                "invalidations": self.results.stats.invalidations,
                "evictions": self.results.stats.evictions,
                "flushes": self.results.stats.flushes,
                "entries": self.results.entry_count,
                "bytes": self.results.stats.bytes,
            },
            "probe": {
                "hits": self.probes.stats.hits,
                "misses": self.probes.stats.misses,
                "flushes": self.probes.stats.flushes,
                "entries": self.probes.entry_count,
            },
            "bus": {
                "put_events": self.bus.stats.put_events,
                "put_documents": self.bus.stats.put_documents,
                "delete_documents": self.bus.stats.delete_documents,
                "node_events": self.bus.stats.node_events,
            },
        }
