"""Query-result cache with ``base_views()`` dependency invalidation.

Each entry is one executed query's rows, keyed by the fingerprint of the
physical plan that produced them and tagged with the same dependency set
:class:`~repro.query.materialized.MaterializedQuery` uses — the base
views the plan reads.  A put against any dependency table drops exactly
the entries that could have changed; unrelated writes leave the cache
warm, which is what makes result caching pay under mixed load.

Node events (crash, corrupt, partition, …) flush the whole tier: they
change which segments are reachable, and a cached answer derived from a
now-missing segment must never be served as fresh (the engine
additionally refuses to *admit* results computed while the appliance
reports missing segments — see :class:`repro.cache.CacheHierarchy`).

Keyword-search answers of open sessions share the tier (key ``("search",
query, top_k)``).  They depend on the whole text index rather than on
tables — BM25 reads N and avgdl, so any indexed write can move every
score — and are therefore validated at lookup against the index
*generation* they read, like ``PlanCache.physical`` validates its epoch:
a stale entry is a miss and is overwritten in place, never re-keyed, so
dead search entries cannot crowd SQL entries out of the LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, List, Optional

from repro.exec.costs import estimate_rows_bytes

Row = Dict[str, Any]


@dataclass
class CachedResult:
    """One cached query answer (rows plus what produced them)."""

    rows: List[Row]
    dependencies: FrozenSet[str]
    sim_ms: float
    plan_text: str
    bytes: int
    #: Keyword-search entries only: the ranked hits and the text-index
    #: generation they were scored against (None on SQL entries).
    hits: Optional[List[Any]] = None
    generation: Optional[int] = None


class ResultCacheStats:
    __slots__ = ("hits", "misses", "search_hits", "search_misses",
                 "invalidations", "flushes", "evictions", "bytes")

    def __init__(self) -> None:
        #: SQL lookups, as ever; keyword-search lookups count apart.
        self.hits = 0
        self.misses = 0
        self.search_hits = 0
        self.search_misses = 0
        self.invalidations = 0
        self.flushes = 0
        self.evictions = 0
        self.bytes = 0


class ResultCache:
    """LRU + byte-capped map of plan fingerprint → :class:`CachedResult`."""

    def __init__(
        self,
        capacity: int = 128,
        byte_capacity: int = 8_000_000,
        telemetry=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("result cache needs at least one entry")
        if byte_capacity < 1:
            raise ValueError("result cache byte capacity must be >= 1")
        self.capacity = capacity
        self.byte_capacity = byte_capacity
        self.telemetry = telemetry
        self.stats = ResultCacheStats()
        self._entries: "OrderedDict[Hashable, CachedResult]" = OrderedDict()

    # ------------------------------------------------------------------
    def lookup(
        self, fingerprint: Hashable, generation: Optional[int] = None
    ) -> Optional[CachedResult]:
        """The entry under *fingerprint*, or None.  A keyword-search
        lookup passes the text index's current *generation*; an entry
        that read another one is a miss (and stays put for :meth:`store`
        to overwrite)."""
        stats, telemetry = self.stats, self.telemetry
        suffix = "" if generation is None else ".search"
        entry = self._entries.get(fingerprint)
        if entry is None or entry.generation != generation:
            if suffix:
                stats.search_misses += 1
            else:
                stats.misses += 1
            if telemetry is not None:
                telemetry.inc("cache.result.misses" + suffix)
            return None
        self._entries.move_to_end(fingerprint)
        if suffix:
            stats.search_hits += 1
        else:
            stats.hits += 1
        if telemetry is not None:
            telemetry.inc("cache.result.hits" + suffix)
        return entry

    def store(
        self,
        fingerprint: Hashable,
        rows: List[Row],
        dependencies: FrozenSet[str],
        sim_ms: float,
        plan_text: str = "",
        hits: Optional[List[Any]] = None,
        generation: Optional[int] = None,
    ) -> Optional[CachedResult]:
        """Admit one result; returns the entry (None when it cannot fit).
        *hits*/*generation* mark a keyword-search entry: the hits are the
        caller's private copy (kept as passed), their documents charged
        to the byte budget."""
        nbytes = estimate_rows_bytes(rows)
        if hits is not None:
            nbytes += sum(h.document.size_bytes() for h in hits if h.document is not None)
        if nbytes > self.byte_capacity:
            return None  # a single oversized result would evict everything
        old = self._entries.pop(fingerprint, None)
        if old is not None:
            self.stats.bytes -= old.bytes
        entry = CachedResult(
            rows=[dict(r) for r in rows],
            dependencies=frozenset(dependencies),
            sim_ms=sim_ms,
            plan_text=plan_text,
            bytes=nbytes,
            hits=hits,
            generation=generation,
        )
        self._entries[fingerprint] = entry
        self.stats.bytes += nbytes
        self._evict_if_needed()
        if self.telemetry is not None:
            self.telemetry.inc("cache.result.stores")
            self.telemetry.set_gauge("cache.result.bytes", self.stats.bytes)
        return entry

    def _evict_if_needed(self) -> None:
        while len(self._entries) > self.capacity or self.stats.bytes > self.byte_capacity:
            _, victim = self._entries.popitem(last=False)
            self.stats.bytes -= victim.bytes
            self.stats.evictions += 1
            if self.telemetry is not None:
                self.telemetry.inc("cache.result.evictions")

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_table(self, table: Optional[str]) -> int:
        """Drop every entry whose dependency set contains *table*.

        A put with no table metadata (free text, e-mail) still changes
        scan results for views that match such documents, so ``None``
        conservatively flushes everything.
        """
        if table is None:
            return self.flush()
        stale = [
            key
            for key, entry in self._entries.items()
            if table in entry.dependencies
        ]
        for key in stale:
            victim = self._entries.pop(key)
            self.stats.bytes -= victim.bytes
        self.stats.invalidations += len(stale)
        if stale and self.telemetry is not None:
            self.telemetry.inc("cache.result.invalidations", len(stale))
            self.telemetry.set_gauge("cache.result.bytes", self.stats.bytes)
        return len(stale)

    def flush(self) -> int:
        """Drop everything (node/chaos/catalog events)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.bytes = 0
        self.stats.invalidations += dropped
        self.stats.flushes += 1
        if self.telemetry is not None:
            if dropped:
                self.telemetry.inc("cache.result.invalidations", dropped)
            self.telemetry.inc("cache.result.flushes")
            self.telemetry.set_gauge("cache.result.bytes", 0)
        return dropped

    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries
