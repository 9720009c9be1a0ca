"""Appliance-wide cache hierarchy with dependency invalidation (§3.3/§3.4).

Section 3.4 names "materialized views, indexes, and replicas" as derived
state the appliance may create and drop cheaply because it is exactly
re-creatable; Section 3.3 argues the appliance can self-manage that state
because it owns the whole stack.  This package is that ownership made
concrete for query-side derived state:

* :class:`PlanCache` — parse/plan results keyed by normalized SQL;
* :class:`ResultCache` — query results keyed by plan fingerprint, each
  entry carrying the ``base_views()`` dependency set of its query;
* :class:`IndexProbeMemo` — memoized hot index probes for indexed-NL
  joins.

Every tier listens to the change feed
(:class:`repro.storage.bus.InvalidationBus`): commits invalidate by
dependency, chaos/topology events flush wholesale so degraded state is
never served as fresh.

:class:`CacheHierarchy` bundles the tiers behind one handle the facade
owns; :class:`CacheConfig` is the ``ApplianceConfig(cache=...)`` knob.
"""

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.plancache import PlanCache, normalize_sql
from repro.cache.probememo import IndexProbeMemo
from repro.cache.resultcache import CachedResult, ResultCache

__all__ = [
    "CacheConfig",
    "CacheHierarchy",
    "CachedResult",
    "IndexProbeMemo",
    "PlanCache",
    "ResultCache",
    "normalize_sql",
]
