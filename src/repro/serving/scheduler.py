"""Request accounting for the serving layer: attribute, run, count.

Every session call and every standing-query notification reaches the
engine through :meth:`RequestScheduler.execute_inline`, which runs the
request synchronously and attributes its outcome to the tenant and QoS
tier that issued it.  There is no queue: a request runs the moment it
arrives, so there is never a backlog to bound, reorder or shed
(docs/SERVING.md says why, and what interleaving would need first).

Every outcome is attributed: per-tenant counters
(``serving.tenant.<t>.admitted/completed``), per-tier latency
histograms, failures by exception class, and the roll-up
:meth:`RequestScheduler.stats` that ``Impliance.stats()["serving"]``
exposes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional


@dataclass
class Request:
    """One unit of work: a tenant-attributed, QoS-tagged thunk."""

    tenant: str
    qos: str
    kind: str                                    # search | sql | notify | ...
    fn: Callable[[], Any]                        # the engine work to run


@dataclass
class _TenantCounters:
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    latency_sum_ms: float = 0.0
    by_qos: Dict[str, int] = field(default_factory=dict)
    failed_by_class: Dict[str, int] = field(default_factory=dict)


class RequestScheduler:
    """Per-tenant, per-tier accounting around the engine."""

    def __init__(self, telemetry=None) -> None:
        self.telemetry = telemetry
        self._tenants: Dict[str, _TenantCounters] = {}

    def _counters(self, tenant: str) -> _TenantCounters:
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = _TenantCounters()
            self._tenants[tenant] = counters
        return counters

    def on_complete(
        self, request: Request, latency_ms: float, error: Optional[BaseException] = None
    ) -> None:
        counters = self._counters(request.tenant)
        if error is None:
            counters.completed += 1
            counters.latency_sum_ms += latency_ms
        else:
            counters.failed += 1
            name = type(error).__name__
            counters.failed_by_class[name] = counters.failed_by_class.get(name, 0) + 1
        if self.telemetry is not None:
            self.telemetry.inc(f"serving.tenant.{request.tenant}.completed")
            self.telemetry.observe(f"serving.{request.qos}.latency_ms", latency_ms)
            self.telemetry.observe("serving.latency_ms", latency_ms)

    def execute_inline(self, request: Request) -> Any:
        """Count *request* as admitted, run it, and account the outcome.
        A failure is counted by exception class and re-raised."""
        counters = self._counters(request.tenant)
        counters.admitted += 1
        counters.by_qos[request.qos] = counters.by_qos.get(request.qos, 0) + 1
        if self.telemetry is not None:
            self.telemetry.inc(f"serving.tenant.{request.tenant}.admitted")
        start = time.perf_counter()
        try:
            result = request.fn()
        except Exception as exc:
            self.on_complete(request, (time.perf_counter() - start) * 1000.0, exc)
            raise
        self.on_complete(request, (time.perf_counter() - start) * 1000.0)
        return result

    def stats(self) -> Dict[str, Any]:
        """The ``Impliance.stats()["serving"]`` payload: global and
        per-tenant admissions, completions and failures by class."""
        tenants: Dict[str, Any] = {}
        totals = {"admitted": 0, "completed": 0, "failed": 0}
        failed_by_class: Dict[str, int] = {}
        for tenant, c in sorted(self._tenants.items()):
            tenants[tenant] = {
                "admitted": c.admitted,
                "completed": c.completed,
                "failed": c.failed,
                "failed_by_class": dict(sorted(c.failed_by_class.items())),
                "by_qos": dict(sorted(c.by_qos.items())),
                "mean_latency_ms": (
                    c.latency_sum_ms / c.completed if c.completed else 0.0
                ),
            }
            totals["admitted"] += c.admitted
            totals["completed"] += c.completed
            totals["failed"] += c.failed
            for name, n in c.failed_by_class.items():
                failed_by_class[name] = failed_by_class.get(name, 0) + n
        return {
            **totals,
            "shed": 0,  # nothing is ever shed; benchmarks/e2e reads the key
            "failed_by_class": dict(sorted(failed_by_class.items())),
            "tenants": tenants,
        }
