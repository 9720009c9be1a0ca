"""The multi-tenant workload driver: thousands of sessions, virtual time.

This is how the "shared appliance serving many simultaneous users" claim
gets a number.  The driver opens one :class:`~repro.serving.session.Session`
per simulated client, replays **closed-loop** (think-time) and
**open-loop** (Poisson arrival) request streams over the
:mod:`repro.workloads` corpora, and runs the whole thing on a
deterministic virtual clock: arrivals and completions are heap events,
the scheduler's fair-share pick decides who runs when a server slot
frees, and a request's latency is ``completion − arrival`` in virtual
milliseconds.  Requests genuinely execute against the engine when
dispatched (shed requests never run — goodput is real goodput); service
*demand* comes from the deterministic per-kind cost model so p50/p99/p999
are reproducible run-to-run under a fixed seed.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ingest.queue import ADMITTED, SHED, STALLED
from repro.security.policy import Principal
from repro.serving.config import QOS_INTERACTIVE, QOS_TIERS
from repro.serving.scheduler import Request
from repro.serving.session import DEFAULT_COSTS, Session
from repro.workloads import corpus_queries, make_corpus


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) by nearest-rank; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ArrivalSpec:
    """How a tenant's requests arrive.

    ``closed``: each session issues its next request *think_ms* after the
    previous one completes (or is shed) — load self-regulates with
    latency.  ``open``: the tenant submits at *rate_rps* regardless of
    completions (exponential interarrivals) — the overload-test shape,
    since arrivals do not slow down when the appliance does.
    """

    process: str = "closed"
    think_ms: float = 10.0
    rate_rps: float = 100.0

    def __post_init__(self) -> None:
        if self.process not in ("closed", "open"):
            raise ValueError("arrival process must be 'closed' or 'open'")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's shape in a driver run."""

    name: str
    corpus: str = "callcenter"
    qos: str = QOS_INTERACTIVE
    sessions: int = 1
    requests_per_session: int = 4        # closed-loop budget per session
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: Relative frequency of request kinds (search/sql/faceted/...).
    mix: Mapping[str, float] = field(
        default_factory=lambda: {"search": 0.6, "sql": 0.3, "faceted": 0.1}
    )
    roles: Tuple[str, ...] = ("user",)

    def __post_init__(self) -> None:
        if self.qos not in QOS_TIERS:
            raise ValueError(f"unknown qos {self.qos!r}")
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")


@dataclass
class _TenantOutcome:
    qos: str = QOS_INTERACTIVE
    offered: int = 0
    completed: int = 0
    shed: int = 0
    stall_events: int = 0
    errors: int = 0
    latencies_ms: List[float] = field(default_factory=list)


@dataclass
class ServingReport:
    """What one driver run measured (all times virtual ms)."""

    duration_ms: float = 0.0
    sessions: int = 0
    offered: int = 0
    completed: int = 0
    shed: int = 0
    stall_events: int = 0
    errors: int = 0
    #: Failed requests by exception class name (sums to ``errors``).
    errors_by_class: Dict[str, int] = field(default_factory=dict)
    tenants: Dict[str, _TenantOutcome] = field(default_factory=dict)

    @property
    def goodput_rps(self) -> float:
        return self.completed / (self.duration_ms / 1000.0) if self.duration_ms else 0.0

    def tenant_goodput_rps(self, tenant: str) -> float:
        if not self.duration_ms:
            return 0.0
        return self.tenants[tenant].completed / (self.duration_ms / 1000.0)

    def latency(self, tenant: str) -> Dict[str, float]:
        samples = self.tenants[tenant].latencies_ms
        return {
            "p50": percentile(samples, 0.50),
            "p99": percentile(samples, 0.99),
            "p999": percentile(samples, 0.999),
            "mean": sum(samples) / len(samples) if samples else 0.0,
            "max": max(samples) if samples else 0.0,
            "n": len(samples),
        }

    def tier_latency(self, qos: str) -> Dict[str, float]:
        samples: List[float] = []
        for outcome in self.tenants.values():
            if outcome.qos == qos:
                samples.extend(outcome.latencies_ms)
        return {
            "p50": percentile(samples, 0.50),
            "p99": percentile(samples, 0.99),
            "p999": percentile(samples, 0.999),
            "n": len(samples),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "duration_ms": self.duration_ms,
            "sessions": self.sessions,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "stall_events": self.stall_events,
            "errors": self.errors,
            "errors_by_class": dict(sorted(self.errors_by_class.items())),
            "goodput_rps": self.goodput_rps,
            "tenants": {
                name: {
                    "qos": t.qos,
                    "offered": t.offered,
                    "completed": t.completed,
                    "shed": t.shed,
                    "stall_events": t.stall_events,
                    "goodput_rps": self.tenant_goodput_rps(name),
                    "latency_ms": self.latency(name),
                }
                for name, t in sorted(self.tenants.items())
            },
        }


@dataclass
class _SimSession:
    session: Session
    spec: TenantSpec
    issued: int = 0


class WorkloadDriver:
    """Replay multi-tenant arrival processes against one appliance."""

    def __init__(
        self,
        app,
        specs: Sequence[TenantSpec],
        *,
        seed: int = 0,
        execute: bool = True,
        preload: bool = True,
        corpus_scale: float = 1.0,
    ) -> None:
        if not specs:
            raise ValueError("need at least one TenantSpec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.app = app
        self.specs = list(specs)
        self.seed = seed
        self.execute = execute
        self.corpus_scale = corpus_scale
        self._queries: Dict[str, Dict[str, List[Any]]] = {}
        if preload:
            self._preload()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _preload(self) -> None:
        """Ingest each distinct corpus once and keep its query templates."""
        for corpus in {spec.corpus for spec in self.specs}:
            workload = make_corpus(corpus, seed=self.seed, scale=self.corpus_scale)
            self.app.ingest_many(list(workload.documents()))
            self._queries[corpus] = corpus_queries(corpus)

    def _sessions_for(self, spec: TenantSpec) -> List[_SimSession]:
        principal = Principal(spec.name, spec.roles)
        return [
            _SimSession(
                session=self.app.connect(
                    principal=principal, qos=spec.qos, tenant=spec.name
                ),
                spec=spec,
            )
            for _ in range(spec.sessions)
        ]

    # ------------------------------------------------------------------
    # request construction
    # ------------------------------------------------------------------
    def _build_request(
        self, sim: _SimSession, rng: random.Random, now_ms: float
    ) -> Request:
        spec = sim.spec
        kinds = list(spec.mix.keys())
        weights = [spec.mix[k] for k in kinds]
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        queries = self._queries.get(spec.corpus) or corpus_queries(spec.corpus)
        session = sim.session
        fn: Optional[Callable[[], Any]] = None
        if kind == "search":
            term = rng.choice(queries["searches"])
            fn = (lambda s=session, t=term: s._search_impl(t, 10)) if self.execute else None
        elif kind == "sql":
            stmt = rng.choice(queries["sqls"])
            fn = (
                lambda s=session, q=stmt: s._sql_impl(q, "simple", None, False)
            ) if self.execute else None
        elif kind == "faceted":
            term = rng.choice(queries["searches"])
            fn = (
                lambda s=session, t=term: s._faceted_impl(t).facet_counts("format")
            ) if self.execute else None
        elif kind == "graph":
            fn = (lambda s=session: s._graph_impl()) if self.execute else None
        else:
            raise ValueError(f"unknown request kind {kind!r} in mix")
        cost = DEFAULT_COSTS.get(kind, 1.0) * rng.uniform(0.8, 1.2)
        request = session.request(kind, fn, cost_ms=cost)
        request.arrival_ms = now_ms
        return request

    # ------------------------------------------------------------------
    # the virtual-time event loop
    # ------------------------------------------------------------------
    def run(self, duration_ms: float = 2_000.0) -> ServingReport:
        """Drive every tenant for *duration_ms* of virtual time (plus
        queue drain) and return the measured report."""
        app = self.app
        scheduler = app.serving
        rng = random.Random(self.seed)
        report = ServingReport(duration_ms=duration_ms)

        sims: List[_SimSession] = []
        by_tenant: Dict[str, List[_SimSession]] = {}
        sim_by_id: Dict[int, _SimSession] = {}
        for spec in self.specs:
            tenant_sims = self._sessions_for(spec)
            sims.extend(tenant_sims)
            by_tenant[spec.name] = tenant_sims
            for sim in tenant_sims:
                sim_by_id[sim.session.session_id] = sim
            report.tenants[spec.name] = _TenantOutcome(qos=spec.qos)
        report.sessions = len(sims)

        heap: List[Tuple[float, int, str, Any]] = []
        counter = 0
        clock = [0.0]

        def push(t: float, kind: str, payload: Any) -> None:
            nonlocal counter
            counter += 1
            heapq.heappush(heap, (t, counter, kind, payload))

        def handle_evict(victim: Request) -> None:
            # A queued request lost its slot to higher-priority traffic:
            # count the shed and let its closed-loop session move on.
            outcome = report.tenants.get(victim.tenant)
            if outcome is not None:
                outcome.shed += 1
            if victim.session_id is not None:
                self._next_closed(
                    sim_by_id.get(victim.session_id), clock[0], report, push, rng
                )

        scheduler.on_evict = handle_evict

        # Seed the arrival processes.
        for spec in self.specs:
            if spec.arrival.process == "closed":
                for sim in by_tenant[spec.name]:
                    # Stagger first arrivals across one think interval so
                    # a thousand sessions don't fire at t=0 in lockstep.
                    push(rng.uniform(0.0, spec.arrival.think_ms), "issue", sim)
            else:
                push(rng.expovariate(spec.arrival.rate_rps) * 1000.0, "open", spec)

        busy = 0

        def try_dispatch(now: float) -> None:
            nonlocal busy
            while busy < scheduler.config.max_concurrency:
                request = scheduler.next_request()
                if request is None:
                    return
                request.start_ms = now
                busy += 1
                push(now + request.cost_ms, "complete", request)

        def submit(request: Request, sim: _SimSession, now: float) -> None:
            outcome = scheduler.submit(request)
            tenant = report.tenants[request.tenant]
            if outcome == ADMITTED:
                try_dispatch(now)
            elif outcome == SHED:
                tenant.shed += 1
                self._next_closed(sim, now, report, push, rng)
            elif outcome == STALLED:
                tenant.stall_events += 1
                push(now + scheduler.config.retry_backoff_ms, "reoffer", (request, sim))

        last_time = 0.0
        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            last_time = max(last_time, now)
            clock[0] = now
            if kind == "issue":
                sim = payload
                if now > duration_ms:
                    continue  # past the measurement window: stop issuing
                sim.issued += 1
                request = self._build_request(sim, rng, now)
                report.offered += 1
                report.tenants[request.tenant].offered += 1
                submit(request, sim, now)
            elif kind == "open":
                spec = payload
                if now > duration_ms:
                    continue
                sim = rng.choice(by_tenant[spec.name])
                sim.issued += 1
                request = self._build_request(sim, rng, now)
                report.offered += 1
                report.tenants[request.tenant].offered += 1
                submit(request, sim, now)
                push(
                    now + rng.expovariate(spec.arrival.rate_rps) * 1000.0,
                    "open",
                    spec,
                )
            elif kind == "reoffer":
                request, sim = payload
                submit(request, sim, now)
            elif kind == "complete":
                request = payload
                busy -= 1
                request.finish_ms = now
                tenant = report.tenants[request.tenant]
                ok = True
                if self.execute and request.fn is not None:
                    try:
                        request.result = request.fn()
                    except Exception as exc:
                        ok = False
                        tenant.errors += 1
                        report.errors += 1
                        name = type(exc).__name__
                        report.errors_by_class[name] = report.errors_by_class.get(name, 0) + 1
                scheduler.on_complete(request, request.latency_ms, ok=ok)
                if ok:
                    tenant.completed += 1
                    tenant.latencies_ms.append(request.latency_ms)
                    report.completed += 1
                sim = (
                    sim_by_id.get(request.session_id)
                    if request.session_id is not None
                    else None
                )
                self._next_closed(sim, now, report, push, rng)
                try_dispatch(now)

        scheduler.on_evict = None
        report.shed = sum(t.shed for t in report.tenants.values())
        report.stall_events = sum(t.stall_events for t in report.tenants.values())
        report.duration_ms = max(duration_ms, last_time)
        for sim in sims:
            sim.session.close()
        return report

    # ------------------------------------------------------------------
    def _next_closed(
        self,
        sim: Optional[_SimSession],
        now: float,
        report: ServingReport,
        push,
        rng: random.Random,
    ) -> None:
        """Closed-loop sessions issue their next request one think time
        after the previous one resolved (completed or shed)."""
        if sim is None or sim.spec.arrival.process != "closed":
            return
        if sim.issued >= sim.spec.requests_per_session:
            return
        push(now + rng.uniform(0.5, 1.5) * sim.spec.arrival.think_ms, "issue", sim)
