"""The four workloads: inputs from a seed, set-up, timed region, checks.

Every workload drives the appliance the way a client does — through
``Impliance.connect()`` sessions plus ``Impliance.discover()`` — on the
default ``ApplianceConfig``.  Load is a closed loop of one client on one
thread: the appliance is in-process and synchronous, so the next call is
issued when the previous one returns.  Schedules have a fixed number of
calls (a per-workload constant times the region length asked for, sized
so the timed region lasts about that long at HEAD on two cores) and are
fully determined by the seed, so simulated cost, stored bytes, cache
counts and result digests repeat exactly.

A workload object holds sizes and the seed only.  ``setup`` returns a
``State`` the harness owns; ``run`` is the timed region and does nothing
but issue calls through the recorder; ``check`` runs afterwards and
reports every wrong output through ``rec.fail``.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import corpus
import reference
from metrics import median
from recorder import Recorder
from repro import ApplianceConfig, Impliance
from repro.cache.config import CacheConfig
from repro.model.views import annotation_view
from repro.security.policy import AccessPolicy, Action, Principal, Rule

#: Documents per ``Impliance.discover`` call.
DISCOVER_BUDGET = 64

State = SimpleNamespace


def digest(value: Any) -> str:
    """Stable short digest of a result payload."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def canonical(out: Any) -> Any:
    """The part of a call's result that must not depend on how it was
    computed: rows of a query, ids of stored documents, keys of a
    neighbourhood."""
    if hasattr(out, "rows"):
        return out.rows
    if hasattr(out, "doc_id"):
        return out.doc_id
    if isinstance(out, dict):
        return sorted(out)
    if isinstance(out, list) and out and hasattr(out[0], "doc_id"):
        return [document.doc_id for document in out]
    return out


def output_digests(rec) -> List[str]:
    """One digest per kept call, in call order."""
    return [digest(canonical(out)) for _kind, out in rec.kept()]


def _bulk_load(state: State, chunks: List[corpus.Chunk]) -> Dict[str, str]:
    """Set-up preload through ``Session.ingest_many``; records each
    call's latency and returns generator label -> stored doc_id."""
    ids: Dict[str, str] = {}
    state.ingest_docs = 0
    state.ingest_calls_s = []
    for chunk in chunks:
        started = time.perf_counter()
        stored = state.session.ingest_many(chunk.payloads, table=chunk.table)
        state.ingest_calls_s.append(time.perf_counter() - started)
        state.ingest_docs += len(stored)
        for label, document in zip(chunk.labels, stored):
            ids[label] = document.doc_id
    state.user_bytes = sum(chunk.user_bytes for chunk in chunks)
    return ids


def _simmer(state: State, budget_docs: Optional[int]) -> None:
    """Set-up discovery: *budget_docs* documents (None drains the queue)
    in ``discover(budget=64)`` calls; records each call's latency."""
    state.discover_docs = 0
    state.discover_calls_s = []
    while budget_docs is None or state.discover_docs < budget_docs:
        started = time.perf_counter()
        step = state.app.discover(budget=DISCOVER_BUDGET)
        if not step:
            break
        state.discover_calls_s.append(time.perf_counter() - started)
        state.discover_docs += step


def apportion(total: int, weights: List[float]) -> List[int]:
    """Split *total* into whole counts proportional to *weights* (largest
    remainders first), so every seed draws each item equally often and
    only the order differs between seeds."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - weights[i] * scale)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _rows_chunks(table: str, rows: List[dict]) -> List[corpus.Chunk]:
    """Rows of one table in ``ingest_many``-sized chunks, each row
    labelled with its position in *rows*."""
    return [
        corpus.Chunk(table, rows[i:i + corpus.CHUNK],
                     [str(n) for n in range(i, min(i + corpus.CHUNK, len(rows)))])
        for i in range(0, len(rows), corpus.CHUNK)
    ]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds

    def setup(self, config: Optional[ApplianceConfig] = None) -> State:
        raise NotImplementedError

    def run(self, state: State, rec) -> None:
        raise NotImplementedError

    def check(self, state: State, rec) -> None:
        raise NotImplementedError

    def schedule_digest(self, state: State) -> str:
        """Digest of the generated inputs (equal seeds, equal digests)."""
        raise NotImplementedError

    def bulk_rates(self, rec, latencies: List[float], setups: List[State]) -> Tuple[float, float]:
        """(documents bulk-ingested per second, documents enriched per
        second).  By default the bulk load and the simmer of set-up, each
        call at its shortest over *setups* — like the calls of the timed
        region, whose kept outputs and per-call *latencies* a workload
        that loads in the region uses instead."""
        ingest_s = sum(min(calls) for calls in zip(*(s.ingest_calls_s for s in setups)))
        discover_s = sum(min(calls) for calls in zip(*(s.discover_calls_s for s in setups)))
        return setups[0].ingest_docs / ingest_s, setups[0].discover_docs / discover_s

    def side_probes(self, state: State, rec, plain) -> Dict[str, float]:
        """Per-layer metrics only this workload can measure, taken after
        the traced region (*plain* is the untraced one's recorder)."""
        return {}


# ----------------------------------------------------------------------
# load_enrich
# ----------------------------------------------------------------------
class LoadEnrich(Workload):
    name = "load_enrich"
    why = (
        "infuse-then-simmer: raw mixed-format payloads through ingest_many, then "
        "discover; ingest, model, index, storage and discovery work, every query layer idle"
    )
    PAYLOADS_PER_S = 2900
    ENRICH_CALLS_PER_S = 9
    #: Person-mention recall floor on the enriched transcripts.
    RECALL_FLOOR = 0.95

    def setup(self, config=None) -> State:
        state = State()
        state.corpus = corpus.bulk_corpus(self.seed, int(self.PAYLOADS_PER_S * self.seconds))
        state.enrich_target = DISCOVER_BUDGET * max(2, int(self.ENRICH_CALLS_PER_S * self.seconds))
        state.app = Impliance(config)
        state.session = state.app.connect(Principal("loader", ("etl",)), qos="batch")
        state.user_bytes = state.corpus.user_bytes
        return state

    def run(self, state: State, rec) -> None:
        ingest_many = state.session.ingest_many
        for chunk in state.corpus.chunks:
            rec.call("ingest_many", ingest_many, chunk.payloads, table=chunk.table, keep=True)
        discover = state.app.discover
        enriched = 0
        while enriched < state.enrich_target:
            step = rec.call("discover", discover, DISCOVER_BUDGET, keep=True)
            if not step:  # failed call or an exhausted queue: do not spin
                break
            enriched += step

    def bulk_rates(self, rec, latencies, setups) -> Tuple[float, float]:
        """Phase A and phase B of the timed region: the kept, compacted
        outputs of *rec* are documents per call."""
        docs = {"ingest_many": 0, "discover": 0}
        busy = {"ingest_many": 0.0, "discover": 0.0}
        for (kind, count), latency in zip(rec.kept(), latencies):
            docs[kind] += count
            busy[kind] += latency
        return docs["ingest_many"] / busy["ingest_many"], docs["discover"] / busy["discover"]

    def check(self, state: State, rec) -> None:
        app, corp = state.app, state.corpus
        arrival: List[str] = []   # stored doc ids in arrival order
        ids: Dict[str, str] = {}  # generator label -> stored doc id
        outputs = [out or () for kind, out in rec.kept() if kind == "ingest_many"]
        for chunk, stored in zip(corp.chunks, outputs):
            arrival.extend(document.doc_id for document in stored)
            for label, document in zip(chunk.labels, stored):
                ids[label] = document.doc_id
        if len(arrival) != corp.document_count:
            rec.fail("ingest_many", "DocumentsMissing")
        annotations = app.stats()["appliance"]["annotations"]
        if app.doc_count != corp.document_count + annotations:
            rec.fail("ingest_many", "DocCountMismatch")
        # Sampled round trip: what went in comes back out unchanged.
        rng = random.Random(self.seed)
        labelled = [(c, i) for c in corp.chunks for i in range(len(c.labels))]
        for chunk, i in rng.sample(labelled, min(200, len(labelled))):
            document = app.lookup(ids.get(chunk.labels[i], ""))
            if document is None or corpus.raw_payload(document)[0] != chunk.payloads[i]:
                rec.fail("ingest_many", "LookupMismatch")
        state.ids = ids
        state.mention_recall, judged = self._mention_recall(state, arrival)
        if judged and state.mention_recall < self.RECALL_FLOOR:
            rec.fail("discover", "RecallBelowFloor")

    def _mention_recall(self, state: State, arrival: List[str]) -> Tuple[float, int]:
        """Share of enriched call transcripts whose caller the default
        annotator suite found (``CallCenterWorkload.truths``), and how
        many transcripts that share is over."""
        app = state.app
        processed = int(app.stats()["counters"].get("discovery.docs_processed", 0))
        enriched = set(arrival[:processed])
        app.define_view(annotation_view("bench_people", "person", ["name"]))
        found: Dict[str, set] = {}
        rows = state.session.sql("SELECT subject_id, name FROM bench_people").rows
        for row in rows:
            found.setdefault(row["subject_id"], set()).add(row["name"])
        hits = total = 0
        for truth in state.corpus.callcenter.truths:
            doc_id = state.ids.get(truth.doc_id)
            if doc_id in enriched:
                total += 1
                hits += truth.customer_name in found.get(doc_id, ())
        return (hits / total if total else 0.0), total

    def side_probes(self, state: State, rec, plain) -> Dict[str, float]:
        restore_ms, lost = self._restore_check(state, rec)
        return {
            "discovery.mention_recall": state.mention_recall,
            "storage.restore_ms": restore_ms,
            "storage.restore_lost_docs": float(lost),
        }

    def _restore_check(self, state: State, rec) -> Tuple[float, int]:
        """Crash a data node and restore it from its standby log; returns
        (wall ms of fail_node + restore, documents no longer readable)."""
        app = state.app
        started = time.perf_counter()
        app.fail_node("data-1")
        app.restore("data-1")
        wall_ms = (time.perf_counter() - started) * 1000.0
        lost = sum(1 for doc_id in state.ids.values() if app.lookup(doc_id) is None)
        if lost:
            rec.fail("restore", "DocumentsLost")
        return wall_ms, lost

    def schedule_digest(self, state: State) -> str:
        return digest([(c.table, c.payloads) for c in state.corpus.chunks])


# ----------------------------------------------------------------------
# scan_sql
# ----------------------------------------------------------------------
class ScanSql(Workload):
    name = "scan_sql"
    why = (
        "analytic SQL with a fresh literal per request over 20k rows: engine, compiled "
        "pipelines, operators and the column store work; result cache, serving and ingest idle"
    )
    CUSTOMERS = 500
    ORDERS = 20_000
    REQUESTS_PER_S = 30
    SIMMER_DOCS = 1024

    def setup(self, config=None) -> State:
        state = State()
        state.customers, state.orders = corpus.relational_rows(
            self.seed, self.CUSTOMERS, self.ORDERS
        )
        state.schedule = self._schedule()
        state.app = Impliance(config)
        state.session = state.app.connect(Principal("analyst", ("analyst",)), qos="batch")
        _bulk_load(
            state,
            _rows_chunks("customers", state.customers) + _rows_chunks("orders", state.orders),
        )
        _simmer(state, self.SIMMER_DOCS)
        return state

    def _schedule(self) -> List[Tuple]:
        """(template, literal, SQL text), cycling the templates.  Each
        template's literals are one draw per equal stratum of its range,
        in seeded order: never repeated, and the same spread of
        selectivities whatever the seed."""
        rng = random.Random(self.seed * 104729 + 3)
        templates = reference.TEMPLATES
        cycles = max(1, int(self.REQUESTS_PER_S * self.seconds) // len(templates))
        literals = []
        for template in templates:
            width = (template.high - template.low) / cycles
            drawn = [
                round(template.low + (stratum + rng.random()) * width, 2)
                for stratum in range(cycles)
            ]
            rng.shuffle(drawn)
            literals.append(drawn)
        return [
            (template, xs[cycle], template.sql.format(x=xs[cycle]))
            for cycle in range(cycles)
            for template, xs in zip(templates, literals)
        ]

    def run(self, state: State, rec) -> None:
        sql = state.session.sql
        for template, _x, query in state.schedule:
            rec.call("sql." + template.name, sql, query, keep=True)

    def check(self, state: State, rec) -> None:
        for (template, x, _query), (_kind, result) in zip(state.schedule, rec.kept()):
            if result is None:
                continue  # already counted as a raised failure
            reason = template.verify(state.orders, state.customers, x, result.rows)
            if reason is not None:
                rec.fail("sql." + template.name, "WrongAnswer")

    def schedule_digest(self, state: State) -> str:
        return digest([query for _t, _x, query in state.schedule])


# ----------------------------------------------------------------------
# mixed_serving
# ----------------------------------------------------------------------
class MixedServing(Workload):
    name = "mixed_serving"
    why = (
        "skewed dashboard traffic from a 24-request pool over three tenants: the median "
        "request is a result-cache hit, so serving, cache keys, telemetry and the text index "
        "carry the time, not the engine"
    )
    SCALE = 10.0
    REQUESTS_PER_S = 3400
    #: Calls replayed on the cache-disabled twin and compared by digest.
    CHECK_PREFIX = 2000
    KIND_SHARES = (("sql", 0.50), ("search", 0.25), ("faceted", 0.15), ("graph", 0.09),
                   ("ingest", 0.01))

    def setup(self, config=None) -> State:
        state = State()
        state.corpus = corpus.serving_corpus(self.seed, self.SCALE)
        state.app = Impliance(config)
        app = state.app
        state.session = app.connect(Principal("loader", ("etl",)), qos="batch")
        state.tenants = [
            app.connect(Principal("acme", ("analyst",)), qos="interactive"),
            app.connect(Principal("globex", ("analyst",)), qos="interactive"),
            app.connect(Principal("initech", ("reporting",)), qos="batch"),
        ]
        ids = _bulk_load(state, state.corpus.chunks)
        _simmer(state, None)
        state.pool = self._pool(state.corpus, ids)
        state.schedule = self._schedule(state.pool)
        return state

    def _pool(self, corp: corpus.Corpus, ids: Dict[str, str]) -> Dict[str, List[Tuple]]:
        """About 24 requests; each entry is (method, args...)."""
        by_caller: Dict[str, List[str]] = {}
        for truth in corp.callcenter.truths:
            by_caller.setdefault(truth.customer_name, []).append(ids[truth.doc_id])
        shared = sorted((docs for docs in by_caller.values() if len(docs) >= 2), key=len,
                        reverse=True)
        (a, b), (c, d) = shared[0][:2], shared[1][:2]
        return {
            "sql": [
                ("SELECT region, count(*) AS n, sum(amount) AS total FROM orders GROUP BY region",),
                ("SELECT count(*) AS n FROM claims",),
                ("SELECT procedure, avg(amount) AS a FROM claims WHERE amount > 500 "
                 "GROUP BY procedure",),
                ("SELECT oid, amount FROM orders WHERE status = 'returned' "
                 "ORDER BY amount DESC LIMIT 10",),
                ("SELECT * FROM providers",),
                ("SELECT plan, count(*) AS n FROM patients GROUP BY plan",),
                ("SELECT kind, sum(value) AS total FROM contracts GROUP BY kind",),
                ("SELECT count(*) AS n FROM customers",),
                ("SELECT * FROM products",),
                ("SELECT status, count(*) AS n FROM orders GROUP BY status",),
            ],
            "search": [
                ("refund",), ("widgetpro",), ("contract amendment",), ("biopsy",),
                ("crashing",), ("excellent",), ("estimate review",), ("cafeteria",),
            ],
            "faceted": [(None, "format"), ("refund", "format"), ("contract", "table")],
            "graph": [("connections", a, b), ("related", c), ("connections", c, d)],
        }

    def _schedule(self, pool: Dict[str, List[Tuple]]) -> List[Tuple]:
        """(tenant index, kind, args): tenants round-robin; every kind
        and, within a kind, every request (by a 1/rank skew) gets its
        exact share of the calls, in ``ORDER_SEED`` order; the writes are
        spread evenly so each stretch of reads sees the same
        invalidations.  The rows written come from the seed."""
        shape = random.Random(corpus.ORDER_SEED)
        rng = random.Random(self.seed * 15485863 + 5)
        requests = max(200, int(self.REQUESTS_PER_S * self.seconds))
        per_kind = dict(zip(
            (k for k, _ in self.KIND_SHARES),
            apportion(requests, [share for _, share in self.KIND_SHARES]),
        ))
        reads: List[Tuple[str, Tuple]] = []
        for kind, entries in pool.items():
            counts = apportion(per_kind[kind], [1.0 / (rank + 1) for rank in range(len(entries))])
            for entry, count in zip(entries, counts):
                reads.extend([(kind, entry)] * count)
        shape.shuffle(reads)
        # One write per equal stretch of the schedule (distinct positions).
        writes = per_kind["ingest"]
        total = len(reads) + writes
        write_at = {int((j + shape.random()) * total / writes) for j in range(writes)}
        pending = iter(reads)
        schedule: List[Tuple] = []
        for i in range(total):
            if i in write_at:
                kind, args = "ingest", ({
                    "oid": 10_000_000 + i, "cid": rng.randrange(100),
                    "amount": round(rng.uniform(5, 500), 2),
                    "region": rng.choice(("east", "west", "north", "south")),
                    "status": rng.choice(("open", "shipped", "returned")),
                },)
            else:
                kind, args = next(pending)
            schedule.append((i % 3, kind, args))
        return schedule

    @staticmethod
    def _issue(session, kind: str, args: Tuple) -> Any:
        if kind == "sql":
            return session.sql(args[0])
        if kind == "search":
            return session.search(args[0])
        if kind == "faceted":
            return session.faceted(args[0]).facet_counts(args[1])
        if kind == "ingest":
            return session.ingest(args[0], table="orders")
        if args[0] == "connections":
            return session.connections(args[1], args[2])
        return session.graph().related(args[1])

    def run(self, state: State, rec, limit: Optional[int] = None) -> None:
        issue, tenants, prefix = self._issue, state.tenants, self.CHECK_PREFIX
        schedule = state.schedule if limit is None else state.schedule[:limit]
        for i, (tenant, kind, args) in enumerate(schedule):
            rec.call(kind, issue, tenants[tenant], kind, args, keep=i < prefix)

    def check(self, state: State, rec) -> None:
        """Replay the kept prefix on a twin with every cache tier off;
        each answer must have the digest the cached appliance gave."""
        twin_state = self.setup(ApplianceConfig(cache=CacheConfig(enabled=False)))
        twin = Recorder()
        self.run(twin_state, twin, limit=min(self.CHECK_PREFIX, len(state.schedule)))
        for (kind, _out), ours, theirs in zip(rec.kept(), output_digests(rec), output_digests(twin)):
            if ours != theirs:
                rec.fail(kind, "CacheDigestMismatch")

    def side_probes(self, state: State, rec, plain) -> Dict[str, float]:
        sql_ratio, search_ratio = self._policy_probe(state)
        return {
            "security.policy_sql_ratio": sql_ratio,
            "security.policy_search_ratio": search_ratio,
            "obs.telemetry_overhead_share": self._telemetry_probe(plain),
        }

    def _policy_probe(self, state: State) -> Tuple[float, float]:
        """Median latency on a policy-scoped session over the median on an
        open one, for SQL and for search: 50 requests per side and kind,
        after the timed region and outside every end-to-end number."""
        policy = AccessPolicy(
            [Rule("analysts-see-all", ("analyst",), (Action.READ, Action.QUERY))]
        )
        scoped = state.app.connect(
            Principal("auditor", ("analyst",)), qos="interactive", policy=policy
        )
        ratios = []
        for kind in ("sql", "search"):
            entries = state.pool[kind]
            medians = []
            for session in (scoped, state.tenants[0]):
                rec = Recorder()
                for i in range(50):
                    rec.call(kind, self._issue, session, kind, entries[i % len(entries)])
                medians.append(median(rec.latencies))
            ratios.append(medians[0] / medians[1])
        return ratios[0], ratios[1]

    def _telemetry_probe(self, plain: Recorder) -> float:
        """Share of the first ``CHECK_PREFIX`` calls' time that telemetry
        costs: the same calls replayed on ``ApplianceConfig(telemetry=False)``
        against their time in the untraced region *plain*."""
        limit = min(self.CHECK_PREFIX, len(plain.latencies))
        quiet_state = self.setup(ApplianceConfig(telemetry=False))
        quiet = Recorder()
        self.run(quiet_state, quiet, limit=limit)
        with_telemetry = sum(plain.latencies[:limit])
        return (with_telemetry - sum(quiet.latencies)) / with_telemetry

    def schedule_digest(self, state: State) -> str:
        return digest(state.schedule)


# ----------------------------------------------------------------------
# trickle_write
# ----------------------------------------------------------------------
class TrickleWrite(Workload):
    name = "trickle_write"
    why = (
        "single-document writes interleaved with reads that must observe them: ingest as "
        "batches of one, caches invalidating, IVM and standing queries repairing per write"
    )
    ORDERS = 8_000
    CUSTOMERS = 200
    OPS_PER_S = 180
    SIMMER_DOCS = 1024
    AGGREGATE = "SELECT region, count(*) AS n, sum(amount) AS total FROM orders GROUP BY region"
    THRESHOLD = 480.0
    KIND_SHARES = (("ingest", 0.35), ("update", 0.15), ("delete", 0.05),
                   ("mv_rows", 0.20), ("sql_agg", 0.15), ("poll", 0.10))

    def setup(self, config=None) -> State:
        state = State()
        _customers, state.orders = corpus.relational_rows(self.seed, self.CUSTOMERS, self.ORDERS)
        state.app = Impliance(config)
        app = state.app
        state.session = app.connect(Principal("orders-app", ("writer",)), qos="interactive")
        ids = _bulk_load(state, _rows_chunks("orders", state.orders))
        _simmer(state, self.SIMMER_DOCS)
        state.doc_ids = [ids[str(i)] for i in range(len(state.orders))]
        state.view = app.materialize("orders_by_region", self.AGGREGATE)
        state.view.rows()
        state.subscription = state.session.subscribe(
            f"SELECT oid, amount FROM orders WHERE amount > {self.THRESHOLD}"
        )
        state.snapshot = state.subscription.poll()
        state.schedule = self._schedule(len(state.orders))
        return state

    def _schedule(self, preloaded: int) -> List[Tuple]:
        """(kind, target, row): kinds in their exact shares, in
        ``ORDER_SEED`` order; rows and targets from the seed.  *target*
        indexes the live-document list the runner keeps (writes append,
        deletes pop), so the schedule needs no doc ids."""
        shape = random.Random(corpus.ORDER_SEED)
        rng = random.Random(self.seed * 32452843 + 7)
        ops = max(50, int(self.OPS_PER_S * self.seconds))
        kinds = [
            kind
            for (kind, _share), count in zip(
                self.KIND_SHARES, apportion(ops, [share for _, share in self.KIND_SHARES]))
            for _ in range(count)
        ]
        shape.shuffle(kinds)
        live = preloaded
        next_oid = 10_000_000
        schedule = []
        for kind in kinds:
            target, row = -1, None
            if kind in ("ingest", "update"):
                row = {
                    "oid": 0, "cid": rng.randrange(self.CUSTOMERS),
                    "amount": round(rng.uniform(5, 500), 2),
                    "region": rng.choice(("east", "west", "north", "south")),
                    "status": rng.choice(("open", "shipped", "returned")),
                }
            if kind == "ingest":
                next_oid += 1
                row["oid"] = next_oid
                live += 1
            elif kind == "update":
                target = rng.randrange(live)
            elif kind == "delete":
                target = rng.randrange(live)
                live -= 1
            schedule.append((kind, target, row))
        return schedule

    def run(self, state: State, rec) -> None:
        session, view, subscription = state.session, state.view, state.subscription
        aggregate = self.AGGREGATE
        threshold = self.THRESHOLD
        # The shadow the reads are checked against: per-region totals, the
        # standing query's expected rows, and the live documents.
        live = list(zip(state.doc_ids, state.orders))
        totals: Dict[str, List[float]] = {}
        high: Dict[int, float] = {}
        for row in state.orders:
            _shadow_add(totals, high, row, threshold)
        offered = 0
        expected = state.expected = []  # shadow snapshot per kept read, in order
        for kind, target, row in state.schedule:
            if kind == "ingest":
                stored = rec.call(kind, session.ingest, row, table="orders")
                if stored is not None:
                    live.append((stored.doc_id, row))
                    _shadow_add(totals, high, row, threshold)
                    offered += corpus.payload_bytes(row)
            elif kind == "update":
                doc_id, old = live[target]
                new = dict(row, oid=old["oid"])
                if rec.call(kind, session.update_document, doc_id, {"orders": new}) is not None:
                    live[target] = (doc_id, new)
                    _shadow_remove(totals, high, old, threshold)
                    _shadow_add(totals, high, new, threshold)
                    offered += corpus.payload_bytes(new)
            elif kind == "delete":
                doc_id, old = live[target]
                if rec.call(kind, session.delete_document, doc_id) is not None:
                    live.pop(target)
                    _shadow_remove(totals, high, old, threshold)
            elif kind == "mv_rows":
                rec.call(kind, view.rows, keep=True)
                expected.append({region: tuple(t) for region, t in totals.items()})
            elif kind == "sql_agg":
                rec.call(kind, session.sql, aggregate, keep=True)
                expected.append({region: tuple(t) for region, t in totals.items()})
            else:
                rec.call(kind, subscription.poll, keep=True)
                expected.append(dict(high))
        state.user_bytes += offered

    def check(self, state: State, rec) -> None:
        standing: Counter = Counter()
        _apply_deltas(standing, state.snapshot)
        for (kind, out), want in zip(rec.kept(), state.expected):
            if out is None:
                continue
            if kind == "poll":
                _apply_deltas(standing, out)
                if +standing != Counter(want.items()):
                    rec.fail(kind, "StandingQueryMismatch")
                continue
            rows = out if kind == "mv_rows" else out.rows
            got = {row["region"]: (row["n"], row["total"]) for row in rows}
            same = got.keys() == want.keys() and all(
                got[r][0] == want[r][0]
                and math.isclose(got[r][1], want[r][1], rel_tol=1e-9, abs_tol=1e-6)
                for r in want
            )
            if not same:
                rec.fail(kind, "ShadowMismatch")

    def schedule_digest(self, state: State) -> str:
        return digest(state.schedule)


def _shadow_add(totals, high, row, threshold) -> None:
    entry = totals.setdefault(row["region"], [0, 0.0])
    entry[0] += 1
    entry[1] += row["amount"]
    if row["amount"] > threshold:
        high[row["oid"]] = row["amount"]


def _shadow_remove(totals, high, row, threshold) -> None:
    entry = totals[row["region"]]
    entry[0] -= 1
    entry[1] -= row["amount"]
    if not entry[0]:
        del totals[row["region"]]
    high.pop(row["oid"], None)


def _apply_deltas(standing: Counter, deltas) -> None:
    for delta in deltas:
        for row in delta.removed:
            standing[(row["oid"], row["amount"])] -= 1
        for row in delta.added:
            standing[(row["oid"], row["amount"])] += 1


WORKLOADS = {w.name: w for w in (LoadEnrich, ScanSql, MixedServing, TrickleWrite)}
