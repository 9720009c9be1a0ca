"""A discovery chunk is one group commit.

Differential: over the call-center, insurance and legal corpora, a pass
that commits each chunk's annotations at once ends in exactly the state
annotation-at-a-time discovery (``tests/oracle/persist.py``) reaches —
annotation ids, contents and timestamps, every node's version chains,
join edges, resolved entities and text-index hits.  A commit that raises
loses nothing, and one ``discover(64)`` is one invalidation epoch and at
most one standby shipment per data node.
"""

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.discovery.annotators import LexiconAnnotator, RegexAnnotator
from repro.discovery.relationships import RelationshipRule
from repro.model.converters import from_text
from repro.model.document import DocumentKind
from repro.workloads.callcenter import CallCenterWorkload
from repro.workloads.insurance import InsuranceWorkload
from repro.workloads.legal import LegalWorkload
from tests.oracle.persist import annotation_at_a_time_pass, per_annotation_persister

QUERIES = (
    "positive negative neutral",
    "widgetpro excellent",
    "alice johnson",
    "contract amendment",
    "procedure claim",
    "refund",
)


def _callcenter(n_transcripts=80):
    workload = CallCenterWorkload(n_customers=10, n_transcripts=n_transcripts, seed=11)
    app = Impliance(ApplianceConfig(
        n_data_nodes=3, n_grid_nodes=1, product_lexicon=workload.product_lexicon(),
    ))
    app.add_relationship_rule(
        RelationshipRule("mentions", "product_mention", "product", ("products", "name"))
    )
    return app, list(workload.documents())


def _insurance():
    workload = InsuranceWorkload(n_claims=80, seed=23)
    app = Impliance(ApplianceConfig(
        n_data_nodes=3, n_grid_nodes=1, procedure_lexicon=workload.procedure_lexicon(),
    ))
    app.add_relationship_rule(
        RelationshipRule("bills_procedure", "procedure_mention", "procedure",
                         ("claims", "procedure"))
    )
    return app, list(workload.documents())


def _legal():
    workload = LegalWorkload(n_companies=6, n_contracts=7, n_emails=60, seed=31)
    documents = list(workload.documents())
    app = Impliance(ApplianceConfig(n_data_nodes=3, n_grid_nodes=1))
    app.add_annotator(RegexAnnotator("contract-ref", "contract_ref", r"\bCTR-\d{4}\b", "ref"))
    app.add_annotator(LexiconAnnotator(
        "company", "company_mention",
        [workload.company_name(cid) for cid in range(workload.n_companies)], "name",
    ))
    app.add_relationship_rule(
        RelationshipRule("names", "company_mention", "name", ("companies", "name"))
    )
    return app, documents


def _people():
    """Several people per document, so the order annotations of one
    document are resolved in decides entity ids and canonical names."""
    names = ["Alice Johnson", "Bob Smith", "Carol White", "David Brown", "Erin Green"]
    documents = [
        from_text(
            f"ppl-{i}",
            f"Ms. {names[i % 5]} met {names[(2 * i + 1) % 5]} and "
            f"Dr. {names[(3 * i + 2) % 5].split()[0]} on 2007-01-{i % 28 + 1:02d}.",
        )
        for i in range(70)
    ]
    return Impliance(ApplianceConfig(n_data_nodes=3, n_grid_nodes=1)), documents


CORPORA = {
    "callcenter": _callcenter, "insurance": _insurance, "legal": _legal, "people": _people,
}


def _loaded(build):
    app, documents = build()
    app.ingest_many(documents, "document")
    return app


def _simmer(app):
    while app.discover(64):
        pass
    return app


def _reference_simmer(app):
    app.discovery._persist = per_annotation_persister(app)
    while annotation_at_a_time_pass(app.discovery, 64):
        pass
    return app


def _state(app):
    """Everything discovery leaves behind, in comparable form."""
    joins = app.indexes.joins
    return {
        "annotations": sorted(
            (d.doc_id, d.ingest_ts, d.to_json())
            for d in app.documents() if d.kind is DocumentKind.ANNOTATION
        ),
        "chains": {
            node.node_id: {
                doc_id: [d.to_json() for d in node.store.history(doc_id)]
                for doc_id in node.store.doc_ids()
            }
            for node in app.cluster.data_nodes
        },
        "edges": [
            (e.key, e.confidence, dict(e.payload))
            for relation in joins.relations() for e in joins.edges_of(relation)
        ],
        "entities": [
            (e.entity_id, e.canonical, e.label, list(e.mentions))
            for e in app.discovery.resolver.entities()
        ],
        "hits": {
            q: [(h.doc_id, h.score) for h in app.indexes.text.search(q, top_k=50)]
            for q in QUERIES
        },
        "stats": app.discovery.stats,
    }


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_chunk_commit_equals_per_annotation_persistence(corpus):
    batched = _simmer(_loaded(CORPORA[corpus]))
    reference = _reference_simmer(_loaded(CORPORA[corpus]))
    state = _state(batched)
    assert state["annotations"] and state["edges"]
    assert state == _state(reference)


def test_one_discover_is_one_epoch_and_one_shipment_per_node():
    # Transcripts only: a 64-document chunk yields more annotations than
    # an ingest batch holds, and still commits once.
    app, documents = _callcenter(n_transcripts=64)
    app.ingest_many(
        [d for d in documents if d.doc_id.startswith("crm-call-")], "document"
    )
    bus, recovery = app.caches.bus, app.recovery
    nodes = [node.node_id for node in app.cluster.data_nodes]
    events, shipments = bus.stats.put_events, recovery.stats.shipments
    records = {n: len(recovery.standby(n).records) for n in nodes}
    assert app.discover(64) == 64
    assert app.discovery.stats.annotations_created > app.config.ingest.batch_size
    assert bus.stats.put_events == events + 1
    assert recovery.stats.shipments - shipments <= len(nodes)
    for n in nodes:
        assert len(recovery.standby(n).records) - records[n] <= 1


class DiskFull(Exception):
    pass


class FailingOnce:
    """A persister that raises on its *nth* call and delegates otherwise."""

    def __init__(self, inner, nth):
        self.inner, self.nth, self.calls = inner, nth, 0

    def __call__(self, documents):
        self.calls += 1
        if self.calls == self.nth:
            raise DiskFull("no room for annotations")
        return self.inner(documents)


@pytest.mark.parametrize("nth", [1, 2])
def test_failed_commit_loses_nothing(nth):
    clean = _state(_simmer(_loaded(_callcenter)))
    app = _loaded(_callcenter)
    app.discovery._persist = FailingOnce(app.discovery._persist, nth)
    backlog = app.discovery.backlog
    if nth == 2:
        assert app.discover(64) == 64
        backlog -= 64
    done = app.discovery.stats.docs_processed
    with pytest.raises(DiskFull):
        app.discover(64)
    # No bookkeeping applied, and the whole chunk is back in the queue.
    assert app.discovery.stats.docs_processed == done
    assert app.discovery.backlog == backlog
    assert app.stats()["counters"]["discovery.persist_failed.DiskFull"] == 1
    assert _state(_simmer(app)) == clean


def test_failed_followup_still_book_keeps_the_chunk():
    # "Dr. Mrs" is a person mention that normalizes to nothing, so entity
    # resolution raises after the chunk's annotations are committed.
    clean = _state(_simmer(_loaded(_people)))
    app, documents = _people()
    bad = from_text("ppl-bad", "Dr. Mrs")
    app.ingest_many(documents[:30] + [bad] + documents[30:], "document")
    with pytest.raises(ValueError, match="normalizes to nothing"):
        app.discover(64)
    assert app.discovery.stats.docs_processed == 64
    assert app.discovery.backlog == len(documents) + 1 - 64
    assert app.stats()["counters"]["discovery.followup_failed.ValueError"] == 1
    assert any(
        d.refs == ("ppl-bad",) for d in app.documents() if d.kind is DocumentKind.ANNOTATION
    )
    state = _state(_simmer(app))
    assert app.discovery.stats.docs_processed == len(documents) + 1
    assert state["edges"] == clean["edges"]
    assert state["entities"] == clean["entities"]
