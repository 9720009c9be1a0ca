"""Tests for entity resolution, relationships, pipeline, and mining."""

import pytest

from repro.discovery.annotators import default_annotators
from repro.discovery.mining import PiggybackMiner
from repro.discovery.pipeline import DiscoveryEngine
from repro.discovery.relationships import RelationshipRule
from repro.discovery.resolution import (
    EntityResolver,
    Mention,
    normalize_name,
    token_similarity,
)
from repro.model.converters import from_relational_row, from_text
from repro.query.engine import LocalRepository
from repro.storage.store import DocumentStore


class TestNormalization:
    def test_strips_honorifics_and_case(self):
        assert normalize_name("Dr. Alice JOHNSON") == "alice johnson"

    def test_punctuation_removed(self):
        assert normalize_name("O'Brien, Pat") == "o brien pat"

    def test_similarity_identical(self):
        assert token_similarity("alice johnson", "alice johnson") == 1.0

    def test_similarity_surname_bonus(self):
        partial = token_similarity("a johnson", "b johnson")
        assert partial > token_similarity("a johnson", "b smith")

    def test_similarity_empty(self):
        assert token_similarity("", "x") == 0.0


class TestEntityResolver:
    def test_same_name_same_entity(self):
        resolver = EntityResolver()
        e1 = resolver.resolve(Mention("d1", "Alice Johnson", "person"))
        e2 = resolver.resolve(Mention("d2", "alice johnson", "person"))
        assert e1 is e2
        assert e1.doc_ids == {"d1", "d2"}

    def test_honorific_variant_merges(self):
        resolver = EntityResolver()
        e1 = resolver.resolve(Mention("d1", "Alice Johnson", "person"))
        e2 = resolver.resolve(Mention("d2", "Ms. Alice Johnson", "person"))
        assert e1 is e2

    def test_different_surnames_stay_apart(self):
        resolver = EntityResolver()
        e1 = resolver.resolve(Mention("d1", "Alice Johnson", "person"))
        e2 = resolver.resolve(Mention("d2", "Alice Smith", "person"))
        assert e1 is not e2
        assert resolver.entity_count == 2

    def test_labels_block_separately(self):
        resolver = EntityResolver()
        e1 = resolver.resolve(Mention("d1", "Johnson", "person"))
        e2 = resolver.resolve(Mention("d2", "Johnson", "company"))
        assert e1 is not e2

    def test_canonical_prefers_longest(self):
        resolver = EntityResolver()
        resolver.resolve(Mention("d1", "A Johnson", "person"))
        entity = resolver.resolve(Mention("d2", "Alice Johnson", "person"))
        assert entity.canonical == "Alice Johnson"

    def test_entities_sorted_by_mentions(self):
        resolver = EntityResolver()
        for d in ("d1", "d2", "d3"):
            resolver.resolve(Mention(d, "Alice Johnson", "person"))
        resolver.resolve(Mention("d4", "Bob Smith", "person"))
        entities = resolver.entities("person")
        assert entities[0].canonical == "Alice Johnson"

    def test_resolve_all_dedupes(self):
        resolver = EntityResolver()
        touched = resolver.resolve_all(
            [Mention("d1", "Alice Johnson"), Mention("d2", "Alice Johnson")]
        )
        assert len(touched) == 1


@pytest.fixture
def discovery_setup():
    store = DocumentStore()
    repo = LocalRepository(store)
    engine = DiscoveryEngine(
        repo,
        persist=store.put_many,
        annotators=default_annotators(products=["WidgetPro", "GadgetMax"]),
        rules=[RelationshipRule("mentions", "product_mention", "product", ("products", "name"))],
    )
    store.put_listeners.append(lambda d, a: engine.enqueue(d))
    return store, repo, engine


class TestDiscoveryPipeline:
    def test_backlog_and_drain(self, discovery_setup):
        store, repo, engine = discovery_setup
        store.put(from_text("t1", "Alice Johnson loves the WidgetPro, excellent!"))
        store.put(from_relational_row("p1", "products", {"pid": 1, "name": "WidgetPro"}))
        assert engine.backlog == 2
        processed = engine.drain()
        assert processed >= 2
        assert engine.backlog == 0

    def test_annotations_persisted_and_indexed(self, discovery_setup):
        store, repo, engine = discovery_setup
        store.put(from_text("t1", "the WidgetPro is excellent"))
        engine.drain()
        assert engine.stats.annotations_created >= 2  # product + sentiment
        hits = repo.indexes.text.match_all("widgetpro")
        assert any(h.startswith("ann-") for h in hits)

    def test_relationship_rule_creates_edges(self, discovery_setup):
        store, repo, engine = discovery_setup
        store.put(from_relational_row("p1", "products", {"pid": 1, "name": "WidgetPro"}))
        engine.drain()
        store.put(from_text("t1", "customer praised the WidgetPro"))
        engine.drain()
        assert repo.indexes.joins.targets("mentions", "t1") == {"p1"}

    def test_rule_added_later_applies_to_new_docs(self, discovery_setup):
        store, repo, engine = discovery_setup
        engine.add_rule(
            RelationshipRule("cites", "date", "date", ("contracts", "signed"))
        )
        store.put(from_relational_row("k1", "contracts", {"cid": 1, "signed": "2007-01-10"}))
        engine.drain()
        store.put(from_text("t9", "as agreed on 2007-01-10 the terms apply"))
        engine.drain()
        assert repo.indexes.joins.targets("cites", "t9") == {"k1"}

    def test_co_mention_edges(self, discovery_setup):
        store, repo, engine = discovery_setup
        store.put(from_text("t1", "Alice Johnson called about billing"))
        store.put(from_text("t2", "Alice Johnson called again, unresolved"))
        engine.drain()
        assert repo.indexes.joins.connection("t1", "t2") is not None

    def test_annotations_not_reannotated(self, discovery_setup):
        store, repo, engine = discovery_setup
        store.put(from_text("t1", "refund of $100.00 requested, terrible"))
        engine.drain()
        first_round = engine.stats.annotations_created
        engine.drain()  # annotation docs were enqueued? they must not be
        assert engine.stats.annotations_created == first_round

    def test_run_pass_budget(self, discovery_setup):
        store, repo, engine = discovery_setup
        for i in range(10):
            store.put(from_text(f"t{i}", "plain text"))
        assert engine.run_pass(budget=3) == 3
        assert engine.backlog == 7

    def test_schema_registry_populated(self, discovery_setup):
        store, repo, engine = discovery_setup
        store.put(from_relational_row("r1", "t", {"a": 1}))
        store.put(from_relational_row("r2", "t", {"a": 2}))
        engine.drain()
        assert len(engine.schema_registry) >= 1
        cluster = engine.schema_registry.cluster_of("r1")
        assert "r2" in cluster.doc_ids


class TestPiggybackMining:
    def test_coverage_grows_with_traffic(self):
        store = DocumentStore(page_bytes=512, segment_pages=2, buffer_capacity=64)
        miner = PiggybackMiner()
        miner.attach(store.buffer_pool)
        for i in range(30):
            store.put(from_text(f"t{i}", f"common theme plus word{i}"))
        assert miner.docs_mined == 0  # puts don't read pages
        list(store.scan())
        assert miner.coverage(store.doc_count) == 1.0

    def test_top_terms_and_pairs(self):
        store = DocumentStore(buffer_capacity=16)
        miner = PiggybackMiner()
        miner.attach(store.buffer_pool)
        for i in range(10):
            store.put(from_text(f"t{i}", "alpha beta together always"))
        list(store.scan())
        terms = dict(miner.top_terms(5))
        assert terms["alpha"] == 10
        pairs = dict(miner.top_cooccurrences(5))
        assert pairs[("alpha", "beta")] == 10

    def test_numeric_exceptions(self):
        store = DocumentStore(buffer_capacity=16)
        miner = PiggybackMiner()
        miner.attach(store.buffer_pool)
        for i in range(20):
            store.put(from_relational_row(f"c{i}", "claims", {"id": i, "amount": 100.0 + i}))
        store.put(from_relational_row("c-big", "claims", {"id": 99, "amount": 50_000.0}))
        list(store.scan())
        exceptions = miner.exceptions(("claims", "amount"), z_threshold=3.0)
        assert exceptions and exceptions[0][0] == "c-big"

    def test_docs_counted_once(self):
        store = DocumentStore(buffer_capacity=16)
        miner = PiggybackMiner()
        miner.attach(store.buffer_pool)
        store.put(from_text("t", "repeated read"))
        list(store.scan())
        list(store.scan())
        assert miner.docs_mined == 1
        assert miner.pages_observed >= 2
