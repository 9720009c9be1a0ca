"""Unit tests for the inverted text index: BM25, phrases, maintenance."""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.text import InvertedIndex, tokenize, tokenize_with_positions
from repro.model.annotations import Annotation, make_annotation_document
from repro.model.converters import from_text
from repro.query.engine import LocalRepository
from repro.query.keyword import KeywordSearch
from repro.storage.store import DocumentStore


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World-Wide!") == ["hello", "world", "wide"]

    def test_stopwords_removed(self):
        assert "the" not in tokenize("the quick fox")
        assert tokenize("the") == []

    def test_numbers_kept(self):
        assert "42" in tokenize("item 42 shipped")

    def test_positions_account_for_stopwords(self):
        pairs = tokenize_with_positions("the quick brown fox")
        tokens = dict(pairs)
        assert tokens["quick"] == 1  # "the" consumed position 0
        assert tokens["fox"] == 3


@pytest.fixture
def index():
    idx = InvertedIndex()
    idx.add("d1", "the quick brown fox jumps over the lazy dog")
    idx.add("d2", "the quick red fox")
    idx.add("d3", "slow brown turtle walks past the brown fence")
    return idx


class TestSearch:
    def test_single_term(self, index):
        ids = [h.doc_id for h in index.search("turtle")]
        assert ids == ["d3"]

    def test_ranking_prefers_matching_more_terms(self, index):
        hits = index.search("quick fox", top_k=3)
        assert hits[0].doc_id in ("d1", "d2")
        assert all(h.score > 0 for h in hits)

    def test_term_frequency_boosts(self, index):
        hits = index.search("brown", top_k=2)
        assert hits[0].doc_id == "d3"  # brown twice

    def test_unknown_term_empty(self, index):
        assert index.search("zebra") == []

    def test_empty_query(self, index):
        assert index.search("the") == []

    def test_top_k_limits(self, index):
        assert len(index.search("fox quick brown", top_k=1)) == 1

    def test_top_k_validation(self, index):
        with pytest.raises(ValueError):
            index.search("fox", top_k=0)

    def test_candidates_restrict(self, index):
        hits = index.search("fox", candidates={"d2"})
        assert [h.doc_id for h in hits] == ["d2"]

    def test_deterministic_tie_order(self, index):
        index.add("d4", "the quick red fox")  # identical to d2
        hits = index.search("red fox", top_k=5)
        assert [h.doc_id for h in hits][:2] == sorted([h.doc_id for h in hits][:2])


class TestBooleanAndPhrase:
    def test_match_all(self, index):
        assert index.match_all("quick fox") == {"d1", "d2"}
        assert index.match_all("quick turtle") == set()

    def test_match_phrase_adjacent(self, index):
        assert index.match_phrase("quick brown fox") == {"d1"}

    def test_match_phrase_order_matters(self, index):
        assert index.match_phrase("brown quick fox") == set()

    def test_match_phrase_with_stopword_gap(self, index):
        assert "d1" in index.match_phrase("jumps over the lazy")

    def test_empty_phrase(self, index):
        assert index.match_phrase("") == set()


class TestMaintenance:
    def test_remove_unindexes(self, index):
        index.remove("d1")
        assert "d1" not in index
        assert index.match_all("lazy dog") == set()
        assert index.doc_count == 2

    def test_remove_missing_is_noop(self, index):
        index.remove("ghost")
        assert index.doc_count == 3

    def test_re_add_replaces(self, index):
        index.add("d1", "entirely new words")
        assert index.match_all("lazy") == set()
        assert index.match_all("entirely new") == {"d1"}
        assert index.doc_count == 3

    def test_rebuild_equivalent_to_incremental(self):
        corpus = [(f"d{i}", f"words common shard{i % 3} unique{i}") for i in range(20)]
        incremental = InvertedIndex()
        for doc_id, text in corpus:
            incremental.add(doc_id, text)
        rebuilt = InvertedIndex()
        rebuilt.rebuild(corpus)
        assert incremental.match_all("shard1") == rebuilt.match_all("shard1")
        assert incremental.term_count == rebuilt.term_count
        assert incremental.average_doc_length == rebuilt.average_doc_length

    def test_stats_track_operations(self, index):
        index.remove("d1")
        index.rebuild([("a", "one two"), ("b", "three")])
        assert index.stats.removes == 1
        assert index.stats.rebuilds == 1
        assert index.stats.adds >= 5

    def test_average_doc_length_updates(self):
        idx = InvertedIndex()
        idx.add("a", "one two three four")
        before = idx.average_doc_length
        idx.add("b", "one")
        assert idx.average_doc_length < before

    def test_document_frequency(self, index):
        assert index.document_frequency("fox") == 2
        assert index.document_frequency("FOX") == 2
        assert index.document_frequency("zebra") == 0


# ----------------------------------------------------------------------
# the inlined scoring loop against the _idf/_bm25 reference
# ----------------------------------------------------------------------
VOCAB = ("refund", "widget", "crash", "review", "late", "order", "gold", "x9")
texts = st.lists(st.sampled_from(VOCAB + ("the", "and")), min_size=0, max_size=12).map(" ".join)
corpus_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 15), texts),
        st.tuples(st.just("add_projected"), st.integers(0, 15), texts),
        st.tuples(st.just("remove"), st.integers(0, 15)),
    ),
    min_size=1, max_size=30,
)


def _reference_search(index, query, top_k, candidates=None):
    """``InvertedIndex.search`` as it was before the loop was inlined:
    one ``_idf`` per term, one ``_bm25`` method call per posting."""
    scores = defaultdict(float)
    for term in set(tokenize(query)):
        idf = index._idf(term)
        if idf == 0.0:
            continue
        for doc_id in index._postings.get(term, {}):
            if candidates is not None and doc_id not in candidates:
                continue
            scores[doc_id] += index._bm25(term, doc_id, idf)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]


def _build(operations):
    index = InvertedIndex()
    for op in operations:
        doc_id = f"d{op[1]}"
        if op[0] == "add":
            index.add(doc_id, op[2])
        elif op[0] == "add_projected":
            positions = {}
            for token, position in tokenize_with_positions(op[2]):
                positions.setdefault(token, []).append(position)
            index.add_projected(doc_id, positions, sum(map(len, positions.values())))
        else:
            index.remove(doc_id)
    return index


class TestInlinedScoring:
    @settings(max_examples=150, deadline=None)
    @given(
        operations=corpus_ops,
        query=st.lists(st.sampled_from(VOCAB + ("the", "absent")), min_size=1, max_size=5),
        top_k=st.integers(1, 20),
        restrict=st.one_of(st.none(), st.sets(st.integers(0, 15))),
    )
    def test_scores_equal_the_reference_bit_for_bit(self, operations, query, top_k, restrict):
        index = _build(operations)
        candidates = None if restrict is None else {f"d{n}" for n in restrict}
        got = [(h.doc_id, h.score) for h in index.search(" ".join(query), top_k, candidates)]
        # == on floats, no tolerance: same expression, same order
        assert got == _reference_search(index, " ".join(query), top_k, candidates)

    def test_reference_on_the_fixture(self, index):
        for query in ("quick fox", "brown", "brown brown fence turtle", "the"):
            got = [(h.doc_id, h.score) for h in index.search(query)]
            assert got == _reference_search(index, query, 10)


class TestGeneration:
    def test_every_mutation_changes_it_and_reads_do_not(self, index):
        seen = {index.generation}

        def moved():
            changed = index.generation not in seen
            seen.add(index.generation)
            return changed

        index.add("d4", "new fox")
        assert moved()
        index.add("d4", "replaced fox")
        assert moved()
        index.add_projected("d5", {"fox": [0]}, 1)
        assert moved()
        index.remove("d5")
        assert moved()
        index.remove("never-indexed")  # a no-op leaves every score alone
        assert not moved()
        index.search("fox")
        index.match_all("fox")
        index.match_phrase("quick fox")
        assert not moved()
        index.rebuild([])
        assert moved()

    def test_generations_are_never_shared_between_indexes(self):
        a, b = InvertedIndex(), InvertedIndex()
        assert a.generation != b.generation
        a.add("d", "x")
        b.add("d", "x")
        assert a.generation != b.generation


class _CountingRepository:
    def __init__(self, repository):
        self._repository = repository
        self.indexes = repository.indexes
        self.lookups = []

    def lookup(self, doc_id):
        self.lookups.append(doc_id)
        return self._repository.lookup(doc_id)


class TestSingleFetch:
    @pytest.fixture
    def repo(self):
        store = DocumentStore()
        repository = LocalRepository(store)
        store.put(from_text("t1", "the widget assembly broke during testing"))
        store.put(from_text("t2", "widget shipment delayed"))
        store.put(from_text("t3", "gadget sales exceeded forecast"))
        annotation = Annotation(
            annotator="product", label="product_mention", subject_id="t3",
            payload={"product": "special identifier xyzzy"},
        )
        store.put(make_annotation_document("ann-1", annotation))
        return _CountingRepository(repository)

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("widget", ["t1", "t2"]),           # plain candidates
            ("xyzzy", ["ann-1", "t3"]),         # folded subject fetched in the top-k pass
            ("gadget xyzzy", ["ann-1", "t3"]),  # subject is itself a candidate: no refetch
        ],
    )
    def test_one_lookup_per_distinct_document(self, repo, query, expected):
        hits = KeywordSearch(repo).search(query)
        assert sorted(repo.lookups) == expected
        assert all(hit.document is not None and hit.document.doc_id == hit.doc_id
                   for hit in hits)

    def test_no_fetch_still_reads_candidates_once(self, repo):
        hits = KeywordSearch(repo).search("gadget xyzzy", fetch=False)
        assert sorted(repo.lookups) == ["ann-1", "t3"]
        assert [h.document for h in hits] == [None]
