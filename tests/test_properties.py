"""Property-based tests (hypothesis) for core data structures.

These target the invariants the system leans on: path iteration vs.
access agreement, index add/remove symmetry, partial-aggregation
equivalence, version-chain monotonicity, BM25 candidate soundness, and
the SQL round trip parse → plan → execute on arbitrary predicates.
"""

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.operators import (
    AggSpec,
    group_aggregate,
    merge_partial_aggregates,
    partial_aggregate,
    sort_rows,
)
from tests.oracle.row_operators import hash_join, top_k
from repro.index.structural import RangeQuery, ValueIndex
from repro.index.text import InvertedIndex, tokenize
from repro.model.document import Document
from repro.model.values import get_path, iter_paths
from repro.storage.store import DocumentStore
from repro.util import stable_hash

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
keys = st.text(string.ascii_lowercase, min_size=1, max_size=6)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(string.ascii_letters + " ", max_size=20),
)
content_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.dictionaries(keys, children, max_size=4),
        st.lists(children, max_size=3),
    ),
    max_leaves=20,
)
words = st.text(string.ascii_lowercase, min_size=2, max_size=8)
texts = st.lists(words, min_size=0, max_size=30).map(" ".join)


class TestPathInvariants:
    @given(content_trees)
    @settings(max_examples=100)
    def test_every_iterated_path_is_gettable(self, tree):
        for path, value in iter_paths(tree):
            if not path:
                continue
            got = get_path(tree, path)
            assert any(v == value or (v != v and value != value) for v in got)

    @given(content_trees)
    @settings(max_examples=100)
    def test_get_path_returns_all_leaf_values(self, tree):
        by_path = {}
        for path, value in iter_paths(tree):
            by_path.setdefault(path, []).append(value)
        for path, values in by_path.items():
            if not path:
                continue
            got = get_path(tree, path)
            for value in values:
                assert any(
                    v == value or (v != v and value != value) for v in got
                )  # NaN-safe membership

    @given(st.dictionaries(keys, scalars, min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_document_json_round_trip(self, flat):
        doc = Document(doc_id="d", content={"t": flat})
        again = Document.from_json(doc.to_json())
        # JSON normalizes some floats; compare via canonical dumps
        assert json.loads(again.to_json()) == json.loads(doc.to_json())


class TestTextIndexInvariants:
    @given(st.lists(st.tuples(st.uuids().map(str), texts), min_size=1, max_size=20, unique_by=lambda t: t[0]))
    @settings(max_examples=50)
    def test_add_remove_leaves_empty(self, corpus):
        index = InvertedIndex()
        for doc_id, text in corpus:
            index.add(doc_id, text)
        for doc_id, _ in corpus:
            index.remove(doc_id)
        assert index.doc_count == 0
        assert index.term_count == 0

    @given(st.lists(st.tuples(st.uuids().map(str), texts), min_size=1, max_size=20, unique_by=lambda t: t[0]))
    @settings(max_examples=50)
    def test_search_hits_contain_query_terms(self, corpus):
        index = InvertedIndex()
        for doc_id, text in corpus:
            index.add(doc_id, text)
        text_of = dict(corpus)
        for _, text in corpus[:3]:
            terms = tokenize(text)[:2]
            if not terms:
                continue
            for hit in index.search(" ".join(terms), top_k=50):
                hit_tokens = set(tokenize(text_of[hit.doc_id]))
                assert any(t in hit_tokens for t in terms)

    @given(st.lists(st.tuples(st.uuids().map(str), texts), min_size=2, max_size=15, unique_by=lambda t: t[0]))
    @settings(max_examples=30)
    def test_match_all_subset_of_each_posting(self, corpus):
        index = InvertedIndex()
        for doc_id, text in corpus:
            index.add(doc_id, text)
        query_terms = tokenize(corpus[0][1])[:3]
        if query_terms:
            matched = index.match_all(" ".join(query_terms))
            text_of = dict(corpus)
            for doc_id in matched:
                doc_tokens = set(tokenize(text_of[doc_id]))
                assert all(t in doc_tokens for t in query_terms)


rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "g": st.sampled_from(["a", "b", "c"]),
            "v": st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        }
    ),
    max_size=40,
)


class TestAggregationInvariants:
    AGGS = [
        AggSpec("s", "sum", "v"),
        AggSpec("n", "count"),
        AggSpec("m", "avg", "v"),
        AggSpec("lo", "min", "v"),
        AggSpec("hi", "max", "v"),
    ]

    @given(rows_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=80)
    def test_partial_merge_equals_global(self, rows, parts):
        expected = group_aggregate(rows, ["g"], self.AGGS)
        chunks = [rows[i::parts] for i in range(parts)]
        partials = []
        for chunk in chunks:
            partials.extend(partial_aggregate(chunk, ["g"], self.AGGS))
        merged = merge_partial_aggregates(partials, ["g"], self.AGGS)
        assert len(merged) == len(expected)
        for exp, got in zip(expected, merged):
            assert got["g"] == exp["g"]
            assert got["n"] == exp["n"]
            assert got["s"] == pytest.approx(exp["s"], rel=1e-6, abs=1e-3)
            assert got["m"] == pytest.approx(exp["m"], rel=1e-6, abs=1e-3)
            assert got["lo"] == exp["lo"]
            assert got["hi"] == exp["hi"]

    @given(rows_strategy)
    @settings(max_examples=50)
    def test_count_preserved(self, rows):
        out = group_aggregate(rows, ["g"], [AggSpec("n", "count")])
        assert sum(r["n"] for r in out) == len(rows)

    @given(rows_strategy, st.integers(min_value=1, max_value=10))
    @settings(max_examples=50)
    def test_top_k_matches_sort_prefix(self, rows, k):
        via_topk = [r["v"] for r in top_k(rows, k, "v")]
        via_sort = [r["v"] for r in sort_rows(rows, ["v"], descending=True)[:k]]
        assert via_topk == via_sort


class TestJoinInvariants:
    sides = st.lists(
        st.fixed_dictionaries({"k": st.integers(0, 5), "p": st.integers(0, 100)}),
        max_size=20,
    )

    @given(sides, sides)
    @settings(max_examples=60)
    def test_join_cardinality_matches_nested_loops(self, left, right):
        expected = sum(1 for l in left for r in right if l["k"] == r["k"])
        got = len(list(hash_join(left, right, "k", "k")))
        assert got == expected


class TestValueIndexInvariants:
    docs = st.lists(
        st.tuples(st.uuids().map(str), st.floats(0, 1000, allow_nan=False, width=32)),
        min_size=1, max_size=30, unique_by=lambda t: t[0],
    )

    @given(docs, st.floats(0, 1000, allow_nan=False), st.floats(0, 1000, allow_nan=False))
    @settings(max_examples=60)
    def test_range_query_matches_filter(self, pairs, a, b):
        low, high = min(a, b), max(a, b)
        index = ValueIndex()
        for doc_id, value in pairs:
            index.add(Document(doc_id=doc_id, content={"t": {"v": value}}))
        got = index.docs_in_range(RangeQuery(("t", "v"), low, high))
        expected = {d for d, v in pairs if low <= v <= high}
        assert got == expected


class TestVersionChainInvariants:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_as_of_monotone(self, updates):
        store = DocumentStore()
        store.put(Document(doc_id="d", content={"v": 0}))
        for value in updates:
            store.update("d", {"v": value})
        chain = store.history("d")
        timestamps = [doc.ingest_ts for doc in chain]
        assert timestamps == sorted(timestamps)
        # as_of at each version's timestamp returns exactly that version
        for doc in chain:
            assert store.as_of("d", doc.ingest_ts).version == doc.version


class TestStableHash:
    @given(st.text(max_size=50), st.integers(1, 1000))
    @settings(max_examples=100)
    def test_in_range_and_deterministic(self, text, buckets):
        value = stable_hash(text, buckets)
        assert 0 <= value < buckets
        assert value == stable_hash(text, buckets)
