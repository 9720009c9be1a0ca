"""Full-text inverted index with BM25 ranking (paper Section 3.3).

The paper would embed Lucene/Indri and extend them; we implement the
index directly with the extensions the paper asks for: positional
postings, incremental maintenance (documents and annotations arrive
continuously), and removal of superseded versions.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from itertools import count
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Minimal stopword list: high-frequency glue words that would otherwise
#: dominate postings without adding retrieval signal.
STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on or that the
    to was were will with this i you your we they not but have had do did
    s t""".split()
)

BM25_K1 = 1.2
BM25_B = 0.75

#: Source of index generations: process-wide, so no two index states —
#: even of different instances (``IndexManager.rebuild_from`` swaps the
#: index object) — ever share one.
_GENERATIONS = count(1)


def tokenize(text: str) -> List[str]:
    """Lowercase word tokens, stopwords removed."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


def tokenize_with_positions(text: str) -> List[Tuple[str, int]]:
    """Tokens with their ordinal positions (stopwords consume positions so
    phrase distances stay faithful to the original text)."""
    result = []
    for position, token in enumerate(_TOKEN_RE.findall(text.lower())):
        if token not in STOPWORDS:
            result.append((token, position))
    return result


@dataclass
class SearchHit:
    """One ranked result."""

    doc_id: str
    score: float

    def __iter__(self):
        return iter((self.doc_id, self.score))


@dataclass
class TextIndexStats:
    """Maintenance counters for the incremental-maintenance experiment."""

    adds: int = 0
    removes: int = 0
    rebuilds: int = 0
    postings_touched: int = 0


class InvertedIndex:
    """Positional inverted index over document text projections.

    Maintenance is incremental: :meth:`add` indexes one document,
    :meth:`remove` un-indexes a superseded version, and both touch only
    the postings of the terms involved — the property the IDX experiment
    compares against periodic full rebuilds.
    """

    def __init__(self) -> None:
        self._postings: Dict[str, Dict[str, List[int]]] = defaultdict(dict)
        self._doc_lengths: Dict[str, int] = {}
        self._total_length = 0
        self.stats = TextIndexStats()
        #: Changes with every mutation.  BM25 reads N and avgdl, so any
        #: mutation can move every score: an answer derived from this
        #: index is valid exactly while the generation it read is current
        #: (the keyword result cache validates on it, docs/CACHING.md).
        self.generation = next(_GENERATIONS)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> None:
        """Index *text* under *doc_id*; re-adding replaces the old entry."""
        if doc_id in self._doc_lengths:
            self.remove(doc_id)
        tokens = tokenize_with_positions(text)
        length = len(tokens)
        self._doc_lengths[doc_id] = length
        self._total_length += length
        for token, position in tokens:
            posting = self._postings[token].setdefault(doc_id, [])
            posting.append(position)
        self.generation = next(_GENERATIONS)
        self.stats.adds += 1
        self.stats.postings_touched += len({t for t, _ in tokens})

    def add_projected(
        self, doc_id: str, term_positions: Dict[str, List[int]], length: int
    ) -> None:
        """Index pre-tokenized postings (the batch path).

        The model projection already grouped positions per term, so this
        inserts one posting list per term instead of appending position by
        position.  Produces exactly the state and stats :meth:`add` would:
        *term_positions* must come from ``tokenize_with_positions`` of the
        document text (terms in first-occurrence order) and *length* is
        the total token count.
        """
        if doc_id in self._doc_lengths:
            self.remove(doc_id)
        self._doc_lengths[doc_id] = length
        self._total_length += length
        postings = self._postings
        for term, positions in term_positions.items():
            postings[term][doc_id] = list(positions)
        self.generation = next(_GENERATIONS)
        self.stats.adds += 1
        self.stats.postings_touched += len(term_positions)

    def remove(self, doc_id: str) -> None:
        """Un-index *doc_id* (no-op when absent)."""
        length = self._doc_lengths.pop(doc_id, None)
        if length is None:
            return
        self._total_length -= length
        emptied = []
        touched = 0
        for term, posting in self._postings.items():
            if doc_id in posting:
                del posting[doc_id]
                touched += 1
                if not posting:
                    emptied.append(term)
        for term in emptied:
            del self._postings[term]
        self.generation = next(_GENERATIONS)
        self.stats.removes += 1
        self.stats.postings_touched += touched

    def rebuild(self, corpus: Iterable[Tuple[str, str]]) -> None:
        """Discard everything and re-index *corpus* (the baseline the
        incremental path is compared against)."""
        self._postings.clear()
        self._doc_lengths.clear()
        self._total_length = 0
        for doc_id, text in corpus:
            self.add(doc_id, text)
        self.generation = next(_GENERATIONS)
        self.stats.rebuilds += 1

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def doc_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def term_count(self) -> int:
        return len(self._postings)

    @property
    def average_doc_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term.lower(), {}))

    def term_frequency(self, term: str, doc_id: str) -> int:
        return len(self._postings.get(term.lower(), {}).get(doc_id, []))

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _idf(self, term: str) -> float:
        df = self.document_frequency(term)
        if df == 0:
            return 0.0
        n = self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _bm25(self, term: str, doc_id: str, idf: float) -> float:
        tf = self.term_frequency(term, doc_id)
        if tf == 0:
            return 0.0
        doc_len = self._doc_lengths[doc_id]
        avg = self.average_doc_length or 1.0
        denom = tf + BM25_K1 * (1 - BM25_B + BM25_B * doc_len / avg)
        return idf * tf * (BM25_K1 + 1) / denom

    def search(
        self,
        query: str,
        top_k: int = 10,
        candidates: Optional[Set[str]] = None,
    ) -> List[SearchHit]:
        """BM25-ranked top-k search.

        *candidates*, when given, restricts scoring to that doc-id set —
        the hook faceted drill-down and security filtering use.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        terms = tokenize(query)
        if not terms:
            return []
        # One inlined loop over each term's postings; the expression and
        # its evaluation order are those of the ``_idf``/``_bm25``
        # reference above, so every score is bit-identical to theirs.
        scores: Dict[str, float] = defaultdict(float)
        doc_lengths = self._doc_lengths
        n = len(doc_lengths)
        avg = self.average_doc_length or 1.0
        k1, b, k1_plus_1, one_minus_b = BM25_K1, BM25_B, BM25_K1 + 1, 1 - BM25_B
        for term in set(terms):
            postings = self._postings.get(term)
            if not postings:
                continue  # df == 0: the reference's idf == 0.0 skip
            df = len(postings)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for doc_id, positions in postings.items():
                if candidates is not None and doc_id not in candidates:
                    continue
                tf = len(positions)
                denom = tf + k1 * (one_minus_b + b * doc_lengths[doc_id] / avg)
                scores[doc_id] += idf * tf * k1_plus_1 / denom
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [SearchHit(doc_id, score) for doc_id, score in ranked[:top_k]]

    def match_all(self, query: str) -> Set[str]:
        """Doc-ids containing *every* query term (boolean AND)."""
        terms = tokenize(query)
        if not terms:
            return set()
        result: Optional[Set[str]] = None
        for term in terms:
            posting = set(self._postings.get(term, {}))
            result = posting if result is None else result & posting
            if not result:
                return set()
        return result or set()

    def match_phrase(self, phrase: str) -> Set[str]:
        """Doc-ids containing the tokens of *phrase* adjacently, in order."""
        tokens = tokenize_with_positions(phrase)
        if not tokens:
            return set()
        terms = [t for t, _ in tokens]
        offsets = [p for _, p in tokens]
        candidates = self.match_all(" ".join(terms))
        result = set()
        for doc_id in candidates:
            first_positions = self._postings[terms[0]][doc_id]
            for start in first_positions:
                if all(
                    start + (offsets[i] - offsets[0]) in self._postings[terms[i]][doc_id]
                    for i in range(1, len(terms))
                ):
                    result.add(doc_id)
                    break
        return result
