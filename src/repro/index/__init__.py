"""Indexing substrate: text, structural, value, facet, and join indexes.

Implements the indexing requirements of paper Sections 3.2 and 3.3:
index "each document by its values as well as its structures", support
faceted navigation with aggregate payloads, maintain everything
incrementally as annotations stream in, and keep discovered relationships
as join indexes.
"""

from repro.index.text import (
    BM25_B,
    BM25_K1,
    InvertedIndex,
    SearchHit,
    STOPWORDS,
    TextIndexStats,
    tokenize,
    tokenize_with_positions,
)
from repro.index.structural import RangeQuery, StructuralIndex, ValueIndex
from repro.index.facets import (
    FacetDefinition,
    FacetIndex,
    metadata_facet,
    path_facet,
    source_format_facet,
)
from repro.index.joins import JoinEdge, JoinIndex
from repro.index.manager import IndexManager

__all__ = [
    "BM25_B",
    "BM25_K1",
    "InvertedIndex",
    "SearchHit",
    "STOPWORDS",
    "TextIndexStats",
    "tokenize",
    "tokenize_with_positions",
    "RangeQuery",
    "StructuralIndex",
    "ValueIndex",
    "FacetDefinition",
    "FacetIndex",
    "metadata_facet",
    "path_facet",
    "source_format_facet",
    "JoinEdge",
    "JoinIndex",
    "IndexManager",
]
