"""The document projection: one walk, every index-facing view.

The document-at-a-time write path recomputes the same derived views of a
document over and over: the prose text walks the content tree and
classifies every leaf, ``ValueIndex.add`` walks and classifies again,
``StructuralIndex.add`` walks a third time — and because every data node
*and* the global catalog maintain their own indexes, each walk happens
once per consumer.  For a single put that is merely wasteful;
for a bulk load it dominates the cost.

The staged ingest pipeline (``repro.ingest``) fixes this at the model
layer: the *model-validate* stage projects each document exactly once —
one recursive walk that simultaneously collects leaf paths, structural
paths, the prose projection, tokenized postings, and typed value entries
— and every downstream consumer (per-node index maintenance, the global
catalog, auto-view upkeep) reuses the same :class:`DocumentProjection`.

Projecting is also where model validation happens: an unsupported leaf
type raises :class:`TypeError` here, at the validate stage, instead of
deep inside a change-feed subscriber after the bytes are already durable.

The projection is derived purely from ``content`` (never from identity
or timestamps), so it is cached on the immutable document and survives
the store's timestamp-stamping copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.model.values import (
    Path,
    ValueType,
    classify_value,
    coerce_numeric,
)

#: One typed value entry: (path, normalized value, numeric coercion).
#: Exactly the tuple :class:`repro.index.structural.ValueIndex` records.
ValueEntry = Tuple[Path, Any, Optional[float]]


@dataclass(frozen=True)
class DocumentProjection:
    """Every index-facing view of one document, computed in one walk.

    Attributes
    ----------
    leaf_paths:
        Path of every leaf, in document order, including ``None``-valued
        leaves (auto-view column detection needs those too).
    structure:
        The full structural path set — interior and leaf paths — exactly
        as :meth:`Document.structure` reports it.
    text:
        The searchable prose projection (:attr:`Document.text`).
    term_positions:
        Positional postings of :attr:`text`, term → positions, in first-
        occurrence order (what the inverted index stores per document).
    token_count:
        Total token count of :attr:`text` (the BM25 document length).
    value_entries:
        ``(path, normalized, numeric)`` per non-null leaf, in document
        order — the value-index entries.
    """

    leaf_paths: Tuple[Path, ...]
    structure: FrozenSet[Path]
    text: str
    term_positions: Dict[str, List[int]]
    token_count: int
    value_entries: Tuple[ValueEntry, ...]


def _project_content(content: Any) -> DocumentProjection:
    from repro.index.text import tokenize_with_positions

    leaves: List[Tuple[Path, Any]] = []
    structure: set = set()

    # One walk replacing iter_paths + iter_structure_paths + the leaf
    # re-walks of the prose text and ValueIndex.add.  Leaf order matches
    # iter_paths (dict insertion order, lists flattened in place).
    def walk(node: Any, prefix: Path) -> None:
        if prefix:
            structure.add(prefix)
        if isinstance(node, dict):
            for key in node:
                walk(node[key], prefix + (str(key),))
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item, prefix)
        else:
            leaves.append((prefix, node))

    walk(content, ())

    pieces: List[str] = []
    entries: List[ValueEntry] = []
    for path, value in leaves:
        if value is None:
            continue
        # classify_value raising TypeError here IS the model validation:
        # a non-scalar leaf is rejected before anything touches storage.
        value_type = classify_value(value)
        if isinstance(value, str):
            if value_type in (ValueType.TEXT, ValueType.STRING):
                pieces.append(value)
            normalized: Any = value.strip().lower()
        else:
            normalized = value
        numeric: Optional[float] = None
        if value_type.is_numeric:
            try:
                numeric = coerce_numeric(value)
            except (TypeError, ValueError):
                numeric = None
        entries.append((path, normalized, numeric))

    text = "\n".join(pieces)
    term_positions: Dict[str, List[int]] = {}
    token_count = 0
    for term, position in tokenize_with_positions(text):
        term_positions.setdefault(term, []).append(position)
        token_count += 1

    return DocumentProjection(
        leaf_paths=tuple(path for path, _ in leaves),
        structure=frozenset(structure),
        text=text,
        term_positions=term_positions,
        token_count=token_count,
        value_entries=tuple(entries),
    )


def projection_of(document) -> DocumentProjection:
    """The (cached) projection of *document*.

    The first call walks the content tree; later calls — from another
    index manager, another pipeline stage, or the stamped store copy that
    inherited the cache — return the same object.  Safe to cache because
    documents are frozen and the projection depends only on ``content``.
    """
    cached = document.__dict__.get("_projection")
    if cached is None:
        cached = _project_content(document.content)
        object.__setattr__(document, "_projection", cached)
    return cached
