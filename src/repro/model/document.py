"""The Document: Impliance's single unit of information.

Everything infused into the appliance — a relational row, an e-mail, a
claim form, an XML fragment, a call transcript — becomes a
:class:`Document`.  Documents are *immutable*: a change is expressed as a
new version with the same ``doc_id`` (paper Section 4), which is what lets
replicas avoid synchronous update propagation (Section 3.2).
"""

from __future__ import annotations

import copy
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.model.projection import projection_of
from repro.model.values import Path, get_path, iter_paths, iter_structure_paths


class DocumentKind(enum.Enum):
    """Role of a document inside the repository.

    BASE documents hold ingested data.  ANNOTATION documents are produced
    by the discovery engine and reference base documents (Figure 2).
    DERIVED documents are transformed/combined versions of base data kept
    for faster processing (Section 3.2: "stored in one or more transformed
    states").  Derived and annotation data can be re-created, which the
    storage manager exploits when choosing replication levels (Section 3.4).
    """

    BASE = "base"
    ANNOTATION = "annotation"
    DERIVED = "derived"


def _freeze(node: Any) -> Any:
    """Deep-copy *node* so the document owns its content tree."""
    return copy.deepcopy(node)


@dataclass(frozen=True)
class Document:
    """An immutable, versioned, self-describing tree of values.

    Parameters
    ----------
    doc_id:
        Stable identity shared by all versions of the document.
    version:
        Monotonically increasing version number (1 = initial infusion).
    content:
        Tree of ``dict`` / ``list`` / scalar leaves.
    kind:
        Role of the document (base / annotation / derived).
    source_format:
        The format the data arrived in (``"relational"``, ``"email"``,
        ``"xml"``, ``"csv"``, ``"text"``, ``"json"``); retained so the
        original ingredients can be "ladled out unchanged" at any time.
    metadata:
        Small catalog facts about the document (source system, table name,
        ingest channel...).  Queryable like content, but not annotated.
    refs:
        Doc-ids of documents this one refers to.  Annotations reference
        their subjects through this field.
    ingest_ts:
        Logical timestamp assigned by the appliance clock at persist time.
    """

    doc_id: str
    content: Any
    version: int = 1
    kind: DocumentKind = DocumentKind.BASE
    source_format: str = "json"
    metadata: Dict[str, Any] = field(default_factory=dict)
    refs: Tuple[str, ...] = ()
    ingest_ts: int = 0

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if self.version < 1:
            raise ValueError("version numbers start at 1")
        object.__setattr__(self, "content", _freeze(self.content))
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "refs", tuple(self.refs))

    # ------------------------------------------------------------------
    # content access
    # ------------------------------------------------------------------
    def paths(self) -> Iterator[Tuple[Path, Any]]:
        """Iterate ``(path, leaf_value)`` over the content tree."""
        return iter_paths(self.content)

    def structure(self) -> FrozenSet[Path]:
        """The set of structural paths present in this document."""
        return frozenset(iter_structure_paths(self.content))

    def get(self, path: Sequence[str]) -> list:
        """All leaf values under *path* (may be several; ``[]`` if absent)."""
        return get_path(self.content, tuple(path))

    def first(self, path: Sequence[str], default: Any = None) -> Any:
        """First leaf value under *path*, or *default*."""
        values = self.get(path)
        return values[0] if values else default

    @property
    def text(self) -> str:
        """The searchable prose, off the cached projection (no re-walk)."""
        return projection_of(self).text

    @property
    def is_annotation(self) -> bool:
        return self.kind is DocumentKind.ANNOTATION

    @property
    def is_tombstone(self) -> bool:
        """True when this version marks the document as deleted."""
        return bool(self.metadata.get("tombstone"))

    # ------------------------------------------------------------------
    # versioning
    # ------------------------------------------------------------------
    def new_version(self, content: Any, metadata: Optional[Dict[str, Any]] = None) -> "Document":
        """Return the successor version carrying *content*.

        The appliance never updates in place (Section 4); this is the only
        way to change a document, and the storage layer keeps the full
        chain.
        """
        merged = dict(self.metadata)
        # A new version is live unless explicitly tombstoned again — a
        # put after a delete resurrects the document.
        merged.pop("tombstone", None)
        if metadata:
            merged.update(metadata)
        return Document(
            doc_id=self.doc_id,
            content=content,
            version=self.version + 1,
            kind=self.kind,
            source_format=self.source_format,
            metadata=merged,
            refs=self.refs,
            ingest_ts=0,  # the store stamps the new version at persist time
        )

    def tombstone(self) -> "Document":
        """Return the successor version that marks this document deleted.

        Deletion is expressed the only way the appliance expresses change:
        a new version.  The tombstone keeps the chain's metadata (so the
        dependency ``table`` still drives precise cache invalidation) and
        carries empty content; earlier versions stay readable through
        ``as_of``/``history`` — the append-only store forgets nothing.
        """
        return self.new_version({}, {"tombstone": True})

    def with_refs(self, refs: Sequence[str]) -> "Document":
        """Return a copy of this version with *refs* replacing the ref list."""
        return Document(
            doc_id=self.doc_id,
            content=self.content,
            version=self.version,
            kind=self.kind,
            source_format=self.source_format,
            metadata=self.metadata,
            refs=tuple(refs),
            ingest_ts=self.ingest_ts,
        )

    # ------------------------------------------------------------------
    # identity / serialization
    # ------------------------------------------------------------------
    @property
    def vid(self) -> Tuple[str, int]:
        """(doc_id, version): the unique identity of this immutable object."""
        return (self.doc_id, self.version)

    def content_digest(self) -> str:
        """Stable SHA-1 digest of the content tree (used for dedup and
        replica verification)."""
        payload = json.dumps(self.content, sort_keys=True, default=str)
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def size_bytes(self) -> int:
        """Approximate serialized size; the storage and network simulators
        charge costs proportional to this.  Memoized: documents are frozen,
        so the serialization never changes, yet page packing, cost
        accounting, and shipping all ask repeatedly."""
        cached = self.__dict__.get("_size_bytes")
        if cached is None:
            cached = len(self.to_json())
            object.__setattr__(self, "_size_bytes", cached)
        return cached

    def stamped(self, ingest_ts: int) -> "Document":
        """This document with ``ingest_ts`` assigned by the store clock.

        The write path stamps every document at persist time; going
        through ``Document(...)`` again would deep-copy the whole content
        tree a second time for no reason — both objects are frozen and the
        tree is never mutated, so the copy can share it.  A cached
        projection carries over (it depends only on content); the size
        memo does not (the timestamp is part of the serialization).
        """
        clone = object.__new__(Document)
        object.__setattr__(clone, "doc_id", self.doc_id)
        object.__setattr__(clone, "content", self.content)
        object.__setattr__(clone, "version", self.version)
        object.__setattr__(clone, "kind", self.kind)
        object.__setattr__(clone, "source_format", self.source_format)
        object.__setattr__(clone, "metadata", self.metadata)
        object.__setattr__(clone, "refs", self.refs)
        object.__setattr__(clone, "ingest_ts", ingest_ts)
        projection = self.__dict__.get("_projection")
        if projection is not None:
            object.__setattr__(clone, "_projection", projection)
        return clone

    def to_json(self) -> str:
        return json.dumps(
            {
                "doc_id": self.doc_id,
                "version": self.version,
                "kind": self.kind.value,
                "source_format": self.source_format,
                "metadata": self.metadata,
                "refs": list(self.refs),
                "ingest_ts": self.ingest_ts,
                "content": self.content,
            },
            sort_keys=True,
            default=str,
        )

    @classmethod
    def from_json(cls, payload: str) -> "Document":
        raw = json.loads(payload)
        return cls(
            doc_id=raw["doc_id"],
            content=raw["content"],
            version=raw["version"],
            kind=DocumentKind(raw["kind"]),
            source_format=raw["source_format"],
            metadata=raw["metadata"],
            refs=tuple(raw["refs"]),
            ingest_ts=raw["ingest_ts"],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.vid == other.vid and self.content == other.content

    def __hash__(self) -> int:
        return hash(self.vid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document({self.doc_id!r} v{self.version} {self.kind.value} {self.source_format})"
