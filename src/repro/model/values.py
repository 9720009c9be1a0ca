"""Value typing and path utilities for the uniform document model.

A document's content is a tree built from ``dict``, ``list``, and scalar
leaves (``str``, ``int``, ``float``, ``bool``, ``None``).  A *path* is the
tuple of dictionary keys leading from the root to a leaf; list elements
share their parent's path, so a path describes the document's *structure*
rather than a position inside it.  This matches the paper's notion of
indexing "every path in the document" (Section 3.2): structural search
asks "which documents have a value under /claim/vehicle/damage", not
"which documents have element 3 of some array".
"""

from __future__ import annotations

import enum
import re
from typing import Any, Iterator, Sequence, Tuple

Path = Tuple[str, ...]


class _Missing:
    """Sentinel for 'key absent from the source row' (vs. None = SQL NULL).

    Lives here — the dependency-free bottom of the import graph — because
    both the exec layer (ragged ``ColumnBatch`` rows) and the storage
    layer (encoded column vectors) must agree on the same singleton
    without importing each other.  ``repro.exec.batch`` re-exports it as
    its public home.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISSING>"


MISSING = _Missing()

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}([ T]\d{2}:\d{2}(:\d{2})?)?$")
_PHONE_RE = re.compile(r"^\+?[\d\-\s().]{7,20}$")
_CURRENCY_RE = re.compile(r"^[$€£¥]\s?\d[\d,]*(\.\d+)?$")


class ValueType(enum.Enum):
    """Coarse semantic type of a leaf value.

    The discovery engine and schema inference use these types to decide
    which annotators apply and whether two paths from different sources
    are compatible (you may merge two MONEY columns; merging MONEY with
    PHONE would be the "averaging phone numbers" mistake the paper warns
    about in Section 2.2).
    """

    NULL = "null"
    BOOL = "bool"
    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    MONEY = "money"
    PHONE = "phone"
    TEXT = "text"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (ValueType.INTEGER, ValueType.FLOAT, ValueType.MONEY)


#: String length above which a value is treated as prose TEXT rather than
#: a short STRING code/identifier.  Short strings are indexed as exact
#: values; TEXT is tokenized into the full-text index.
TEXT_LENGTH_THRESHOLD = 48


def classify_value(value: Any) -> ValueType:
    """Return the :class:`ValueType` of a scalar leaf value."""
    if value is None:
        return ValueType.NULL
    if isinstance(value, bool):
        return ValueType.BOOL
    if isinstance(value, int):
        return ValueType.INTEGER
    if isinstance(value, float):
        return ValueType.FLOAT
    if isinstance(value, str):
        stripped = value.strip()
        if not stripped:
            return ValueType.STRING
        if _DATE_RE.match(stripped):
            return ValueType.DATE
        if _CURRENCY_RE.match(stripped):
            return ValueType.MONEY
        if _NUMBER_RE.match(stripped):
            return ValueType.FLOAT if any(c in stripped for c in ".eE") else ValueType.INTEGER
        if len(stripped) >= 7 and _PHONE_RE.match(stripped) and sum(c.isdigit() for c in stripped) >= 7:
            return ValueType.PHONE
        if len(stripped) > TEXT_LENGTH_THRESHOLD or " " in stripped and len(stripped.split()) > 6:
            return ValueType.TEXT
        return ValueType.STRING
    raise TypeError(f"unsupported leaf value type: {type(value)!r}")


def coerce_numeric(value: Any) -> float:
    """Best-effort numeric coercion used by aggregation over MONEY/number leaves."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        cleaned = value.strip().lstrip("$€£¥").replace(",", "").strip()
        return float(cleaned)
    raise TypeError(f"cannot coerce {value!r} to a number")


def iter_paths(content: Any, prefix: Path = ()) -> Iterator[Tuple[Path, Any]]:
    """Yield ``(path, leaf_value)`` pairs for every leaf in *content*.

    Dict keys extend the path; list elements are flattened under their
    parent's path.  Scalars at the root are yielded under the empty path.
    """
    if isinstance(content, dict):
        for key in content:
            yield from iter_paths(content[key], prefix + (str(key),))
    elif isinstance(content, (list, tuple)):
        for item in content:
            yield from iter_paths(item, prefix)
    else:
        yield prefix, content


def iter_structure_paths(content: Any, prefix: Path = ()) -> Iterator[Path]:
    """Yield every distinct structural path present in *content*, including
    interior (non-leaf) paths.  Used by the structural index."""
    seen = set()
    stack = [(content, prefix)]
    while stack:
        node, path = stack.pop()
        if path and path not in seen:
            seen.add(path)
            yield path
        if isinstance(node, dict):
            for key, child in node.items():
                stack.append((child, path + (str(key),)))
        elif isinstance(node, (list, tuple)):
            for item in node:
                stack.append((item, path))


def get_path(content: Any, path: Sequence[str]) -> list:
    """Return the list of leaf values reachable under *path*.

    Lists along the way fan out, so the result may hold several values
    (e.g. every line-item amount of an order).  Missing paths return ``[]``.
    """
    def expand(node: Any) -> Iterator[Any]:
        """Flatten arbitrarily nested lists down to their non-list items,
        mirroring how :func:`iter_paths` descends through lists."""
        if isinstance(node, (list, tuple)):
            for item in node:
                yield from expand(item)
        else:
            yield node

    nodes = [content]
    for key in path:
        next_nodes = []
        for node in nodes:
            for candidate in expand(node):
                if isinstance(candidate, dict) and key in candidate:
                    next_nodes.append(candidate[key])
        nodes = next_nodes
        if not nodes:
            return []
    leaves: list = []
    for node in nodes:
        leaves.extend(value for _, value in iter_paths(node))
    return leaves


def path_to_string(path: Sequence[str]) -> str:
    """Render a path tuple as the canonical ``/a/b/c`` form."""
    return "/" + "/".join(path)


def string_to_path(text: str) -> Path:
    """Parse the canonical ``/a/b/c`` form back into a path tuple."""
    stripped = text.strip().strip("/")
    if not stripped:
        return ()
    return tuple(stripped.split("/"))
