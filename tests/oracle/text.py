"""The prose projection by a direct walk: the reference ``Document.text``
answers to.

This is the function ``repro.model.values`` used before ``Document.text``
read the cached :class:`~repro.model.projection.DocumentProjection`.
Nothing under ``src/`` imports it.  It walks the content tree with
:func:`iter_paths` on every call and keeps each string leaf that
classifies as TEXT or STRING — no cache, no tokenizing, obviously right.
"""

from __future__ import annotations

from typing import Any

from repro.model.values import ValueType, classify_value, iter_paths


def extract_text(content: Any) -> str:
    """Concatenate every TEXT- or STRING-classified string leaf of
    *content*, in path order, newline-joined."""
    pieces = []
    for _, value in iter_paths(content):
        if isinstance(value, str) and classify_value(value) in (ValueType.TEXT, ValueType.STRING):
            pieces.append(value)
    return "\n".join(pieces)
