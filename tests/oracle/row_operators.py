"""Row operators only the tests use: the textbook per-row sort, group-by
and hash join the row engine checks ``sort_batches``, ``GroupAggregator``
and the batch hash joins against, and a heap top-k (checked against a
sort + slice)."""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.operators import (
    AggSpec,
    OperatorStats,
    Row,
    _AggState,
    _orderable,
    merge_joined_row,
)


def sort_rows(
    rows: Iterable[Row],
    keys: Sequence[str],
    descending: bool = False,
    stats: Optional[OperatorStats] = None,
) -> List[Row]:
    """Stable sort on one ``_orderable`` tuple per row."""
    materialized = list(rows)
    if stats is not None:
        stats.rows_in += len(materialized)
        stats.rows_out += len(materialized)
    materialized.sort(
        key=lambda row: tuple(_orderable(row.get(k)) for k in keys), reverse=descending
    )
    return materialized


def group_aggregate(
    rows: Iterable[Row],
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    stats: Optional[OperatorStats] = None,
) -> List[Row]:
    """Hash group-by, one row at a time: each row updates each of its
    group's aggregates in turn."""
    group_by = list(group_by)
    states: Dict[Tuple, List[_AggState]] = {}
    for row in rows:
        if stats is not None:
            stats.rows_in += 1
        key = tuple(row.get(c) for c in group_by)
        if key not in states:
            states[key] = [_AggState() for _ in aggs]
        for agg, state in zip(aggs, states[key]):
            if agg.column is None:
                state.count += 1
            else:
                state.fold((row.get(agg.column),))
    output = []
    for key in sorted(states, key=lambda k: tuple(_orderable(v) for v in k)):
        out_row = dict(zip(group_by, key))
        for agg, state in zip(aggs, states[key]):
            out_row[agg.name] = state.result(agg.func)
        output.append(out_row)
        if stats is not None:
            stats.rows_out += 1
    return output


def hash_join(
    left: Iterable[Row],
    right: Iterable[Row],
    left_key: str,
    right_key: str,
    stats: Optional[OperatorStats] = None,
) -> Iterator[Row]:
    """Build on *right*, probe with *left*; joined rows merge both sides
    (right-side columns prefixed on collision)."""
    table: Dict[Any, List[Row]] = {}
    build_rows = 0
    for row in right:
        build_rows += 1
        table.setdefault(row.get(right_key), []).append(row)
    table.pop(None, None)  # null keys never join
    if stats is not None:
        stats.rows_in += build_rows
    for row in left:
        if stats is not None:
            stats.rows_in += 1
        for match in table.get(row.get(left_key), ()):
            joined = merge_joined_row(dict(row), match)
            if stats is not None:
                stats.rows_out += 1
            yield joined


def top_k(
    rows: Iterable[Row],
    k: int,
    key: str,
    descending: bool = True,
    stats: Optional[OperatorStats] = None,
) -> List[Row]:
    """Heap-based top-k by one column (the retrieval-interface shape)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if stats is not None:
        rows = list(rows)
        stats.rows_in += len(rows)
    decorated = ((_orderable(row.get(key)), i, row) for i, row in enumerate(rows))
    if descending:
        selected = heapq.nlargest(k, decorated, key=lambda t: (t[0], -t[1]))
    else:
        selected = heapq.nsmallest(k, decorated, key=lambda t: (t[0], t[1]))
    if stats is not None:
        stats.rows_out += len(selected)
    return [row for _, _, row in selected]
