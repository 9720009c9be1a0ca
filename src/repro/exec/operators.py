"""Physical operators.

The paper argues for "a simple planner that allows only a few limited
choices of the underlying physical operators" (Section 3.3); this module
is that limited operator vocabulary:

* batch operators over :class:`~repro.exec.batch.ColumnBatch` streams
  (``hash_join_batches``, ``hash_join_swapped_batches``, ``sort_batches``,
  :class:`GroupAggregator`) — what compiled pipelines
  (:mod:`repro.query.compile`) run; filtering and projection have no
  operator here, they are fused into the pipeline's per-batch closure;
* row operators over plain dicts (``hash_join``, ``sort_rows``,
  ``top_k``, ``group_aggregate`` and the partial/merge pair) — what
  incremental view maintenance and the grid-side executor run on small
  deltas and shipped partials, and what the test oracle interprets
  plans with.

All keep row/batch statistics so the executor can charge simulated cost
for the work they actually did, and a batch operator produces rows
*identical* to its row counterpart — the equivalence tests depend on it.

Aggregation functions intentionally include the type guards motivated in
Section 2.2 — summing a column that is not numeric raises instead of
producing "averaged phone numbers".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.batch import ColumnBatch
from repro.model.values import classify_value, coerce_numeric

Row = Dict[str, Any]


@dataclass
class OperatorStats:
    rows_in: int = 0
    rows_out: int = 0
    batches_in: int = 0
    batches_out: int = 0


class AggregationTypeError(TypeError):
    """Raised when a numeric aggregate is applied to non-numeric values."""


def merge_joined_row(joined: Row, match: Row) -> Row:
    """Merge *match* (the other join side) into *joined*, in place.

    Colliding columns keep the left value and surface the right value
    under an ``r_``-prefixed name.  The rename itself is collision-safe:
    if the left row already carries ``r_<col>`` (e.g. from an earlier
    join) with a different value, the prefix stacks (``r_r_<col>``)
    instead of silently clobbering.
    """
    for key, value in match.items():
        if key in joined and joined[key] != value:
            renamed = f"r_{key}"
            while renamed in joined and joined[renamed] != value:
                renamed = f"r_{renamed}"
            joined[renamed] = value
        else:
            joined[key] = value
    return joined


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


def sort_rows(
    rows: Iterable[Row],
    keys: Sequence[str],
    descending: bool = False,
    stats: Optional[OperatorStats] = None,
) -> List[Row]:
    materialized = list(rows)
    if stats is not None:
        stats.rows_in += len(materialized)
        stats.rows_out += len(materialized)

    def sort_key(row: Row):
        return tuple(_orderable(row.get(k)) for k in keys)

    materialized.sort(key=sort_key, reverse=descending)
    return materialized


def _orderable(value: Any) -> Tuple[int, Any]:
    """Total order over mixed None/number/string values."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


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
    decorated = (( _orderable(row.get(key)), i, row) for i, row in enumerate(rows))
    if descending:
        selected = heapq.nlargest(k, decorated, key=lambda t: (t[0], -t[1]))
    else:
        selected = heapq.nsmallest(k, decorated, key=lambda t: (t[0], t[1]))
    if stats is not None:
        stats.rows_out += len(selected)
    return [row for _, _, row in selected]


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggSpec:
    """One aggregate: output name, function, input column.

    ``func`` ∈ {count, sum, avg, min, max}.  ``column`` may be ``None``
    only for count.
    """

    name: str
    func: str
    column: Optional[str] = None

    def __post_init__(self) -> None:
        if self.func not in ("count", "sum", "avg", "min", "max"):
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.func != "count" and self.column is None:
            raise ValueError(f"aggregate {self.func} needs a column")


class _AggState:
    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def update(self, value: Any) -> None:
        # SQL semantics: NULLs are invisible to count(col)/sum/avg/min/max
        # (a bare count(*) is handled by the caller, never through here).
        if value is None:
            return
        # Fast path for plain numbers — the vectorized engine funnels
        # millions of values through here, and classify_value's regex
        # machinery is only needed for strings (money/number literals).
        vtype = type(value)
        if vtype is int or vtype is float:
            number = float(value)
        else:
            if not classify_value(value).is_numeric:
                raise AggregationTypeError(
                    f"cannot aggregate non-numeric value {value!r}; "
                    "the semantic layer should have excluded this column"
                )
            number = coerce_numeric(value)
        self.count += 1
        self.total += number
        self.minimum = number if self.minimum is None else min(self.minimum, number)
        self.maximum = number if self.maximum is None else max(self.maximum, number)

    def result(self, func: str) -> Any:
        if func == "count":
            return self.count
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count if self.count else None
        if func == "min":
            return self.minimum
        return self.maximum


def group_aggregate(
    rows: Iterable[Row],
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    stats: Optional[OperatorStats] = None,
) -> List[Row]:
    """Hash group-by with the guarded aggregate functions."""
    group_by = list(group_by)
    states: Dict[Tuple, Dict[str, _AggState]] = {}
    key_rows: Dict[Tuple, Row] = {}
    for row in rows:
        if stats is not None:
            stats.rows_in += 1
        key = tuple(row.get(c) for c in group_by)
        if key not in states:
            states[key] = {a.name: _AggState() for a in aggs}
            key_rows[key] = {c: row.get(c) for c in group_by}
        bucket = states[key]
        for agg in aggs:
            if agg.func == "count" and agg.column is None:
                bucket[agg.name].count += 1
            else:
                bucket[agg.name].update(row.get(agg.column))
    output = []
    for key in sorted(states, key=lambda k: tuple(_orderable(v) for v in k)):
        out_row = dict(key_rows[key])
        for agg in aggs:
            out_row[agg.name] = states[key][agg.name].result(agg.func)
        output.append(out_row)
        if stats is not None:
            stats.rows_out += 1
    return output


def partial_aggregate(
    rows: Iterable[Row], group_by: Sequence[str], aggs: Sequence[AggSpec]
) -> List[Row]:
    """Local (per-data-node) pre-aggregation for pushdown.

    avg is decomposed into sum+count partials so the final merge is
    correct; the merge step is :func:`merge_partial_aggregates`.
    """
    decomposed: List[AggSpec] = []
    for agg in aggs:
        if agg.func == "avg":
            decomposed.append(AggSpec(f"__{agg.name}_sum", "sum", agg.column))
            decomposed.append(AggSpec(f"__{agg.name}_cnt", "count", agg.column))
        else:
            decomposed.append(agg)
    return group_aggregate(rows, group_by, decomposed)


def merge_partial_aggregates(
    partials: Iterable[Row], group_by: Sequence[str], aggs: Sequence[AggSpec]
) -> List[Row]:
    """Combine per-node partial aggregates into final results."""
    merge_specs: List[AggSpec] = []
    for agg in aggs:
        if agg.func == "avg":
            merge_specs.append(AggSpec(f"__{agg.name}_sum", "sum", f"__{agg.name}_sum"))
            merge_specs.append(AggSpec(f"__{agg.name}_cnt", "sum", f"__{agg.name}_cnt"))
        elif agg.func == "count":
            merge_specs.append(AggSpec(agg.name, "sum", agg.name))
        else:
            merge_specs.append(AggSpec(agg.name, agg.func, agg.name))
    merged = group_aggregate(partials, group_by, merge_specs)
    for row in merged:
        for agg in aggs:
            if agg.func == "avg":
                total = row.pop(f"__{agg.name}_sum")
                count = row.pop(f"__{agg.name}_cnt")
                row[agg.name] = total / count if count else None
            elif agg.func == "count":
                row[agg.name] = int(row[agg.name])
    return merged


# ----------------------------------------------------------------------
# vectorized (batch-at-a-time) operators
# ----------------------------------------------------------------------
def _note_batch_in(stats: Optional[OperatorStats], batch: ColumnBatch) -> None:
    if stats is not None:
        stats.batches_in += 1
        stats.rows_in += batch.length


def _note_batch_out(stats: Optional[OperatorStats], batch: ColumnBatch) -> None:
    if stats is not None:
        stats.batches_out += 1
        stats.rows_out += batch.length


def hash_join_batches(
    probe_batches: Iterable[ColumnBatch],
    build_batches: Iterable[ColumnBatch],
    probe_key: str,
    build_key: str,
    stats: Optional[OperatorStats] = None,
) -> Iterator[ColumnBatch]:
    """Vectorized hash join: build on *build_batches*, probe batch-at-a-time.

    Key-column probing is columnar (non-matching probe rows are skipped
    without ever materializing a dict); only matching rows pay the
    row-merge that implements the collision-rename semantics.  Output
    rows are identical to :func:`hash_join` on the same inputs.
    """
    table: Dict[Any, List[Row]] = {}
    for batch in build_batches:
        _note_batch_in(stats, batch)
        keys = batch.column(build_key)
        rows = batch.to_rows()
        for key, row in zip(keys, rows):
            table.setdefault(key, []).append(row)
    table.pop(None, None)  # null keys never join
    for batch in probe_batches:
        _note_batch_in(stats, batch)
        keys = batch.column(probe_key)
        hits = [i for i, key in enumerate(keys) if key in table]
        if not hits:
            continue
        probe_rows = batch.take(hits).to_rows()
        joined_rows: List[Row] = []
        for i, row in zip(hits, probe_rows):
            for match in table[keys[i]]:
                joined_rows.append(merge_joined_row(dict(row), match))
        out = ColumnBatch.from_rows(joined_rows)
        _note_batch_out(stats, out)
        yield out


def hash_join_swapped_batches(
    probe_batches: Iterable[ColumnBatch],
    build_batches: Iterable[ColumnBatch],
    probe_key: str,
    build_key: str,
    stats: Optional[OperatorStats] = None,
) -> Iterator[ColumnBatch]:
    """Hash join with the build flipped onto the *probe* input.

    The re-optimizer splices this in when the probe side materialized far
    smaller than estimated: the hash table is built over the (already
    materialized) probe rows and the other side streams through it, so
    the expensive side pays the cheap per-row probe cost.  Output batches
    are byte-identical to :func:`hash_join_batches` on the same inputs —
    probe-batch-major, probe rows as the merge base, matches in build
    stream order — which is what lets a mid-query strategy switch keep
    already-planned result semantics.
    """
    probe_batches = list(probe_batches)
    table: Dict[Any, List[Tuple[int, int]]] = {}
    matches: List[Dict[int, List[Row]]] = []
    for bi, batch in enumerate(probe_batches):
        _note_batch_in(stats, batch)
        matches.append({})
        for ri, key in enumerate(batch.column(probe_key)):
            if key is None:
                continue
            table.setdefault(key, []).append((bi, ri))
    for batch in build_batches:
        _note_batch_in(stats, batch)
        keys = batch.column(build_key)
        rows = batch.to_rows()
        for key, row in zip(keys, rows):
            if key is None:
                continue
            for bi, ri in table.get(key, ()):
                matches[bi].setdefault(ri, []).append(row)
    for bi, batch in enumerate(probe_batches):
        hit_map = matches[bi]
        if not hit_map:
            continue
        hits = sorted(hit_map)
        probe_rows = batch.take(hits).to_rows()
        joined_rows: List[Row] = []
        for ri, row in zip(hits, probe_rows):
            for match in hit_map[ri]:
                joined_rows.append(merge_joined_row(dict(row), match))
        out = ColumnBatch.from_rows(joined_rows)
        _note_batch_out(stats, out)
        yield out


def sort_batches(
    batches: Iterable[ColumnBatch],
    keys: Sequence[str],
    descending: bool = False,
    stats: Optional[OperatorStats] = None,
) -> ColumnBatch:
    """Vectorized sort: one output batch, same ordering as :func:`sort_rows`."""
    merged = ColumnBatch.concat(list(batches))
    if stats is not None:
        stats.batches_in += 1
        stats.rows_in += merged.length
    key_columns = [merged.column(k) for k in keys]
    order = sorted(
        range(merged.length),
        key=lambda i: tuple(_orderable(col[i]) for col in key_columns),
        reverse=descending,
    )
    out = merged.take(order)
    _note_batch_out(stats, out)
    return out


class GroupAggregator:
    """Incremental vectorized hash group-by.

    Compiled pipelines (:mod:`repro.query.compile`) feed it batches — or
    just the surviving row *indices* of a fused filter, skipping the
    intermediate ``take()`` copy entirely.  Group values, aggregate
    results, and the sorted output order are identical to
    :func:`group_aggregate` regardless of how rows arrive.
    """

    __slots__ = ("group_by", "aggs", "_counting_star", "_states")

    def __init__(self, group_by: Sequence[str], aggs: Sequence[AggSpec]) -> None:
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        self._counting_star = [a.column is None for a in self.aggs]
        self._states: Dict[Tuple, List[_AggState]] = {}

    def add_batch(self, batch: ColumnBatch, indices: Optional[Sequence[int]] = None) -> None:
        """Fold *batch* (or only the rows at *indices*) into the groups."""
        group_columns = [batch.column(c) for c in self.group_by]
        agg_columns = [
            None if star else batch.column(agg.column)
            for star, agg in zip(self._counting_star, self.aggs)
        ]
        rows: Iterable[int] = range(batch.length) if indices is None else indices
        states = self._states
        for i in rows:
            key = tuple(col[i] for col in group_columns)
            bucket = states.get(key)
            if bucket is None:
                bucket = states[key] = [_AggState() for _ in self.aggs]
            for state, column in zip(bucket, agg_columns):
                if column is None:
                    state.count += 1  # bare count(*) counts every row
                else:
                    state.update(column[i])

    def finish(self) -> ColumnBatch:
        ordered = sorted(self._states, key=lambda k: tuple(_orderable(v) for v in k))
        columns: Dict[str, List[Any]] = {
            name: [key[j] for key in ordered] for j, name in enumerate(self.group_by)
        }
        for j, agg in enumerate(self.aggs):
            columns[agg.name] = [self._states[key][j].result(agg.func) for key in ordered]
        return ColumnBatch(columns, len(ordered))
