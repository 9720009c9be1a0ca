"""Physical operators.

The paper argues for "a simple planner that allows only a few limited
choices of the underlying physical operators" (Section 3.3); this module
is that limited operator vocabulary:

* batch operators over :class:`~repro.exec.batch.ColumnBatch` streams
  (``hash_join_batches``, ``hash_join_swapped_batches``, ``sort_batches``,
  :class:`GroupAggregator`) — what compiled pipelines
  (:mod:`repro.query.compile`) run; filtering and projection have no
  operator here, they are fused into the pipeline's per-batch closure;
* row operators over plain dicts (``sort_rows``, ``group_aggregate``
  and the partial/merge pair) — what incremental view maintenance and
  the grid-side executor run on small deltas and shipped partials, and
  what the test oracle interprets plans with.

All keep row/batch statistics so the executor can charge simulated cost
for the work they actually did, and a batch operator produces rows
*identical* to its row counterpart — the equivalence tests depend on it.

Aggregation functions intentionally include the type guards motivated in
Section 2.2 — summing a column that is not numeric raises instead of
producing "averaged phone numbers".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    key_columns = [[row.get(k) for row in materialized] for k in keys]
    return [materialized[i] for i in _sort_order(key_columns, len(materialized), descending)]


def _orderable(value: Any) -> Tuple[int, Any]:
    """Total order over mixed None/number/string values."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def _sort_order(key_columns: Sequence[Sequence[Any]], length: int, descending: bool) -> List[int]:
    """Row indices in stable ``_orderable`` order of *key_columns*.  One
    key column of plain numbers (exact int/float/bool, none NaN) sorts on
    the values themselves: the order of their ``(1, value)`` tuples, ties
    included."""
    column = key_columns[0] if len(key_columns) == 1 else ()
    kinds = set(map(type, column))
    plain = kinds <= {int, float, bool} and (float not in kinds or all(v == v for v in column))
    if column and plain:
        sort_key: Callable[[int], Any] = column.__getitem__
    else:
        def sort_key(i: int) -> Tuple:
            return tuple(_orderable(col[i]) for col in key_columns)
    return sorted(range(length), key=sort_key, reverse=descending)


def sorted_group_keys(keys: Iterable[Tuple]) -> List[Tuple]:
    """Group key tuples in output order (``_orderable`` order, stable)."""
    keys = list(keys)
    return [keys[i] for i in _sort_order(list(zip(*keys)), len(keys), False)]


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

    def fold(self, values: Iterable[Any]) -> None:
        """Fold *values* in, in order (floats sum in that order)."""
        count, total, low, high = self.count, self.total, self.minimum, self.maximum
        for value in values:
            # SQL semantics: NULLs are invisible to count(col)/sum/avg/min/
            # max (a bare count(*) is handled by the caller, never here).
            if value is None:
                continue
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
            count += 1
            total += number
            if low is None:
                low = high = number
            elif number < low:  # as min()/max(): the first of equals stays
                low = number
            elif number > high:
                high = number
        self.count, self.total, self.minimum, self.maximum = count, total, low, high

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
    """Hash group-by over dict rows: :class:`GroupAggregator` over one
    batch of the columns it reads."""
    rows = list(rows)
    names = list(group_by) + [agg.column for agg in aggs if agg.column is not None]
    aggregator = GroupAggregator(group_by, aggs)
    aggregator.add_batch(ColumnBatch({n: [row.get(n) for row in rows] for n in names}, len(rows)))
    output = aggregator.finish().to_rows()
    if stats is not None:
        stats.rows_in += len(rows)
        stats.rows_out += len(output)
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


def _joined_batch(
    batch: ColumnBatch, hits: List[int], matches: List[List[Row]], stats: Optional[OperatorStats]
) -> ColumnBatch:
    """The probe rows at *hits*, each merged with its matches in order."""
    joined_rows = [
        merge_joined_row(dict(row), match)
        for row, row_matches in zip(batch.take(hits).to_rows(), matches)
        for match in row_matches
    ]
    out = ColumnBatch.from_rows(joined_rows)
    _note_batch_out(stats, out)
    return out


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
    rows are identical to a row-at-a-time hash join on the same inputs.
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
        if hits:
            yield _joined_batch(batch, hits, [table[keys[i]] for i in hits], stats)


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
        yield _joined_batch(batch, hits, [hit_map[ri] for ri in hits], stats)


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
    out = merged.take(_sort_order(key_columns, merged.length, descending))
    _note_batch_out(stats, out)
    return out


class GroupAggregator:
    """Incremental vectorized hash group-by.

    Compiled pipelines (:mod:`repro.query.compile`) feed it batches — or
    just the surviving row *indices* of a fused filter, skipping the
    intermediate ``take()`` copy entirely.  Group values, aggregate
    results, and the sorted output order are identical to a
    row-at-a-time group-by's, however the rows arrive.
    """

    __slots__ = ("group_by", "aggs", "_counting_star", "_states")

    def __init__(self, group_by: Sequence[str], aggs: Sequence[AggSpec]) -> None:
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        self._counting_star = [a.column is None for a in self.aggs]
        self._states: Dict[Tuple, List[_AggState]] = {}

    def add_batch(self, batch: ColumnBatch, indices: Optional[Sequence[int]] = None) -> None:
        """Fold *batch* (or only the rows at *indices*) into the groups:
        bucket the rows per group key (first-seen order), then fold each
        aggregate over its bucket in row order."""
        rows: Sequence[int] = range(batch.length) if indices is None else indices
        group_columns = [batch.column(c) for c in self.group_by]
        single = len(group_columns) == 1  # keyed by the value, not a 1-tuple
        if single:
            keys: Iterable[Any] = map(group_columns[0].__getitem__, rows)
        else:
            keys = [tuple(col[i] for col in group_columns) for i in rows]
        buckets: Dict[Any, List[int]] = defaultdict(list)
        for i, key in zip(rows, keys):
            buckets[key].append(i)
        agg_columns = [
            None if star else batch.column(agg.column)
            for star, agg in zip(self._counting_star, self.aggs)
        ]
        for key, bucket in buckets.items():
            if single:
                key = (key,)
            group = self._states.get(key)
            if group is None:
                group = self._states[key] = [_AggState() for _ in self.aggs]
            for state, column in zip(group, agg_columns):
                if column is None:
                    state.count += len(bucket)  # bare count(*) counts every row
                else:
                    state.fold(map(column.__getitem__, bucket))

    def finish(self) -> ColumnBatch:
        ordered = sorted_group_keys(self._states)
        columns: Dict[str, List[Any]] = {
            name: [key[j] for key in ordered] for j, name in enumerate(self.group_by)
        }
        for j, agg in enumerate(self.aggs):
            columns[agg.name] = [self._states[key][j].result(agg.func) for key in ordered]
        return ColumnBatch(columns, len(ordered))
