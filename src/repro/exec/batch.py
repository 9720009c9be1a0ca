"""Columnar execution batches (the vectorized hot path's currency).

Interpreting a plan dict-row-at-a-time is the slowest possible shape
for Python: every row pays dict construction, per-key hashing, and
per-row dispatch.  A :class:`ColumnBatch` is the standard
fix: a struct-of-arrays slice of an intermediate result (column name →
value list, one shared length), so operators pay their Python overhead
once per *batch* and loop over plain lists for the per-row work.

Batches are null-aware in two distinct senses:

* a ``None`` entry is a SQL NULL (present key, null value);
* the :data:`MISSING` sentinel marks a key that was *absent* from the
  originating dict row.  Joins produce ragged rows — ``r_<col>`` rename
  columns exist only on collision rows — and the batch representation
  must round-trip them exactly, or batch joins would disagree with the
  row reference on join output.  ``to_rows`` omits MISSING entries;
  ``column`` reads them as None (matching ``row.get``).

The dict-row API stays at the edges: :func:`batches_from_rows` and
:func:`rows_from_batches` are the adapters the row operator functions
and ``QueryResult.rows`` sit on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.model.values import MISSING, _Missing  # noqa: F401  (re-export home)
from repro.storage.encoding import EncodedColumn

Row = Dict[str, Any]

#: Default rows per batch.  Large enough to amortize per-batch dispatch,
#: small enough that intermediate columns stay cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 1024


class ColumnBatch:
    """One struct-of-arrays slice of rows: column name → list of values.

    All columns share ``length``.  Columns never present in the batch read
    as all-None (like ``row.get`` on a dict row).  Construction does not
    copy the column lists — treat batches as immutable once built.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, List[Any]], length: Optional[int] = None) -> None:
        self.columns = columns
        if length is None:
            length = len(next(iter(columns.values()))) if columns else 0
        self.length = length
        for name, values in columns.items():
            if len(values) != length:
                raise ValueError(
                    f"column {name!r} has {len(values)} values, batch length is {length}"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, column_names: Sequence[str] = ()) -> "ColumnBatch":
        return cls({name: [] for name in column_names}, 0)

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "ColumnBatch":
        """Pivot dict rows into columns (first-seen column order).

        Keys absent from a given row are stored as :data:`MISSING`, so
        ragged join output survives the round trip through ``to_rows``.
        """
        names: List[str] = []
        seen = set()
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    names.append(key)
        columns: Dict[str, List[Any]] = {}
        for name in names:
            columns[name] = [row.get(name, MISSING) for row in rows]
        return cls(columns, len(rows))

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """One batch holding every row of *batches*, in order."""
        batches = [b for b in batches if b.length]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        names: List[str] = []
        seen = set()
        for batch in batches:
            for name in batch.columns:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        columns: Dict[str, List[Any]] = {name: [] for name in names}
        for batch in batches:
            for name in names:
                values = batch.columns.get(name)
                if values is None:
                    columns[name].extend([MISSING] * batch.length)
                else:
                    columns[name].extend(values)
        return cls(columns, sum(b.length for b in batches))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    @property
    def column_names(self) -> List[str]:
        return list(self.columns)

    def column(self, name: str) -> List[Any]:
        """Values of *name*, reading MISSING/absent as None (``row.get``)."""
        values = self.columns.get(name)
        if values is None:
            return [None] * self.length
        if isinstance(values, EncodedColumn):
            values = values.decoded()
        for v in values:
            if v is MISSING:
                return [None if u is MISSING else u for u in values]
        return values

    def raw_column(self, name: str) -> Optional[List[Any]]:
        """The stored column list (may contain MISSING), or None if absent."""
        return self.columns.get(name)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """New batch with the rows at *indices* (in the given order).

        Encoded columns stay encoded: the gather happens on integer
        codes, so a filter over a compressed scan never decodes the
        columns the query doesn't touch.
        """
        columns = {
            name: (
                values.take(indices)
                if isinstance(values, EncodedColumn)
                else [values[i] for i in indices]
            )
            for name, values in self.columns.items()
        }
        return ColumnBatch(columns, len(indices))

    def head(self, n: int) -> "ColumnBatch":
        if n >= self.length:
            return self
        return ColumnBatch(
            {name: values[:n] for name, values in self.columns.items()}, n
        )

    def select_columns(self, names: Sequence[str]) -> "ColumnBatch":
        """Projection: keep *names* (absent ones become all-None columns)."""
        columns: Dict[str, List[Any]] = {}
        for name in names:
            values = self.columns.get(name)
            if values is None:
                columns[name] = [None] * self.length
            else:
                columns[name] = values
        return ColumnBatch(columns, self.length)

    def drop_column(self, name: str) -> "ColumnBatch":
        if name not in self.columns:
            return self
        columns = {k: v for k, v in self.columns.items() if k != name}
        return ColumnBatch(columns, self.length)

    # ------------------------------------------------------------------
    # row adapter edge
    # ------------------------------------------------------------------
    def to_rows(self) -> List[Row]:
        """Materialize dict rows (omitting MISSING entries)."""
        names = list(self.columns)
        cols = [self.columns[name] for name in names]
        ragged = any(any(v is MISSING for v in col) for col in cols)
        if not ragged:
            return [dict(zip(names, values)) for values in zip(*cols)] if names else [
                {} for _ in range(self.length)
            ]
        rows: List[Row] = []
        for i in range(self.length):
            rows.append(
                {name: col[i] for name, col in zip(names, cols) if col[i] is not MISSING}
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnBatch({self.length} rows × {list(self.columns)})"


# ----------------------------------------------------------------------
# stream adapters
# ----------------------------------------------------------------------
def batches_from_rows(
    rows: Iterable[Row], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[ColumnBatch]:
    """Chunk dict rows into ColumnBatches of at most *batch_size* rows."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    pending: List[Row] = []
    for row in rows:
        pending.append(row)
        if len(pending) >= batch_size:
            yield ColumnBatch.from_rows(pending)
            pending = []
    if pending:
        yield ColumnBatch.from_rows(pending)


def batches_from_columns(
    columns: Dict[str, List[Any]],
    length: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> List[ColumnBatch]:
    """Slice accumulated full-length columns into fixed-size batches."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if length <= batch_size:
        return [ColumnBatch(columns, length)] if length else []
    return [
        ColumnBatch(
            {name: values[start : start + batch_size] for name, values in columns.items()},
            min(batch_size, length - start),
        )
        for start in range(0, length, batch_size)
    ]


def rows_from_batches(batches: Iterable[ColumnBatch]) -> List[Row]:
    """Flatten a batch stream back into dict rows (the API edge)."""
    rows: List[Row] = []
    for batch in batches:
        rows.extend(batch.to_rows())
    return rows
