"""Columnar vector encodings: incremental dictionaries + run lengths.

This is the compression layer the native column pages are built from
(docs/STORAGE.md).  It extends the idea behind
:class:`repro.storage.compression.DictionaryCompressor` — an incremental,
append-only dictionary learned across the whole stream — from document
*keys* to column *values*:

* :class:`ColumnDictionary` maps distinct column values to small integer
  codes.  The dictionary only ever grows, so codes are stable: vectors
  encoded yesterday remain decodable (and comparable) today, and every
  page of one column shares one dictionary.
* :class:`EncodedColumn` is a dictionary-coded vector stored either as a
  flat code list or as run-length ``(code, count)`` pairs — whichever is
  smaller for the data at hand (the workload generators emit both
  low-cardinality fields like ``region`` and unique keys like ``oid``).

An :class:`EncodedColumn` is a real ``Sequence``: operators that iterate
or index it see decoded values, so it can sit inside a
``ColumnBatch.columns`` dict unnoticed.  The scan/filter hot path,
however, checks for it explicitly and works on the *codes* — predicate
evaluation touches each distinct value once (:meth:`ColumnDictionary.
matching_codes`), row selection gathers integers, and nothing decodes
until an operator genuinely needs values.

This module sits at the bottom of the import graph (only
``repro.model.values``) so the exec and query layers can import it
without cycles.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.model.values import MISSING

__all__ = [
    "ColumnDictionary",
    "EncodedColumn",
    "rle_encode",
    "rle_decode",
]

#: Predicate results one dictionary caches, least recently used evicted
#: first (range comparisons on plain numbers need no cache).
MATCH_CACHE_ENTRIES = 32


def _dict_key(value: Any) -> Tuple[type, Any]:
    """Dictionary lookup key distinguishing equal-but-distinct values.

    Plain ``value`` keys would fuse ``True``/``1``/``1.0`` into one code
    (Python hashes them identically), silently rewriting booleans into
    ints on decode.  Keying by ``(type, value)`` keeps the round trip
    exact — except for the two floats ``==`` gets wrong: ``-0.0 == 0.0``
    (the column would decode ``-0.0`` as ``0.0``) and ``nan != nan``
    (every NaN object would mint a fresh code).  Those key on their
    ``repr`` (``'-0.0'``, ``'0.0'``, ``'nan'``) instead.
    """
    cls = value.__class__
    if cls is float and (value == 0.0 or value != value):
        return (cls, repr(value))
    return (cls, value)


class ColumnDictionary:
    """Incremental value ↔ code mapping shared by every page of a column.

    Append-only: a value's code never changes once assigned, so encoded
    vectors from different pages/segments are directly comparable.  The
    dictionary also decides predicates once per *distinct* value
    (:meth:`matching_codes`), which is what makes filtering on codes
    cheaper than filtering on values.
    """

    __slots__ = (
        "_code_of", "_values", "_raw_sizes", "raw_entry_bytes", "_match_cache",
        "match_hits", "match_evictions", "_sorted", "_sorted_codes", "_unsorted",
    )

    def __init__(self) -> None:
        self._code_of: Dict[Tuple[type, Any], int] = {}
        self._values: List[Any] = []
        # decoded size per code (len(str(value)) + 1), computed once per
        # distinct value so per-row byte accounting never calls str()
        self._raw_sizes: List[int] = []
        #: Running sum of per-entry decoded sizes (the dictionary's own
        #: storage cost, before per-code width).
        self.raw_entry_bytes = 0
        # predicate cache, least recently used first:
        # key -> [n_values_checked, set_of_matching_codes]
        self._match_cache: Dict[Any, List[Any]] = {}
        self.match_hits = self.match_evictions = 0
        # sorted view: the plain numbers in value order with their codes,
        # and the other codes (together: every code taken in so far)
        self._sorted: List[Any] = []
        self._sorted_codes: List[int] = []
        self._unsorted: List[int] = []

    def __len__(self) -> int:
        return len(self._values)

    def encode_one(self, value: Any) -> int:
        # the hottest line of the write path: _dict_key inlined for
        # everything but floats, whose zero/NaN rule lives there
        cls = value.__class__
        key = _dict_key(value) if cls is float else (cls, value)
        code = self._code_of.get(key)
        if code is None:
            code = len(self._values)
            self._code_of[key] = code
            self._values.append(value)
            size = len(str(value)) + 1
            self._raw_sizes.append(size)
            self.raw_entry_bytes += size
        return code

    def raw_size(self, code: int) -> int:
        """Approximate decoded byte cost of the value behind *code*."""
        return self._raw_sizes[code]

    def values(self) -> List[Any]:
        """The decode table (index = code).  Do not mutate."""
        return self._values

    def match_entries(self) -> int:
        """Predicate results cached now (at most :data:`MATCH_CACHE_ENTRIES`)."""
        return len(self._match_cache)

    # ------------------------------------------------------------------
    def matching_codes(
        self, cache_key: Any, predicate: Callable[[Any], bool], op: str = "", literal: Any = None
    ) -> frozenset:
        """Codes whose decoded value satisfies *predicate* (which sees
        :data:`MISSING` as None, as a row-at-a-time filter would).

        For ``value op literal`` with *op* in ``<``/``<=``/``>``/``>=`` and
        an ``int``/``float`` literal that is not NaN, the plain numbers
        (exact ``int``/``float``/``bool``, not NaN: one total order, the
        ``<`` the predicate uses) are a ``bisect`` cut of the sorted view,
        and only the other values meet *predicate*.  Any other result is
        cached under *cache_key* (the comparison's text: the frozen
        ``Comparison`` equates ``1``/``True`` and ``0.0``/``-0.0``, which
        select different rows) — at most :data:`MATCH_CACHE_ENTRIES`
        keys, each extended only over the dictionary's new tail.
        """
        plain = literal.__class__ in (int, float) and literal == literal
        if plain and op in ("<", "<=", ">", ">="):
            return self._range_codes(op, literal, predicate)
        try:
            hash(cache_key)
        except TypeError:  # unhashable literal: evaluate without caching
            return self._scan_codes(range(len(self._values)), set(), predicate)
        cached = self._match_cache.pop(cache_key, None)
        if cached is not None:
            self.match_hits += 1
        elif len(self._match_cache) < MATCH_CACHE_ENTRIES:
            cached = [0, set()]
        else:
            del self._match_cache[next(iter(self._match_cache))]
            self.match_evictions += 1
            cached = [0, set()]
        self._scan_codes(range(cached[0], len(self._values)), cached[1], predicate)
        cached[0] = len(self._values)
        self._match_cache[cache_key] = cached  # last: most recently used
        return frozenset(cached[1])

    def _scan_codes(self, codes: Iterable[int], matches: set, predicate) -> frozenset:
        for code in codes:
            value = self._values[code]
            if predicate(None if value is MISSING else value):
                matches.add(code)
        return frozenset(matches)

    def _range_codes(self, op: str, literal: Any, predicate) -> frozenset:
        self._extend_sorted_view()
        cut = (bisect_left if op in ("<", ">=") else bisect_right)(self._sorted, literal)
        hits = self._sorted_codes[:cut] if op[0] == "<" else self._sorted_codes[cut:]
        return self._scan_codes(self._unsorted, set(hits), predicate)

    def _extend_sorted_view(self) -> None:
        """Take the dictionary's new tail into the sorted view: the tail
        alone is sorted, then inserted (short) or merged in (long)."""
        table = self._values
        tail = []
        for code in range(len(self._sorted) + len(self._unsorted), len(table)):
            value = table[code]
            if value.__class__ in (int, float, bool) and value == value:
                tail.append((value, code))
            else:
                self._unsorted.append(code)
        tail.sort()
        if len(tail) * 16 < len(self._sorted):
            for value, code in tail:
                at = bisect_right(self._sorted, value)
                self._sorted.insert(at, value)
                self._sorted_codes.insert(at, code)
        elif tail:
            merged = list(heapq.merge(zip(self._sorted, self._sorted_codes), tail))
            self._sorted = [value for value, _ in merged]
            self._sorted_codes = [code for _, code in merged]


# ----------------------------------------------------------------------
# run-length helpers
# ----------------------------------------------------------------------
def rle_encode(codes: Sequence[int]) -> List[Tuple[int, int]]:
    """Collapse *codes* into ``(code, run_length)`` pairs."""
    runs: List[Tuple[int, int]] = []
    current: Optional[int] = None
    count = 0
    for code in codes:
        if code == current:
            count += 1
        else:
            if count:
                runs.append((current, count))
            current = code
            count = 1
    if count:
        runs.append((current, count))
    return runs


def rle_decode(runs: Sequence[Tuple[int, int]]) -> List[int]:
    """Expand ``(code, run_length)`` pairs back into a flat code list."""
    codes: List[int] = []
    for code, count in runs:
        codes.extend([code] * count)
    return codes


def _code_width(dictionary_size: int) -> int:
    """Bytes per code in the simulated on-page format."""
    if dictionary_size <= 1 << 8:
        return 1
    if dictionary_size <= 1 << 16:
        return 2
    return 4


class EncodedColumn(Sequence):
    """A dictionary-coded column vector, flat or run-length encoded.

    Behaves as an immutable ``Sequence`` of *decoded* values (so generic
    operators — sorts, joins, aggregates — work unchanged), while the
    scan/filter hot path uses :meth:`codes`, :meth:`take`, and the
    dictionary's predicate cache to stay on integers.  Decoding is lazy
    and memoized; :meth:`take`/slicing produce new still-encoded columns.
    """

    __slots__ = ("dictionary", "_codes", "_runs", "length", "_decoded")

    def __init__(
        self,
        dictionary: ColumnDictionary,
        codes: Optional[List[int]] = None,
        runs: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        if (codes is None) == (runs is None):
            raise ValueError("exactly one of codes/runs must be given")
        self.dictionary = dictionary
        self._codes = codes
        self._runs = runs
        self.length = (
            len(codes) if codes is not None else sum(c for _, c in runs)
        )
        self._decoded: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls, values: Sequence[Any], dictionary: Optional[ColumnDictionary] = None
    ) -> "EncodedColumn":
        """Encode *values*, choosing the smaller of flat vs run-length."""
        dictionary = dictionary if dictionary is not None else ColumnDictionary()
        encode = dictionary.encode_one
        return cls.from_codes([encode(v) for v in values], dictionary)

    @classmethod
    def from_codes(
        cls, codes: List[int], dictionary: ColumnDictionary
    ) -> "EncodedColumn":
        """Wrap already-encoded *codes*, run-length encoding when smaller."""
        runs = rle_encode(codes)
        # A run costs a code plus a count; keep runs only when they beat
        # the flat layout outright (ties keep flat: cheaper to address).
        if len(runs) * 2 < len(codes):
            return cls(dictionary, runs=runs)
        return cls(dictionary, codes=codes)

    # ------------------------------------------------------------------
    # encoded access (the hot path)
    # ------------------------------------------------------------------
    @property
    def is_run_length(self) -> bool:
        return self._runs is not None

    def runs(self) -> Optional[List[Tuple[int, int]]]:
        return self._runs

    def codes(self) -> List[int]:
        """Flat code vector (expanded and memoized for run-length data)."""
        if self._codes is None:
            self._codes = rle_decode(self._runs)
        return self._codes

    def take(self, indices: Sequence[int]) -> "EncodedColumn":
        """Still-encoded gather of the rows at *indices*."""
        codes = self.codes()
        return EncodedColumn.from_codes([codes[i] for i in indices], self.dictionary)

    def encoded_bytes(self) -> int:
        """Approximate on-page size of this vector.

        Codes cost the byte width the dictionary size requires; a
        run-length pair additionally carries a two-byte count.  The
        dictionary itself is shared across every page of the column, so
        it is charged where it lives (once per store), not per vector.
        """
        width = _code_width(len(self.dictionary))
        if self._runs is not None:
            # The page stores the runs; a memoized flat expansion (a
            # decode cache) does not change the on-page size.
            return len(self._runs) * (width + 2)
        return self.length * width

    # ------------------------------------------------------------------
    # decoded access (Sequence protocol for generic operators)
    # ------------------------------------------------------------------
    def decoded(self) -> List[Any]:
        """The exact value stream this column encodes (memoized)."""
        if self._decoded is None:
            table = self.dictionary.values()
            self._decoded = [table[c] for c in self.codes()]
        return self._decoded

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Any]:
        return iter(self.decoded())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EncodedColumn.from_codes(self.codes()[index], self.dictionary)
        return self.decoded()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EncodedColumn):
            return self.decoded() == other.decoded()
        if isinstance(other, list):
            return self.decoded() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        layout = "rle" if self.is_run_length else "flat"
        return f"EncodedColumn({self.length} rows, {layout}, dict={len(self.dictionary)})"

