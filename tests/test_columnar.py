"""Native columnar page format: encodings, scans, and byte accounting.

Covers the docs/STORAGE.md contract from three directions:

* **Round-trip properties** (Hypothesis): dictionary + run-length
  encoding reproduces arbitrary value streams exactly — including None,
  the MISSING sentinel, empty columns, and single-run columns — and the
  dictionary-code predicate fast path selects exactly the rows the
  decoded-value predicate selects, for every comparison operator.
* **Scan identity**: columnar view scans yield the same rows, in the
  same order, as projecting the row-path scan through the view — under
  updates, deletes, irregular rows, multi-table stores, and oversized
  (BLOB) documents.
* **Byte accounting**: buffer-pool frames charge encoded bytes for
  column pages and decoded bytes for row pages, and the optional byte
  budget evicts accordingly.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.exec.batch import MISSING, ColumnBatch
from repro.exec.operators import AggregationTypeError, AggSpec
from repro.model.converters import from_relational_row
from repro.model.document import Document
from repro.model.views import base_table_view
from repro.query.compile import compile_selector
from repro.query.engine import LocalRepository, QueryEngine
from repro.query.plans import (
    Aggregate,
    Comparison,
    CompareOp,
    Conjunction,
    Filter,
    Join,
    Limit,
    ScanView,
    Sort,
)
from repro.storage.bufferpool import BufferPool
from repro.storage.columnstore import (
    ColumnPage,
    DEFAULT_COLUMN_PAGE_ROWS,
    is_columnar_view,
    regular_row_values,
)
from repro.storage.encoding import (
    MATCH_CACHE_ENTRIES,
    ColumnDictionary,
    EncodedColumn,
    rle_decode,
    rle_encode,
)
from repro.storage.pages import Page, Segment
from repro.storage.store import DocumentStore
from tests.oracle.row_engine import RowEngine

pytestmark = pytest.mark.storage


# ----------------------------------------------------------------------
# value strategies
# ----------------------------------------------------------------------
#: Values whose equality, hashing or ordering is easy to get wrong: NaN,
#: the infinities, -0.0, ints past float precision and the three equal
#: ones ``True``/``1``/``1.0``.
HOSTILE = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 2**70, -(2**70), True, 1, 1.0]

scalars = st.one_of(
    st.none(),
    st.just(MISSING),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(HOSTILE),
    st.text(max_size=8),
)

#: Low-cardinality streams force long runs (the RLE-favored shape).
runny = st.lists(st.sampled_from(["a", "a", "a", "b", None]), max_size=200)


def _decode(column: EncodedColumn):
    return [column[i] for i in range(len(column))]


def _exact(values):
    """``==`` equates -0.0 with 0.0 and True with 1, and no NaN with
    itself; type + repr tells the first two apart and equates NaNs."""
    return [(type(v), repr(v)) for v in values]


class TestEncodingRoundTrip:
    @given(st.lists(scalars, max_size=120))
    @example([0.0, -0.0, 0.0])
    @example([float("nan"), 1.0, float("nan")])  # two NaN objects, one code
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exact(self, values):
        column = EncodedColumn.from_values(values)
        assert _exact(column.decoded()) == _exact(values)
        assert _exact(column) == _exact(values)
        assert len(column) == len(values)
        assert len(column.dictionary) == len(set(_exact(values)))

    @given(runny)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_runny(self, values):
        column = EncodedColumn.from_values(values)
        assert column.decoded() == values

    @given(st.lists(scalars, max_size=60), st.lists(scalars, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_shared_dictionary_round_trip(self, first, second):
        """Two vectors over one incremental dictionary both decode."""
        dictionary = ColumnDictionary()
        a = EncodedColumn.from_values(first, dictionary)
        b = EncodedColumn.from_values(second, dictionary)
        assert a.decoded() == first
        assert b.decoded() == second

    def test_empty_column(self):
        column = EncodedColumn.from_values([])
        assert column.decoded() == []
        assert column.encoded_bytes() == 0

    def test_single_run_column(self):
        column = EncodedColumn.from_values(["x"] * 500)
        assert column.is_run_length
        assert column.runs() == [(0, 500)]
        assert column.decoded() == ["x"] * 500
        # one (code, count) pair beats 500 flat codes
        assert column.encoded_bytes() < 500

    def test_bool_int_float_not_fused(self):
        """True/1/1.0 hash identically; codes must stay distinct."""
        values = [True, 1, 1.0, False, 0, 0.0]
        decoded = EncodedColumn.from_values(values).decoded()
        assert decoded == values
        assert [type(v) for v in decoded] == [type(v) for v in values]

    def test_missing_sentinel_survives(self):
        values = ["a", MISSING, None, MISSING]
        decoded = EncodedColumn.from_values(values).decoded()
        assert decoded[1] is MISSING
        assert decoded[2] is None

    @given(st.lists(scalars, min_size=1, max_size=60), st.data())
    @settings(max_examples=100, deadline=None)
    def test_take_and_slice_stay_encoded(self, values, data):
        column = EncodedColumn.from_values(values)
        indices = data.draw(
            st.lists(st.integers(0, len(values) - 1), max_size=30)
        )
        taken = column.take(indices)
        assert isinstance(taken, EncodedColumn)
        assert taken.decoded() == [values[i] for i in indices]
        assert isinstance(column[1:3], EncodedColumn)
        assert column[1:3].decoded() == values[1:3]

    @given(st.lists(st.integers(0, 5), max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_rle_helpers_invert(self, codes):
        assert rle_decode(rle_encode(codes)) == codes


# ----------------------------------------------------------------------
# predicate-on-codes ≡ predicate-on-values
# ----------------------------------------------------------------------
comparison_ops = st.sampled_from(list(CompareOp))
literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-100, max_value=100),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(HOSTILE),
    st.text(max_size=4),
)


class TestCodePredicateEquivalence:
    @given(st.lists(scalars, max_size=100), comparison_ops, literals)
    @example(values=[0.0, -0.0], op=CompareOp.CONTAINS, literal=-0.0)
    @settings(max_examples=300, deadline=None)
    def test_selector_matches_decoded_path(self, values, op, literal):
        """One Conjunction, two batch representations, same selection."""
        term = Comparison("c", op, literal)
        select = compile_selector(Conjunction((term,)))
        encoded = ColumnBatch({"c": EncodedColumn.from_values(values)}, len(values))
        plain = ColumnBatch({"c": list(values)}, len(values))
        assert select(encoded) == select(plain)

    def test_match_cache_tells_equal_literals_apart(self):
        """``Comparison(c, =, 1) == Comparison(c, =, True)`` (and so for
        ±0.0), yet they select different rows: consecutive queries over
        one dictionary must not read each other's cached code sets."""
        values = [True, 1, 1.0, "0.0", "-0.0"]
        encoded = ColumnBatch({"c": EncodedColumn.from_values(values)}, len(values))
        plain = ColumnBatch({"c": values}, len(values))
        for op, literal in [
            (CompareOp.EQ, 1), (CompareOp.EQ, True), (CompareOp.EQ, 1.0),
            (CompareOp.CONTAINS, -0.0), (CompareOp.CONTAINS, 0.0),
        ]:
            select = compile_selector(Conjunction((Comparison("c", op, literal),)))
            assert select(encoded) == select(plain), (op, literal)

    @given(st.lists(scalars, max_size=100), comparison_ops, literals, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matching_codes_agree_with_value_predicate(self, values, op, literal, cut):
        """With and without the comparison spelled out (the sorted-view
        cut, or the predicate run per distinct value)."""
        term = Comparison("c", op, literal)
        column = EncodedColumn.from_values(values)
        spelled = (op.value, literal) if cut else ()
        matching = column.dictionary.matching_codes(term, term.value_predicate(), *spelled)
        pred = term.value_predicate()
        for i, value in enumerate(values):
            expected = pred(None if value is MISSING else value)
            assert (column.codes()[i] in matching) == expected

    @given(
        st.lists(st.lists(scalars, max_size=40), min_size=2, max_size=4),
        st.sampled_from([CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE]),
        literals,
    )
    @settings(max_examples=200, deadline=None)
    def test_range_cut_follows_a_growing_dictionary(self, appends, op, literal):
        """The sorted view takes in every value appended after it was
        built: each append is followed by the same range query."""
        dictionary = ColumnDictionary()
        term = Comparison("c", op, literal)
        pred = term.value_predicate()
        for values in appends:
            EncodedColumn.from_values(values, dictionary)
            got = dictionary.matching_codes(str(term), pred, op.value, literal)
            table = dictionary.values()
            assert got == {
                code for code, value in enumerate(table)
                if pred(None if value is MISSING else value)
            }

    def test_match_cache_is_bounded(self):
        """360 fresh literals (a scan_sql run's worth) leave at most the
        bound of cached results; range cuts never enter the cache."""
        dictionary = ColumnDictionary()
        EncodedColumn.from_values([i % 50 for i in range(200)], dictionary)
        for x in range(360):
            for op in (CompareOp.EQ, CompareOp.GT):
                term = Comparison("c", op, x)
                dictionary.matching_codes(str(term), term.value_predicate(), op.value, x)
        assert dictionary.match_entries() == MATCH_CACHE_ENTRIES
        assert dictionary.match_evictions == 360 - MATCH_CACHE_ENTRIES
        term = Comparison("c", CompareOp.EQ, 359)  # most recently used: still cached
        dictionary.matching_codes(str(term), term.value_predicate(), "=", 359)
        assert dictionary.match_hits == 1

    def test_match_cache_counters_reach_stats(self):
        app = Impliance(ApplianceConfig(n_data_nodes=2, n_grid_nodes=1))
        app.ingest_many([{"oid": i, "c": i % 50} for i in range(200)], table="t")
        for x in range(360):
            app.sql(f"SELECT oid FROM t WHERE c = {x}")
        app.sql("SELECT c FROM t WHERE c = 359")  # a new statement, a cached predicate
        columnar = app.stats()["storage"]["columnar"]
        # one dictionary per column per data node; only ``c`` is filtered
        assert columnar["match_cache_entries"] == 2 * MATCH_CACHE_ENTRIES
        assert columnar["match_cache_evictions"] == 2 * (360 - MATCH_CACHE_ENTRIES)
        assert columnar["match_cache_hits"] == 2

    def test_cache_extends_incrementally(self):
        dictionary = ColumnDictionary()
        term = Comparison("c", CompareOp.GT, 5)
        first = EncodedColumn.from_values([1, 9], dictionary)
        assert dictionary.matching_codes(term, term.value_predicate()) == {
            first.codes()[1]
        }
        second = EncodedColumn.from_values([7], dictionary)
        # dictionary grew; the cached set must cover the new value
        assert second.codes()[0] in dictionary.matching_codes(
            term, term.value_predicate()
        )

    def test_unhashable_literal_falls_back(self):
        term = Comparison("c", CompareOp.CONTAINS, ["x"])
        column = EncodedColumn.from_values(["has ['x'] inside", "nope"])
        matching = column.dictionary.matching_codes(term, term.value_predicate())
        assert column.codes()[0] in matching
        assert column.codes()[1] not in matching


# ----------------------------------------------------------------------
# columnar scan ≡ row scan through the view
# ----------------------------------------------------------------------
ORDERS = base_table_view("orders", "orders", ["oid", "amount", "region"])


def _order(i, amount=None, region="north", table="orders"):
    return Document(
        doc_id=f"o{i}",
        content={"orders": {"oid": i, "amount": amount if amount is not None else i, "region": region}},
        metadata={"table": table},
    )


def _columnar_rows(store, view, batch_size=256):
    batches = store.scan_view_batches(view, batch_size)
    assert batches is not None
    rows = []
    for batch in batches:
        rows.extend(batch.to_rows())
    return rows


def _row_path_rows(store, view):
    return [
        view.project(d, store.lookup) for d in store.scan() if view.matches(d)
    ]


class TestColumnarScanIdentity:
    def test_plain_inserts(self):
        store = DocumentStore()
        for i in range(10):
            store.put(_order(i))
        assert _columnar_rows(store, ORDERS) == _row_path_rows(store, ORDERS)

    def test_updates_move_rows_to_tail(self):
        store = DocumentStore()
        for i in range(6):
            store.put(_order(i))
        store.update("o2", {"orders": {"oid": 2, "amount": 999, "region": "east"}})
        rows = _columnar_rows(store, ORDERS)
        assert rows == _row_path_rows(store, ORDERS)
        assert rows[-1]["amount"] == 999  # updated row scans last

    def test_deletes_and_reinserts(self):
        store = DocumentStore()
        for i in range(6):
            store.put(_order(i))
        store.delete("o1")
        store.delete("o4")
        assert _columnar_rows(store, ORDERS) == _row_path_rows(store, ORDERS)
        head = store.versions.head("o1")
        store.put(
            head.new_version({"orders": {"oid": 1, "amount": 7, "region": "west"}})
        )
        rows = _columnar_rows(store, ORDERS)
        assert rows == _row_path_rows(store, ORDERS)
        assert rows[-1]["region"] == "west"

    def test_irregular_rows_interleave_in_order(self):
        store = DocumentStore()
        store.put(_order(0))
        # nested value → irregular: projected via view.project at scan
        store.put(
            Document(
                doc_id="ox",
                content={"orders": {"oid": 100, "amount": {"cents": 12}, "region": "south"}},
                metadata={"table": "orders"},
            )
        )
        store.put(_order(2))
        assert _columnar_rows(store, ORDERS) == _row_path_rows(store, ORDERS)

    def test_multi_table_stores_do_not_mix(self):
        store = DocumentStore()
        customers = base_table_view("customers", "customers", ["cid", "name"])
        store.put(_order(0))
        store.put(
            Document(
                doc_id="c1",
                content={"customers": {"cid": 1, "name": "ada"}},
                metadata={"table": "customers"},
            )
        )
        store.put(_order(1))
        assert _columnar_rows(store, ORDERS) == _row_path_rows(store, ORDERS)
        assert _columnar_rows(store, customers) == _row_path_rows(store, customers)

    def test_non_columnar_views_return_none(self):
        store = DocumentStore()
        store.put(_order(0))
        predicated = dataclasses.replace(
            base_table_view("big", "orders", ["oid"]),
            predicate=lambda row: row["oid"] > 3,
        )
        assert store.scan_view_batches(predicated) is None
        assert not is_columnar_view(predicated)
        untabled = dataclasses.replace(base_table_view("t", "orders", ["oid"]), table=None)
        assert not is_columnar_view(untabled)

    def test_table_change_between_versions(self):
        store = DocumentStore()
        store.put(_order(0))
        store.put(_order(1))
        head = store.versions.head("o0")
        store.put(
            head.new_version(
                {"customers": {"cid": 9, "name": "moved"}}, {"table": "customers"}
            )
        )
        assert _columnar_rows(store, ORDERS) == _row_path_rows(store, ORDERS)

    def test_scan_counted_at_call_site(self):
        store = DocumentStore()
        store.put(_order(0))
        before = store.stats.scans
        store.scan_view_batches(ORDERS)  # iterator never consumed
        assert store.stats.scans == before + 1

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),                       # doc index
                st.sampled_from(["put", "update", "delete"]),
                st.sampled_from(["north", "south", "east"]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings_match_row_path(self, operations):
        store = DocumentStore()
        for i, action, region in operations:
            doc_id = f"o{i}"
            if action == "put" and not store.contains(doc_id):
                store.put(_order(i, region=region))
            elif store.contains(doc_id):
                head = store.versions.head(doc_id)
                if action == "delete":
                    store.delete(doc_id)
                elif not head.is_tombstone:
                    store.update(
                        doc_id,
                        {"orders": {"oid": i, "amount": i * 3, "region": region}},
                    )
        assert _columnar_rows(store, ORDERS) == _row_path_rows(store, ORDERS)


class TestRegularityGate:
    def test_regular_row(self):
        doc = _order(1)
        assert regular_row_values(doc, "orders") == {
            "oid": 1, "amount": 1, "region": "north",
        }

    def test_nested_and_listy_rows_are_irregular(self):
        nested = Document(
            doc_id="n", content={"orders": {"x": {"y": 1}}}, metadata={"table": "orders"}
        )
        listy = Document(
            doc_id="l", content={"orders": {"x": [1, 2]}}, metadata={"table": "orders"}
        )
        scalar_top = Document(doc_id="s", content="plain text", metadata={"table": "orders"})
        assert regular_row_values(nested, "orders") is None
        assert regular_row_values(listy, "orders") is None
        assert regular_row_values(scalar_top, "orders") is None


# ----------------------------------------------------------------------
# oversized (BLOB) documents
# ----------------------------------------------------------------------
class TestOversizedDocuments:
    def test_blob_gets_own_page_and_survives_columnar_scan(self):
        """A document bigger than a page lands on its own page, stays on
        the row path, and the columnar-era scan still projects it."""
        store = DocumentStore(page_bytes=512)
        store.put(_order(0))
        blob_text = "x" * 4096  # >> page capacity
        blob = Document(
            doc_id="blob",
            content={"orders": {"oid": 1, "amount": 5, "region": "north", "body": blob_text}},
            metadata={"table": "orders"},
        )
        store.put(blob)
        store.put(_order(2))

        # physical placement: the blob sits alone on its page
        address = store._addresses[("blob", 1)]
        page = store.segment(address.segment_id).page(address.page_id)
        assert page.doc_count == 1
        assert page.used_bytes > 512

        # full-document read returns it untouched
        assert store.get("blob").content["orders"]["body"] == blob_text

        # the columnar scan projects it (regular row: all values scalar)
        rows = _columnar_rows(store, ORDERS)
        assert rows == _row_path_rows(store, ORDERS)
        assert rows[1] == {"oid": 1, "amount": 5, "region": "north"}

    def test_page_fits_oversized_only_when_empty(self):
        page = Page(page_id=0, segment_id=0, capacity_bytes=64)
        big = Document(doc_id="b", content={"d": {"x": "y" * 500}})
        assert page.fits(big)
        page.append(big)
        small = Document(doc_id="s", content={"d": {"x": 1}})
        assert not page.fits(small)

    def test_segment_seals_around_oversized(self):
        segment = Segment(segment_id=0, page_bytes=64, max_pages=2)
        big = Document(doc_id="b", content={"d": {"x": "y" * 500}})
        assert segment.append(big) is not None
        assert segment.append(big.new_version({"d": {"x": "z" * 500}})) is not None
        assert segment.append(Document(doc_id="c", content={"d": {"x": 1}})) is None


# ----------------------------------------------------------------------
# engine integration: native path ≡ transpose path ≡ row engine
# ----------------------------------------------------------------------
class _TransposeOnly:
    """Repository proxy hiding the native columnar scan — forces the
    engine onto the document-transpose path for comparison runs."""

    def __init__(self, inner):
        self._inner = inner
        self.views = inner.views
        self.indexes = inner.indexes

    def documents(self):
        return self._inner.documents()

    def document_batches(self, batch_size):
        return self._inner.document_batches(batch_size)

    def lookup(self, doc_id):
        return self._inner.lookup(doc_id)


SQL = "SELECT region, count(*) AS n, sum(amount) AS total FROM orders WHERE amount > 3 GROUP BY region"


class TestEngineIntegration:
    def _repo(self):
        store = DocumentStore()
        repo = LocalRepository(store)
        repo.views.define(ORDERS)
        for i in range(50):
            store.put(_order(i, amount=i % 11, region=["north", "south"][i % 2]))
        store.delete("o7")
        store.update("o9", {"orders": {"oid": 9, "amount": 10, "region": "east"}})
        return repo

    def test_native_equals_transpose_equals_rows(self):
        repo = self._repo()
        native = QueryEngine(repo).sql(SQL)
        transpose = QueryEngine(_TransposeOnly(repo)).sql(SQL)
        row_engine = RowEngine(repo).sql(SQL)
        assert native.rows == transpose.rows == row_engine.rows
        # the physical shortcut must not perturb the simulated cost
        assert native.sim_ms == pytest.approx(transpose.sim_ms)
        assert native.sim_ms == pytest.approx(row_engine.sim_ms)

    def test_filter_runs_on_codes(self):
        """The scan feeds still-encoded columns into the filter."""
        repo = self._repo()
        produced = repo.view_column_batches(ORDERS, 1024)
        assert produced is not None
        batches, _ = produced
        batch = next(iter(batches))
        assert isinstance(batch.columns["region"], EncodedColumn)


# ----------------------------------------------------------------------
# hostile values through whole queries: compiled pipelines ≡ row oracle
# ----------------------------------------------------------------------
T_VIEW = base_table_view("t", "t", ["oid", "c", "v", "g", "k"])
D_VIEW = base_table_view("d", "d", ["did", "k", "name"])
#: Join keys: equal-but-distinct numbers and case-folded strings (the
#: value index folds both).  NaN stays out: a NaN key finds a NaN row
#: in the value index by object identity alone.
JOIN_KEYS = [None, 0, 1, 2, True, 1.0, 0.0, -0.0, "a", "A"]
GROUP_KEYS = [None, "a", "b", 1, True, 1.0, 0.0, -0.0, 2**70]

range_ops = st.sampled_from([CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE])
numbers = st.one_of(
    st.integers(-100, 100), st.floats(-1e6, 1e6, width=32), st.sampled_from(HOSTILE)
)
#: What a sum adds in a different order comes out different: magnitudes
#: far apart, and both zeros (min/max keep the first of equals).
summands = st.one_of(
    st.floats(-1e6, 1e6), st.sampled_from([1e16, -1e16, 0.1, 0.2, 0.3, 0.0, -0.0, 3, 2**70])
)

t_rows = st.fixed_dictionaries(
    {},
    optional={  # an absent key reads as MISSING
        "c": st.one_of(numbers, scalars.filter(lambda v: v is not MISSING)),
        "v": summands,
        "g": st.sampled_from(GROUP_KEYS),
        "k": st.sampled_from(JOIN_KEYS),
    },
)
d_rows = st.fixed_dictionaries(
    {"k": st.sampled_from(JOIN_KEYS), "name": st.sampled_from(["p", "q"])}
)


@st.composite
def hostile_plans(draw):
    # weighted toward range terms on numbers: the sorted-view cut
    op = draw(st.one_of(range_ops, comparison_ops))
    where = Conjunction((Comparison("c", op, draw(st.one_of(numbers, literals))),))
    plan = ScanView("t")
    shape = draw(st.sampled_from(["filter", "aggregate", "sort", "join"]))
    if shape == "filter" or draw(st.booleans()):
        plan = Filter(plan, where)
    if shape == "aggregate":
        funcs = draw(st.lists(st.sampled_from(["sum", "avg", "count", "min", "max"]),
                              min_size=1, max_size=3, unique=True))
        column = draw(st.sampled_from(["v", "v", "c"]))
        aggs = tuple(AggSpec(f, f, column) for f in funcs) + (AggSpec("n", "count"),)
        plan = Aggregate(plan, draw(st.sampled_from([(), ("g",), ("k",), ("g", "k")])), aggs)
    elif shape == "sort":
        keys = draw(st.sampled_from([("c",), ("v",), ("g",), ("oid",), ("g", "v")]))
        plan = Limit(Sort(plan, keys, draw(st.booleans())), draw(st.integers(0, 8)))
    elif shape == "join":
        plan = Join(plan, ScanView("d"), "k", "k")
    return plan


def _outcome(engine, plan):
    """Rows in order, each value by repr (``==`` cannot tell -0.0 from
    0.0, nor one NaN from another), and sim-ms; or the aggregate error
    both engines must raise.  A row's key order is not compared: a
    joined row that gained an ``r_`` column comes back from the batch
    round trip in the batch's column order."""
    try:
        result = engine.execute(plan)
    except AggregationTypeError:
        return "AggregationTypeError", 0.0
    rows = [sorted((key, repr(value)) for key, value in row.items()) for row in result.rows]
    return rows, result.sim_ms


class TestHostileQueries:
    @given(
        first=st.lists(t_rows, max_size=25),
        grown=st.lists(t_rows, min_size=1, max_size=25),
        inner=st.lists(d_rows, min_size=1, max_size=8),
        plan=hostile_plans(),
    )
    @example(  # a value appended after the sorted view was built
        first=[{"c": 1}], grown=[{"c": 5}], inner=[{"k": 0, "name": "p"}],
        plan=Filter(ScanView("t"), Conjunction((Comparison("c", CompareOp.GT, 0),))),
    )
    @example(  # mixed types fall back from the plain-key sort
        first=[{"c": 2.5}, {"c": "x"}], grown=[{"c": True}, {"c": float("nan")}],
        inner=[{"k": 0, "name": "p"}], plan=Limit(Sort(ScanView("t"), ("c",), True), 3),
    )
    @example(  # equal-but-distinct join keys probe one index entry
        first=[{"k": 1}, {"k": True}, {"k": 1.0}, {"k": 1}], grown=[{"k": "A"}],
        inner=[{"k": 1, "name": "p"}, {"k": "a", "name": "q"}],
        plan=Join(ScanView("t"), ScanView("d"), "k", "k"),
    )
    @example(  # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1: sums keep row order
        first=[{"v": 0.1, "g": "a"}, {"v": 0.2, "g": "b"}, {"v": 0.2, "g": "a"}],
        grown=[{"v": 0.3, "g": "a"}], inner=[{"k": 0, "name": "p"}],
        plan=Aggregate(ScanView("t"), ("g",), (AggSpec("s", "sum", "v"),)),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_row_oracle(self, first, grown, inner, plan):
        """Rows, their order and sim-ms, before and after the column
        dictionaries grow (the trickle-write shape: a sorted view or a
        cached predicate that missed the new values would show here)."""
        store = DocumentStore()
        repo = LocalRepository(store)
        repo.views.define(T_VIEW)
        repo.views.define(D_VIEW)
        for i, row in enumerate(inner):
            store.put(from_relational_row(f"d{i}", "d", {"did": i, **row}, ["did"]))
        compiled, oracle = QueryEngine(repo, batch_size=8), RowEngine(repo)
        for start, rows in ((0, first), (len(first), grown)):
            for i, row in enumerate(rows, start):
                store.put(from_relational_row(f"t{i}", "t", {"oid": i, **row}, ["oid"]))
            (rows, sim_ms), (want_rows, want_sim_ms) = (
                _outcome(compiled, plan), _outcome(oracle, plan)
            )
            assert rows == want_rows
            # the same per-row charges, added per batch vs per operator
            assert sim_ms == pytest.approx(want_sim_ms)


# ----------------------------------------------------------------------
# buffer-pool byte accounting
# ----------------------------------------------------------------------
class TestBufferPoolBytes:
    def test_encoded_vs_decoded_split(self):
        store = DocumentStore()
        for i in range(20):
            store.put(_order(i))
        stats = store.buffer_pool.stats
        assert stats.bytes_read_encoded == 0
        list(store.scan())  # row pages: decoded bytes
        assert stats.bytes_read_decoded > 0
        decoded_before = stats.bytes_read_decoded
        for batch in store.scan_view_batches(ORDERS):
            pass
        assert stats.bytes_read_encoded > 0  # column pages: encoded bytes
        assert stats.bytes_read_decoded == decoded_before
        # the same rows cost far fewer pool bytes encoded
        assert stats.bytes_read_encoded < decoded_before

    def test_byte_budget_evicts(self):
        pages = {
            (0, i): Page(page_id=i, segment_id=0, capacity_bytes=1024)
            for i in range(4)
        }
        for key, page in pages.items():
            page.append(Document(doc_id=f"d{key[1]}", content={"d": {"x": "y" * 100}}))
        pool = BufferPool(
            capacity_pages=10,
            fetch=lambda s, p: pages[(s, p)],
            segment_pages=lambda s: 4,
            capacity_bytes=pages[(0, 0)].cached_bytes() * 2,
        )
        for i in range(4):
            pool.get(0, i)
        assert pool.resident_pages == 2  # byte budget, not frame budget
        assert pool.resident_bytes <= pool.capacity_bytes
        assert pool.stats.evictions == 2

    def test_column_page_pool_protocol(self):
        page = ColumnPage(page_id=0, segment_id=0, capacity_rows=8)
        dictionaries = {}
        page.append_regular({"a": "x"}, dictionaries)
        assert list(page.documents()) == []
        assert page.doc_count == 0
        assert page.cached_bytes() >= 1
        assert page.is_columnar


# ----------------------------------------------------------------------
# page-level layout details
# ----------------------------------------------------------------------
class TestColumnPageLayout:
    def test_late_column_backfills_nulls(self):
        store = DocumentStore()
        store.put(_order(0))
        store.put(
            Document(
                doc_id="late",
                content={"orders": {"oid": 1, "amount": 2, "region": "x", "extra": "v"}},
                metadata={"table": "orders"},
            )
        )
        view = base_table_view("wide", "orders", ["oid", "extra"])
        rows = _columnar_rows(store, view)
        assert rows == _row_path_rows(store, view)
        assert rows[0] == {"oid": 0, "extra": None}
        assert rows[1] == {"oid": 1, "extra": "v"}

    def test_page_capacity_splits_batches(self):
        store = DocumentStore()
        n = DEFAULT_COLUMN_PAGE_ROWS + 5
        store.put_many([_order(i) for i in range(n)])
        batches = list(store.scan_view_batches(ORDERS, batch_size=10**6))
        assert sum(b.length for b in batches) == n
        assert len(batches) == 2  # one full page + the 5-row tail
        small = list(store.scan_view_batches(ORDERS, batch_size=100))
        assert all(b.length <= 100 for b in small)
        assert sum(b.length for b in small) == n
