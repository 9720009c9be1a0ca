"""Unit tests for repro.model.values: typing, paths, extraction."""

import pytest

from repro.model.values import (
    ValueType,
    classify_value,
    coerce_numeric,
    get_path,
    iter_paths,
    iter_structure_paths,
    path_to_string,
    string_to_path,
)
from tests.oracle.text import extract_text


class TestClassifyValue:
    def test_none_is_null(self):
        assert classify_value(None) is ValueType.NULL

    def test_bool_is_bool_not_integer(self):
        assert classify_value(True) is ValueType.BOOL
        assert classify_value(False) is ValueType.BOOL

    def test_int(self):
        assert classify_value(42) is ValueType.INTEGER

    def test_float(self):
        assert classify_value(3.14) is ValueType.FLOAT

    def test_date_string(self):
        assert classify_value("2007-01-10") is ValueType.DATE

    def test_datetime_string(self):
        assert classify_value("2007-01-10 15:30:00") is ValueType.DATE

    def test_money_string(self):
        assert classify_value("$1,234.56") is ValueType.MONEY

    def test_euro_money(self):
        assert classify_value("€99") is ValueType.MONEY

    def test_numeric_string_integer(self):
        assert classify_value("12345") is ValueType.INTEGER

    def test_numeric_string_float(self):
        assert classify_value("12.5") is ValueType.FLOAT

    def test_scientific_notation(self):
        assert classify_value("1e5") is ValueType.FLOAT

    def test_phone_string(self):
        assert classify_value("555-123-4567") is ValueType.PHONE

    def test_short_string(self):
        assert classify_value("east") is ValueType.STRING

    def test_long_prose_is_text(self):
        prose = "the quick brown fox jumps over the lazy dog near the river bank"
        assert classify_value(prose) is ValueType.TEXT

    def test_empty_string(self):
        assert classify_value("") is ValueType.STRING

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            classify_value(object())

    def test_numeric_property(self):
        assert ValueType.INTEGER.is_numeric
        assert ValueType.MONEY.is_numeric
        assert not ValueType.PHONE.is_numeric
        assert not ValueType.TEXT.is_numeric


class TestCoerceNumeric:
    def test_int_passthrough(self):
        assert coerce_numeric(5) == 5.0

    def test_money_string(self):
        assert coerce_numeric("$1,200.50") == 1200.50

    def test_bool(self):
        assert coerce_numeric(True) == 1.0

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            coerce_numeric("not a number")

    def test_none_raises(self):
        with pytest.raises(TypeError):
            coerce_numeric(None)


class TestPaths:
    CONTENT = {
        "order": {
            "id": 7,
            "items": [
                {"sku": "A", "qty": 1},
                {"sku": "B", "qty": 2},
            ],
            "note": None,
        }
    }

    def test_iter_paths_leaves(self):
        leaves = dict()
        for path, value in iter_paths(self.CONTENT):
            leaves.setdefault(path, []).append(value)
        assert leaves[("order", "id")] == [7]
        assert sorted(leaves[("order", "items", "sku")]) == ["A", "B"]
        assert leaves[("order", "note")] == [None]

    def test_list_elements_share_parent_path(self):
        paths = {p for p, _ in iter_paths(self.CONTENT)}
        assert ("order", "items", "qty") in paths
        # no positional component anywhere
        assert all(all(not k.isdigit() for k in p) for p in paths)

    def test_scalar_root(self):
        assert list(iter_paths(42)) == [((), 42)]

    def test_structure_paths_include_interior(self):
        structure = set(iter_structure_paths(self.CONTENT))
        assert ("order",) in structure
        assert ("order", "items") in structure
        assert ("order", "items", "sku") in structure

    def test_get_path_fanout(self):
        assert sorted(get_path(self.CONTENT, ("order", "items", "sku"))) == ["A", "B"]

    def test_get_path_missing(self):
        assert get_path(self.CONTENT, ("order", "missing")) == []

    def test_get_path_scalar(self):
        assert get_path(self.CONTENT, ("order", "id")) == [7]

    def test_get_path_interior_returns_leaves(self):
        values = get_path(self.CONTENT, ("order", "items"))
        assert sorted(map(str, values)) == ["1", "2", "A", "B"]

    def test_path_string_round_trip(self):
        path = ("claim", "vehicle", "damage")
        assert string_to_path(path_to_string(path)) == path

    def test_path_to_string_format(self):
        assert path_to_string(("a", "b")) == "/a/b"

    def test_string_to_path_empty(self):
        assert string_to_path("/") == ()
        assert string_to_path("") == ()


class TestExtractText:
    def test_extracts_prose_and_strings(self):
        content = {"doc": {"title": "hello", "n": 5}}
        assert "hello" in extract_text(content)

    def test_skips_numbers(self):
        content = {"doc": {"amount": 12.5, "note": "check this"}}
        text = extract_text(content)
        assert "check this" in text
        assert "12.5" not in text

    def test_empty_content(self):
        assert extract_text({}) == ""
