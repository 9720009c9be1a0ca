"""``Document.text`` reads the cached projection and equals the direct
walk of ``tests/oracle/text.py`` over hostile leaves."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.model.projection as projection_module
from repro.model.converters import from_text
from repro.model.document import Document
from repro.model.projection import projection_of
from repro.model.values import TEXT_LENGTH_THRESHOLD
from repro.storage.store import DocumentStore
from tests.oracle.text import extract_text

_AROUND_THRESHOLD = (TEXT_LENGTH_THRESHOLD - 1, TEXT_LENGTH_THRESHOLD, TEXT_LENGTH_THRESHOLD + 1)


def _sized(alphabet):
    return st.sampled_from(_AROUND_THRESHOLD).flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n)
    )


strings = st.one_of(
    st.sampled_from(["", " ", "\t", "\n", "  \n\t "]),
    st.text(alphabet=st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF), max_size=6),
    _sized("ab"),
    _sized("a b"),
    _sized(" "),
    st.sampled_from([
        "2007-01-10", " 2007-01-10 15:30 ", "2007-01-10T15:30:00",
        "$1,234.56", "€99", "£ 5", "$", "555-123-4567", "+1 (555) 123-4567",
        "(555) 123-4567", "12345", "-0.0", "1e5", ".5", "NaN",
        "one two three four five six seven words of prose",
    ]),
    st.text(max_size=60),
)
scalars = st.one_of(
    strings,
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), 2**70]),
    st.none(),
)
contents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(contents)
@example({"a": [[""], {"b": "x" * TEXT_LENGTH_THRESHOLD}], "c": -0.0})
@example(["2007-01-10", "$5", "555-123-4567", True, 0, float("nan"), None])
@example("\U0001F600 astral prose")
def test_text_is_the_reference_walk(content):
    document = Document("d", content)
    assert document.text == extract_text(document.content)


def _no_walk(_content):
    raise AssertionError("the content tree was walked a second time")


def test_stamped_store_copy_answers_text_without_a_second_walk(monkeypatch):
    store = DocumentStore()
    document = from_text("t1", "Ms. Alice Johnson called about a refund of $40.00",
                         title="refund call")
    expected = projection_of(document).text  # the ingest validate stage
    assert "\n" in expected  # two leaves: a rebuilt join is a new string
    stored = store.put(document)
    assert stored is not document and stored.ingest_ts
    monkeypatch.setattr(projection_module, "_project_content", _no_walk)
    # The very string the projection holds: read, not rebuilt.
    assert stored.text is expected
    assert store.get("t1").text is expected


def test_text_walks_a_fresh_document_once(monkeypatch):
    calls = []
    real = projection_module._project_content

    def counting(content):
        calls.append(content)
        return real(content)

    monkeypatch.setattr(projection_module, "_project_content", counting)
    document = Document("d", {"note": "first", "more": ["second", 3]})
    assert document.text == "first\nsecond"
    assert document.text == "first\nsecond"
    assert len(calls) == 1
