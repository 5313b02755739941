import json
import math
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellmax import reporting
from bellmax.reporting import format_float


# The serialiser before report rows were written from a template, kept verbatim
# as the reference: every payload must give the same bytes, or the same error.
def _emit(value: Any, level: int, out: list[str]) -> None:
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (dict, list, tuple)):
        # One layout for both containers; an object's items lead with a key.
        keyed = isinstance(value, dict)
        items = ([(json.dumps(str(key)) + ": ", item) for key, item in value.items()]
                 if keyed else [("", item) for item in value])
        brackets = "{}" if keyed else "[]"
        if not items:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for index, (key, item) in enumerate(items):
            out.append("  " * (level + 1) + key)
            _emit(item, level + 1, out)
            out.append(",\n" if index < len(items) - 1 else "\n")
        out.append("  " * level + brackets[1])
    else:
        raise TypeError(f"cannot serialise {type(value).__name__} into a report")


def reference_to_json(payload):
    pieces = []
    _emit(payload, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def outcome(to_json, payload):
    """The text ``to_json`` writes, or the type and message of the error it raises."""
    try:
        return to_json(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


EDGE_FLOATS = [-0.0, 0.0, 1e-300, 5e-324, 0.1 + 0.2, 1.2345678901234567e-5,
               2.8284271247461903, 1.7976931348623157e308, -1e16]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats,
    st.text(),  # quotes, backslashes, control characters and non-ASCII need escaping
    st.sampled_from(["closed_form", 'say "hi"\\', "tab\t\n", "é \U0001f600", "%s%%"]),
    floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
#: Values no report may hold; the first in document order decides the error.
unwritable = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                              np.float32("inf"), {1, 2}, b"bytes", 1j])
keys = st.text(max_size=6) | st.sampled_from(["value", "%s", "a%d", "k"])


@st.composite
def same_key_rows(draw, values):
    """A list of flat dicts that share one key tuple."""
    names = draw(st.lists(keys, unique=True, max_size=6))
    return draw(st.lists(st.fixed_dictionaries({name: values for name in names}),
                         max_size=6))


def payloads(values):
    rows = same_key_rows(values) | st.lists(st.dictionaries(keys, values, max_size=4),
                                            max_size=4)
    return st.recursive(
        values | rows,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(keys, children, max_size=4)),
        max_leaves=30,
    )


@settings(max_examples=400, deadline=None)
@given(payloads(scalars))
@example([{"value": -0.0, "k": 1, "ok": True}, {"value": 1e-300, "k": 2, "ok": False}])
@example([{"a": 1}, {"a": True}, {"a": 1.0}, {"a": None}])  # one column, mixed kinds
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])  # same keys, another order
@example([{1: 2}, {1: 3}])  # keys that are not strings
@example([{"a": [1.5, -0.0]}, {"a": 2}])  # a nested list in a row
@example({"rows": [{"x": np.float64(0.5), "n": np.int64(3)}] * 3, "empty": [[], {}]})
@example([{"a": [1.5, {"b": [{"c": 1}, {"c": 2}]}], "k": 1}, {"a": {}, "k": 2}])  # containers
@example([{"a": [2.5], "k": 1}, {"a": 0.5, "k": 2}, {"a": (), "k": 3}])  # containers and scalars
def test_to_json_writes_the_reference_bytes(payload):
    assert reporting.to_json(payload) == reference_to_json(payload)


@settings(max_examples=300, deadline=None)
@given(payloads(scalars | unwritable))
@example([{"a": 1.0, "b": math.nan}, {"a": math.inf, "b": 1.0}])  # nan comes first
@example([{"a": [math.nan], "b": {1}}])  # the nested nan comes before the set
@example([{"a": {1}, "b": math.inf}])
@example([{"a": {1}, "b": [math.nan]}, {"a": 1.0, "b": []}])  # a set, then a nested nan
@example([{"a": 1.0, "b": [math.nan]}, {"a": {1}, "b": []}])  # the nested nan before the set
@example([{"a": np.longdouble(0.5)}])  # item() keeps an extended precision float
def test_to_json_raises_the_reference_error(payload):
    assert outcome(reporting.to_json, payload) == outcome(reference_to_json, payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("-inf")])
def test_non_finite_row_value_is_refused(value):
    rows = [{"value": 1.0, "k": 1}, {"value": value, "k": 2}]
    with pytest.raises(ValueError, match="reports cannot contain non-finite numbers"):
        reporting.to_json({"results": rows})


def test_each_value_is_formatted_once(monkeypatch):
    # A float column before a list-valued one: the table writes each float once, the
    # nested ones through the same writer, and never walks the list a second time.
    calls = []
    monkeypatch.setitem(reporting._WRITERS, float,
                        lambda value: calls.append(value) or format_float(value))
    payload = [{"b": 2.0, "a": [1.5]}, {"b": 3.0, "a": []}]
    assert reporting.to_json(payload) == reference_to_json(payload)
    assert sorted(calls) == [1.5, 2.0, 3.0]
