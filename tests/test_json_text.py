"""The CLI's JSON writer against `json.dumps(indent=2)`.

`cli._json_text` renders a list of same-key dicts of finite floats (an
S-matrix row) with one string format and everything else recursively.
Both paths must give json's bytes: the trees below mix the floats json
spells specially (NaN, +-Infinity, -0.0, the smallest subnormal, the
switch to exponent notation at 1e16 and 1e-7), numpy float64 values,
keys that need escaping or contain the format's `%`, empty containers,
bools next to ints, and bulk-shaped rows with one value of another type.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion.cli import _bulk_text, _json_text

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-7, 1.0000000000000001e-05,
                  math.nan, math.inf, -math.inf, 1.7976931348623157e308, 0.1, -2.5]
SPECIAL_KEYS = ["", "%", "%s", "%%", "%(re)s", '"', "\\", "re", "im", "é", "日本", "\x00", "\n", "\x1f",
                " ", "\ud800", "😀"]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
numpy_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()).map(np.float64)
keys = st.one_of(st.sampled_from(SPECIAL_KEYS), st.text(max_size=6))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, -1, True, False, 2**70]),
    floats,
    numpy_floats,
    st.text(max_size=8),
    st.sampled_from(SPECIAL_KEYS),
)
odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    numpy_floats,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.just([1.5]),
)


@st.composite
def rows(draw, odd: bool):
    """A list of dicts with the same keys and float values; with `odd`, one
    value is replaced by another type, a non-finite float, or one item has
    its keys in another order, drops a key or is not a dict."""
    names = draw(st.lists(keys, min_size=1, max_size=3, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7]), finite)
    items = [{name: draw(values) for name in names} for _ in range(draw(st.integers(1, 5)))]
    if odd:
        i = draw(st.integers(0, len(items) - 1))
        how = draw(st.sampled_from(["value", "reorder", "drop", "not-a-dict"]))
        if how == "value" or (how == "reorder" and len(names) == 1):
            items[i][draw(st.sampled_from(names))] = draw(odd_values)
        elif how == "reorder":
            items[i] = dict(reversed(list(items[i].items())))
        elif how == "drop":
            del items[i][names[0]]
        else:
            items[i] = draw(leaves)
    return items


trees = st.recursive(
    st.one_of(leaves, rows(odd=False), rows(odd=True)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_equals_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.one_of(rows(odd=False), rows(odd=True)), st.integers(0, 3))
def test_rows_equal_json_dumps_at_any_depth(row, depth):
    tree = row
    for _ in range(depth):
        tree = {"entries": [tree, []]}
    assert _json_text(tree) == json.dumps(tree, indent=2)


@settings(max_examples=200, deadline=None)
@given(rows(odd=False))
def test_same_key_rows_of_finite_floats_take_the_bulk_path(row):
    assert _bulk_text(row, 0) == json.dumps(row, indent=2)


@pytest.mark.parametrize(
    "row",
    [
        [{"re": 1.0, "im": np.float64(2.0)}],
        [{"re": 1.0, "im": math.nan}],
        [{"re": 1.0, "im": 2}],
        [{"re": 1.0, "im": True}],
        [{"re": 1.0, "im": 2.0}, {"im": 2.0, "re": 1.0}],
        [{"re": 1.0}, {"re": 1.0, "im": 2.0}],
        [{}, {}],
        [{"re": 1.0}, [1.0]],
    ],
)
def test_other_rows_leave_the_bulk_path(row):
    assert _bulk_text(row, 0) is None
    assert _json_text(row) == json.dumps(row, indent=2)


def test_signed_zeros_keep_their_sign_in_one_row():
    row = [{"re": 0.0, "im": -0.0}, {"re": -0.0, "im": 0.0}]
    assert _json_text(row) == json.dumps(row, indent=2)
    assert _json_text(row).count("-0.0") == 2


@pytest.mark.parametrize(
    "tree",
    [
        {1: 2.0},
        {None: 1},
        {"a": [{(1, 2): 3}]},
        [{"re": 1.0}, {1.5: 1.0}],
        [{1.5: 1.0}, {1.5: 2.0}],
    ],
    ids=["int", "none", "nested-tuple", "in-a-row", "row-of-float-keys"],
)
def test_a_key_that_is_not_a_string_raises(tree):
    with pytest.raises(TypeError):
        _json_text(tree)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), 1j, b"bytes"])
def test_an_unserialisable_value_raises_as_json_does(value):
    with pytest.raises(TypeError) as ours:
        _json_text({"a": [value]})
    with pytest.raises(TypeError) as theirs:
        json.dumps({"a": [value]}, indent=2)
    assert str(ours.value) == str(theirs.value)
