"""The CLI's JSON writer against `json.dumps(indent=2)`.

`cli._json_text` writes dict trees recursively, as json does, and a 2-D
complex ndarray (the S-matrix) as its rows of {"re", "im"} dicts, formatting
each distinct float of a finite matrix once.  Both must give json's bytes:
the trees below mix the floats json spells specially (NaN, +-Infinity,
-0.0, the smallest subnormal, the switch to exponent notation at 1e16 and
1e-7), numpy float64 values, keys that need escaping or contain `%`, empty
containers, bools next to ints, and rows of same-key dicts with one value
of another type; the arrays take their parts from the same floats, at
shapes up to 4 x 4 and depths up to 3.  A matrix holding both 0.0 and
-0.0 must print both, which a memo keyed on the float value (the two
compare and hash alike) would not.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfusion.cli import _json_text

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
def test_rows_of_dicts_equal_json_dumps(row):
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


def complex_array(re, im) -> np.ndarray:
    """A complex matrix with exactly these parts (re + 1j * im would turn
    -0.0 parts and infinite products into other values)."""
    m = np.empty(np.shape(re), dtype=complex)
    m.real, m.imag = re, im
    return m


def as_rows(tree):
    """`tree` with each complex matrix as the rows of dicts json would write."""
    if isinstance(tree, np.ndarray):
        return [[{"re": z.real, "im": z.imag} for z in row] for row in tree.tolist()]
    if isinstance(tree, dict):
        return {key: as_rows(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [as_rows(x) for x in tree]
    return tree


@st.composite
def complex_arrays(draw):
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    finite = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7]),
                       st.floats(allow_nan=False, allow_infinity=False))
    values = draw(st.sampled_from([floats, finite]))  # half all finite, so that the memoised path runs often
    n = shape[0] * shape[1]
    re, im = (np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float).reshape(shape) for _ in range(2))
    return complex_array(re, im)


@st.composite
def nested(draw, inner):
    """`inner` under 0 to 3 levels of dicts and lists, next to other values."""
    tree = draw(inner)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            tree = {draw(keys): tree, "orbits": draw(st.lists(st.text(max_size=4), max_size=2))}
        else:
            tree = [draw(leaves), tree, []]
    return tree


@settings(max_examples=500, deadline=None)
@given(nested(st.one_of(complex_arrays(), st.lists(complex_arrays(), min_size=2, max_size=3))))
def test_complex_arrays_equal_json_dumps_of_their_rows(tree):
    assert _json_text(tree) == json.dumps(as_rows(tree), indent=2)


def test_both_zeros_keep_their_sign_in_one_array():
    m = complex_array([[0.0, -0.0], [-0.0, 0.0]], [[-0.0, 0.0], [0.0, 0.0]])
    text = _json_text({"entries": m})
    assert text == json.dumps({"entries": as_rows(m)}, indent=2)
    assert text.count("-0.0") == 3 and text.count(" 0.0") == 5


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 5), (3, 1)])
def test_one_row_and_one_column_arrays(shape):
    n = shape[0] * shape[1]
    m = complex_array(np.linspace(-1, 1, n).reshape(shape), np.full(shape, 0.1))
    for tree in (m, {"entries": m}, [[m]]):
        assert _json_text(tree) == json.dumps(as_rows(tree), indent=2)


@pytest.mark.parametrize(
    "array",
    [
        np.zeros((2, 2)),
        np.zeros((2, 2), dtype=int),
        np.zeros(3, dtype=complex),
        np.zeros((), dtype=complex),
        np.zeros((2, 2, 2), dtype=complex),
        np.zeros((2, 2), dtype=np.complex64),
        np.array([["a"]]),
    ],
    ids=["float", "int", "1-d", "0-d", "3-d", "complex64", "str"],
)
def test_other_arrays_raise_as_json_does(array):
    with pytest.raises(TypeError) as ours:
        _json_text({"a": [array]})
    with pytest.raises(TypeError) as theirs:
        json.dumps({"a": [array]}, indent=2)
    assert str(ours.value) == str(theirs.value)
