"""The CLI's JSON writer prints exactly what `json.dumps(obj, indent=2,
sort_keys=True)` prints, and refuses every other type.  It writes a list a
record at a time through a template taken from the list's first record;
records of another shape fall back to the general path, and both paths are
checked here."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opr.jsonout import write_json


class Label(str):
    """A `str` subclass, which `json` would print as a plain string."""


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf])
    # every code point, control characters and lone surrogates included
    | st.text(st.characters(exclude_categories=()))
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(st.characters(exclude_categories=())), children)
    ),
    max_leaves=60,
)


_KEYS = st.text(st.characters(exclude_categories=()), max_size=3) | st.sampled_from(
    ["%", "%s", "%(a)s", "100%%", "\u00e9t\u00e9", "\u65e5\u672c", "\u2028"]
)
_RECORDS = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
    ),
    max_leaves=12,
).filter(lambda r: type(r) in (dict, list) and r)


def _is_scalar(v):
    return type(v) not in (dict, list, tuple)


def _positions(o, path=()):
    """Every (path, value) of `o`, the root first."""
    yield path, o
    if not _is_scalar(o):
        for k, v in (o.items() if type(o) is dict else enumerate(o)):
            yield from _positions(v, path + (k,))


def _replaced(o, path, new):
    """A copy of `o` with the value at `path` replaced by `new`."""
    if not path:
        return new
    k, rest = path[0], path[1:]
    if type(o) is dict:
        return {**o, k: _replaced(o[k], rest, new)}
    items = list(o)
    items[k] = _replaced(o[k], rest, new)
    return type(o)(items)


def _without_a_key(v, draw):
    if type(v) is dict and v:
        gone = draw(st.sampled_from(sorted(v)))
        return {k: x for k, x in v.items() if k != gone}


def _with_a_key_renamed(v, draw):
    if type(v) is dict and v:
        old, new = draw(st.sampled_from(sorted(v))), draw(_KEYS.filter(lambda k: k not in v))
        return {(new if k == old else k): x for k, x in v.items()}


def _with_an_extra_key(v, draw):
    if type(v) is dict:
        return {**v, draw(_KEYS.filter(lambda k: k not in v)): draw(_LEAVES)}


#: each takes a value of the first record and the draw, and returns what a
#: later record holds there instead, or None where it does not apply
_MUTATIONS = {
    "same shape, another scalar": lambda v, draw: draw(_LEAVES) if _is_scalar(v) else None,
    "a key missing": _without_a_key,
    "a key renamed": _with_a_key_renamed,
    "an extra key": _with_an_extra_key,
    "a bool in a scalar slot": lambda v, draw: draw(st.booleans()) if _is_scalar(v) else None,
    "a tuple where the first had a list": lambda v, draw: tuple(v) if type(v) is list else None,
    "an empty dict": lambda v, draw: {},
    "NaN or an infinity": lambda v, draw: draw(st.sampled_from([math.nan, math.inf, -math.inf])),
}


@st.composite
def _record_lists(draw):
    """Two or more records: the first drawn, each later one a copy of the
    first with at most one mutation, so most share its shape and some
    break it."""
    first = draw(_RECORDS)
    records = [first]
    for _ in range(draw(st.integers(1, 4))):
        path, value = draw(st.sampled_from(list(_positions(first))))
        mutation = draw(st.sampled_from(sorted(_MUTATIONS)))
        new = _MUTATIONS[mutation](value, draw)
        records.append(first if new is None else _replaced(first, path, new))
    # a list at each streamed level, and one below them
    wrap = draw(st.sampled_from([
        lambda rs: rs,
        lambda rs: {"config": {"k": 8}, "trials": rs},
        lambda rs: {"cdf": {"dtpr": rs, "%": rs}},
        lambda rs: {"a": {"b": {"c": rs}}},
    ]))
    return wrap(records)


def _written(obj):
    chunks = []
    write_json(obj, chunks.append)
    return chunks


class TestJsonWriter:
    @given(_TREES)
    def test_matches_indented_sorted_json_dumps(self, obj):
        assert "".join(_written(obj)) == json.dumps(obj, indent=2, sort_keys=True)

    @given(_record_lists())
    # one list per way a later record can break the first one's shape
    @example({"trials": [{"a": 1, "b": 2}, {"a": 1}]})
    @example({"trials": [{"a": 1}, {"a": 1, "b": 2}]})
    @example({"trials": [{"a": 1, "b": {"c": 2}}, {"a": 1, "d": {"c": 2}}]})
    @example({"trials": [{"n": 3, "s": "x"}, {"n": True, "s": None}]})
    @example({"cdf": {"x": [[1.5, 0.5], (2.5, 1.0), [3.5, [1.0]]]}})
    @example({"trials": [{"a": {"b": 1}}, {"a": {}}, {"a": []}]})
    @example({"trials": [{"r": 1.5}, {"r": math.nan}, {"r": math.inf}, {"r": -math.inf}]})
    @example([{"%s": 1, "%": [2], "\u00e9": -0.0}, {"%s": 10**30, "%": [5e-324], "\u00e9": 1e16}])
    def test_record_lists_of_shared_and_broken_shapes(self, obj):
        assert "".join(_written(obj)) == json.dumps(obj, indent=2, sort_keys=True)

    def test_same_shape_records_take_one_write_each(self):
        def writes(trials):
            record = {"algs": {"dtpr": {"ratio": 1.5, "switches": 2}}, "tags": [None, "%s"],
                      "trial": 7}
            return _written({"cdf": {"dtpr": [[1.25, 0.5]] * trials}, "trials": [record] * trials})

        counts = {n: len(writes(n)) - 2 * n for n in (2, 10, 1000)}
        assert len(set(counts.values())) == 1, counts

    def test_empty_containers_and_nesting(self):
        obj = {"a": {}, "b": [], "c": (), "d": [[], {}, [1, [2.5, {"e": None}]]]}
        assert "".join(_written(obj)) == json.dumps(obj, indent=2, sort_keys=True)

    def test_largest_write_does_not_grow_with_the_trial_count(self):
        def largest_write(trials):
            record = {"algs": {"dtpr": {"ratio": 1.5, "switches": 2}}, "trial": 7}
            result = {"cdf": {"dtpr": [[1.25, 0.5]] * trials}, "trials": [record] * trials}
            return max(map(len, _written(result)))

        assert largest_write(1000) == largest_write(2)

    @pytest.mark.parametrize(
        "obj, name",
        [
            ({1, 2}, "set"),
            ({"a": [b"x"]}, "bytes"),
            ({"a": {"b": [np.float64(1.5)]}}, "float64"),
            (np.float64(1.5), "float64"),
            ({"a": [{"b": np.int64(3)}]}, "int64"),
            ({1: "a"}, "int"),
            ({"a": {"b": {(1,): 2}}}, "tuple"),
            ({Label("a"): 1}, "Label"),
            ({"a": [Label("b")]}, "Label"),
            # record 0 is clean, so record 1 is checked against its template
            ({"trials": [{"r": 1.5}, {"r": np.float64(1.5)}]}, "float64"),
            ({"cdf": {"x": [[1.5, 0.5], [1.5, np.float64(1.0)]]}}, "float64"),
            ({"trials": [{"a": {"s": 1}}, {"a": {"s": np.int64(1)}}]}, "int64"),
            ({"trials": [{"a": "x"}, {"a": Label("x")}]}, "Label"),
            ({"trials": [{"a": 1}, {Label("a"): 1}]}, "Label"),
            ({"trials": [{"a": {"b": 1}}, {"a": {1: 1}}]}, "int"),
        ],
        ids=["set-root", "bytes", "float64-deep", "float64-root", "int64", "int-key",
             "tuple-key-deep", "str-subclass-key", "str-subclass-value",
             "later-record-float64", "later-point-float64", "later-record-int64",
             "later-record-str-subclass-value", "later-record-str-subclass-key",
             "later-record-int-key"],
    )
    def test_other_types_raise_type_error_naming_the_type(self, obj, name):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            _written(obj)
