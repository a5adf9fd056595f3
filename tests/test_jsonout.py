"""The CLI's JSON writer prints exactly what `json.dumps(obj, indent=2,
sort_keys=True)` prints, and refuses every other type.  It writes a list a
block of records at a time through a template taken from the list's first
record; a block holding a record of another shape or value type falls back
to the general path, and both paths are checked here."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opr.jsonout import _BLOCK, write_json


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


def _break_at(types, new):
    """A break that replaces one value of `types` in a record, at a drawn
    path, with `new(value, draw)`."""
    def brk(record, draw):
        path, value = draw(st.sampled_from(
            [(p, v) for p, v in _positions(record) if type(v) in types]))
        return _replaced(record, path, new(value, draw))
    return brk


def _another_key_set(d, draw):
    """`d` with one key fewer, one more, or one renamed."""
    way = draw(st.sampled_from(["fewer", "more", "renamed"]))
    if way == "more":
        return {**d, "%extra": 0}
    key = draw(st.sampled_from(sorted(d)))
    new = {} if way == "fewer" else {key + "!": d[key]}
    return {**{k: v for k, v in d.items() if k != key}, **new}


def _a_str_subclass_key(d, draw):
    key = draw(st.sampled_from(sorted(d)))
    return {(Label(k) if k == key else k): v for k, v in d.items()}


#: each takes a record of the list's shape and the draw, and returns the
#: record broken one way (every dict of a record has keys)
_BREAKS = {
    "another key set": _break_at((dict,), _another_key_set),
    "the same keys in another order": _break_at((dict,), lambda d, _: dict(reversed(d.items()))),
    "a numpy float64": _break_at((float,), lambda v, _: np.float64(v)),
    "a bool for an int": _break_at((int,), lambda v, draw: draw(st.booleans())),
    "inf or NaN": _break_at((float,), lambda v, draw: draw(
        st.sampled_from([math.inf, -math.inf, math.nan]))),
    "-0.0": _break_at((float,), lambda v, _: -0.0),
    "a str-subclass key": _break_at((dict,), _a_str_subclass_key),
    "an empty nested container": _break_at((dict, list), lambda v, draw: draw(
        st.sampled_from([{}, []]))),
}
#: the breaks the writer refuses, with the type its TypeError names
_RAISES = {"a numpy float64": "float64", "a str-subclass key": "Label"}

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ALG = st.fixed_dictionaries({"clipped": st.booleans(), "ratio": _FINITE,
                              "switches": st.integers(0, 2**70), "total": _FINITE})
#: a record shaped like a results.json trial, and a CDF point in it
_TRIAL = st.fixed_dictionaries({
    "algs": st.fixed_dictionaries({"dtpr": _ALG, "k%s": _ALG}),
    "bounds_widened": st.booleans(), "offset": st.integers(-5, 2**64), "opt_total": _FINITE,
    "point": st.lists(_FINITE, min_size=2, max_size=2),
})


@st.composite
def _long_record_lists(draw):
    """More than two blocks of trial records of one shape, and the CDF list
    of their points, with one record broken at a random index; and the
    break's name."""
    shapes = draw(st.lists(_TRIAL, min_size=1, max_size=3))
    records = [copy.deepcopy(shapes[i % len(shapes)]) for i in range(
        draw(st.integers(2 * _BLOCK + 1, 3 * _BLOCK + 1)))]
    at, broken = draw(st.integers(0, len(records) - 1)), draw(st.sampled_from(sorted(_BREAKS)))
    records[at] = _BREAKS[broken](records[at], draw)
    points = [r["point"] for r in records if type(r) is dict and "point" in r]
    return {"cdf": {"dtpr": points}, "trials": records}, broken


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

    @given(_long_record_lists())
    @settings(max_examples=150, deadline=None)
    # in the third block: a key renamed, and an empty list where the others have {}
    @example(({"trials": [{"a": 1.5, "b": 2}] * 2 * _BLOCK + [{"a": 1.5, "c": 2}]}, "renamed"))
    @example(({"trials": [{"a": {}, "b": 2}] * 2 * _BLOCK + [{"a": [], "b": 2}]}, "a list"))
    def test_a_broken_record_in_a_long_list(self, case):
        obj, broken = case
        if broken in _RAISES:
            with pytest.raises(TypeError, match=rf"\b{_RAISES[broken]}\b"):
                _written(obj)
        else:
            assert "".join(_written(obj)) == json.dumps(obj, indent=2, sort_keys=True)

    def test_same_shape_records_take_one_write_per_block(self):
        def writes(trials):
            record = {"algs": {"dtpr": {"clipped": False, "ratio": 1.5, "switches": 2}},
                      "pct": [0.25, -0.0], "trial": 7}
            return _written({"cdf": {"dtpr": [[1.25, 0.5]] * trials}, "trials": [record] * trials})

        # the trial list and the CDF list are one write a block each
        counts = {n: len(writes(n)) - 2 * math.ceil(n / _BLOCK)
                  for n in (2, _BLOCK, _BLOCK + 1, 1000)}
        assert len(set(counts.values())) == 1, counts

    def test_empty_containers_and_nesting(self):
        obj = {"a": {}, "b": [], "c": (), "d": [[], {}, [1, [2.5, {"e": None}]]]}
        assert "".join(_written(obj)) == json.dumps(obj, indent=2, sort_keys=True)

    def test_largest_write_does_not_grow_with_the_trial_count(self):
        def largest_write(trials):
            record = {"algs": {"dtpr": {"ratio": 1.5, "switches": 2}}, "trial": 7}
            result = {"cdf": {"dtpr": [[1.25, 0.5]] * trials}, "trials": [record] * trials}
            return max(map(len, _written(result)))

        # the largest write is one block of records, however many trials ran
        assert largest_write(1000) == largest_write(_BLOCK) == _BLOCK * largest_write(1)

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
