"""The CLI's JSON writer prints exactly what `json.dumps(obj, indent=2,
sort_keys=True)` prints, streamed, and refuses every other type."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
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


def _written(obj):
    chunks = []
    write_json(obj, chunks.append)
    return chunks


class TestJsonWriter:
    @given(_TREES)
    def test_matches_indented_sorted_json_dumps(self, obj):
        assert "".join(_written(obj)) == json.dumps(obj, indent=2, sort_keys=True)

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
        ],
        ids=["set-root", "bytes", "float64-deep", "float64-root", "int64", "int-key",
             "tuple-key-deep", "str-subclass-key", "str-subclass-value"],
    )
    def test_other_types_raise_type_error_naming_the_type(self, obj, name):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            _written(obj)
