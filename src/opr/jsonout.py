"""The CLI's one JSON writer, for `results.json` and `opr solve --json`.

`write_json` writes exactly the text of
`json.dumps(obj, indent=2, sort_keys=True)`.  With an indent, `json` always
runs its pure-Python encoder, one generator step per token; this module
streams the same text a block of list items at a time, so the file is never
held whole in memory.  A list's items go out through a `%` template made
from its first item, filled from a block's columns by one `%` and one write;
a block holding an item of another shape or value type goes value by value.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

_INF = float("inf")
_encode_str = json.encoder.encode_basestring_ascii
_CONTAINERS = (dict, list, tuple)
#: list items per block: the text held at once is about 32 trial records
_BLOCK = 32


def write_json(obj, write) -> None:
    """Write `obj` through `write` as `json.dumps(obj, indent=2,
    sort_keys=True)` would print it.

    Containers (`dict`, `list`, `tuple`) go out an item at a time, but a
    list's items a block of up to `_BLOCK` at a time: in `results.json` a
    block of trial records or CDF points is one string, so the text held at
    once does not grow with the trials.  Keys must be `str`; any type other
    than those `json` prints by default, a subclass such as `numpy.float64`
    included, raises `TypeError` naming it.
    """
    _stream(obj, write, "\n")


def _stream(o, write, nl: str) -> None:
    t = type(o)
    if not (t in _CONTAINERS and o):
        write(_text(o))
        return
    inner, sep = nl + "  ", "{" if t is dict else "["
    if t is dict:
        for k, v in sorted(o.items()):
            write(sep + inner + _key(k) + ": ")
            _stream(v, write, inner)
            sep = ","
        write(nl + "}")
        return
    template, shape = _template(o[0], inner)
    for start in range(0, len(o), _BLOCK):
        block, cols = o[start:start + _BLOCK], []
        if _columns(block, shape, cols):
            text = sep + inner + template + ("," + inner + template) * (len(block) - 1)
            write(text % tuple(chain.from_iterable(zip(*cols))))
        else:
            for value in block:
                write(sep + inner)
                _stream(value, write, inner)
                sep = ","
        sep = ","
    write(nl + "]")


def _template(o, nl: str):
    """`o`'s text at line prefix `nl` with a `%s` slot per scalar, and its
    shape: None for a scalar, else (type, sorted keys or indices, their
    shapes)."""
    t = type(o)
    if t not in _CONTAINERS:
        return "%s", None
    keys = sorted(o) if t is dict else range(len(o))
    inner = nl + "  "
    parts = [_template(o[k], inner) for k in keys]
    heads = [_key(k).replace("%", "%%") + ": " if t is dict else "" for k in keys]
    body = ("," + inner).join([h + p for h, (p, _) in zip(heads, parts)])
    opening, closing = "{}" if t is dict else "[]"
    text = opening + inner + body + nl + closing if o else opening + closing
    return text, (t, keys, [s for _, s in parts])


def _columns(values, shape, cols: list) -> bool:
    """Append to `cols` the column of each scalar slot of `values`, in
    template order, as `%s` prints it the way `json` does; or return False
    if a value differs from `shape` in a container's exact type, length or
    keys, or a column is not all exact ints, all finite floats or all bools."""
    if shape is None:
        kinds = set(map(type, values))
        if kinds == {bool}:
            values = list(map(("false", "true").__getitem__, values))
        elif kinds != {int} and not (kinds == {float} and -_INF < sum(values) < _INF):
            return False
        cols.append(values)
        return True
    t, keys, kids = shape
    if set(map(type, values)) != {t} or set(map(len, values)) != {len(kids)}:
        return False
    if t is dict and kids:  # of equal lengths, each holding every key: the same keys
        if set(map(type, chain.from_iterable(values))) != {str}:
            return False
        try:
            values = list(map(itemgetter(*keys), values))
        except KeyError:
            return False
        if len(kids) == 1:  # itemgetter of one key gives the value, not a 1-tuple
            values = zip(values)
    return all(map(_columns, zip(*values), kids, [cols] * len(kids)))


def _key(key) -> str:
    if type(key) is not str:
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode_str(key)


def _text(o) -> str:
    """A scalar or empty container `o` as `json` prints it; types are
    matched exactly."""
    t = type(o)
    if t is int or t is float and -_INF < o < _INF:
        return repr(o)
    if t is float:
        return "NaN" if o != o else ("Infinity" if o > 0 else "-Infinity")
    if t is str:
        return _encode_str(o)
    if t is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    if t in _CONTAINERS:
        return "{}" if t is dict else "[]"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
