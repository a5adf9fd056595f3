"""The CLI's one JSON writer, for `results.json` and `opr solve --json`.

`write_json` writes exactly the text of
`json.dumps(obj, indent=2, sort_keys=True)`.  With an indent, `json` always
runs its pure-Python encoder, one generator step per token; this module
builds the same text with one call per value and streams it, so the file
is never held whole in memory.
"""

from __future__ import annotations

import json

_INF = float("inf")
_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__


def write_json(obj, write) -> None:
    """Write `obj` through `write` as `json.dumps(obj, indent=2,
    sort_keys=True)` would print it.

    Containers (`dict`, `list`, `tuple`) in the top three levels go out an
    item at a time; only a value below them is built as one string.  In
    `results.json` that is one field of one trial record, or one CDF point,
    so the text held at once stays a few hundred bytes however many trials
    ran.  Keys must be `str`; any type other than those `json` prints by
    default, a subclass such as `numpy.float64` included, raises
    `TypeError` naming it.
    """
    _stream(obj, write, "\n", 3)


def _stream(o, write, nl: str, levels: int) -> None:
    t = type(o)
    if not (levels and (t is dict or t is list or t is tuple) and o):
        write(_text(o, nl))
        return
    inner = nl + "  "
    if t is dict:
        items = ((_key(k) + ": ", v) for k, v in sorted(o.items()))
        sep, close = "{", "}"
    else:
        items = (("", v) for v in o)
        sep, close = "[", "]"
    for head, value in items:
        write(sep + inner + head)
        _stream(value, write, inner, levels - 1)
        sep = ","
    write(nl + close)


def _key(key) -> str:
    if type(key) is not str:
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode_str(key)


def _text(o, nl: str) -> str:
    """`o` as one string, at the nesting whose line prefix is `nl` (a
    newline and that level's indent).  Types are matched exactly."""
    t = type(o)
    if t is float:
        if -_INF < o < _INF:
            return _float_repr(o)
        return "NaN" if o != o else ("Infinity" if o > 0 else "-Infinity")
    if t is str:
        return _encode_str(o)
    if t is bool:
        return "true" if o else "false"
    if t is int:
        return _int_repr(o)
    if o is None:
        return "null"
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        items = [_key(k) + ": " + _text(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in o]) + nl + "]"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
