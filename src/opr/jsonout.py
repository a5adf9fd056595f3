"""The CLI's one JSON writer, for `results.json` and `opr solve --json`.

`write_json` writes exactly the text of
`json.dumps(obj, indent=2, sort_keys=True)`.  With an indent, `json` always
runs its pure-Python encoder, one generator step per token; this module
streams the same text a record at a time, so the file is never held whole
in memory.  A list's items go out through a `%` template made from its
first item, one write each; an item of another shape goes value by value.
"""

from __future__ import annotations

import json

_INF = float("inf")
_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_CONTAINERS = (dict, list, tuple)


def write_json(obj, write) -> None:
    """Write `obj` through `write` as `json.dumps(obj, indent=2,
    sort_keys=True)` would print it.

    Containers (`dict`, `list`, `tuple`) in the top three levels go out an
    item at a time.  A list item of its first item's shape, or a value below
    those levels, is built as one string: in `results.json` one trial
    record or one CDF point, so the text held at once stays about a
    kilobyte however many trials ran.  Keys must be `str`; any type other
    than those `json` prints by default, a subclass such as `numpy.float64`
    included, raises `TypeError` naming it.
    """
    _stream(obj, write, "\n", 3)


def _stream(o, write, nl: str, levels: int) -> None:
    t = type(o)
    if not (levels and t in _CONTAINERS and o):
        write(_text(o, nl))
        return
    inner = nl + "  "
    if t is dict:
        items = ((_key(k) + ": ", v) for k, v in sorted(o.items()))
        sep, close, shape = "{", "}", None
    else:
        items = (("", v) for v in o)
        sep, close = "[", "]"
        template, shape = _template(o[0], inner)
    for head, value in items:
        slots = []
        if shape and _fill(value, shape, slots):
            write(sep + inner + template % tuple(slots))
        else:
            write(sep + inner + head)
            _stream(value, write, inner, levels - 1)
        sep = ","
    write(nl + close)


def _template(o, nl: str):
    """`o`'s text at line prefix `nl` with a `%s` slot per scalar, and its
    shape: None for a scalar, else (type, keys or indices, their shapes).
    A dict's keys are a dict, in sorted order."""
    t = type(o)
    if t not in _CONTAINERS:
        return "%s", None
    keys = dict.fromkeys(sorted(o)) if t is dict else range(len(o))
    inner = nl + "  "
    parts = [_template(o[k], inner) for k in keys]
    heads = [_key(k).replace("%", "%%") + ": " if t is dict else "" for k in keys]
    body = ("," + inner).join([h + p for h, (p, _) in zip(heads, parts)])
    opening, closing = "{}" if t is dict else "[]"
    text = opening + inner + body + nl + closing if o else opening + closing
    return text, (t, keys, [s for _, s in parts])


def _fill(o, shape, slots: list) -> bool:
    """Append each scalar of `o` to `slots`, or return False if `o` differs
    from `shape` in a container's exact type, length or keys.  `%s` prints
    an exact int or a finite float as its repr, so those go in as they are."""
    t, keys, kids = shape
    if type(o) is not t or len(o) != len(kids):
        return False
    if t is dict:
        for k in o:
            if type(k) is not str or k not in keys:
                return False
        o = map(o.__getitem__, keys)
    for v, kid in zip(o, kids):
        if kid is None and type(v) not in _CONTAINERS:
            raw = type(v) is int or type(v) is float and -_INF < v < _INF
            slots.append(v if raw else _text(v, ""))
        elif kid is None or not _fill(v, kid, slots):
            return False
    return True


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
