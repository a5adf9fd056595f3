"""The public surface of ``opr``: every name ``__all__`` lists resolves."""

import opr


def test_all_names_resolve_once_in_sorted_order():
    names = opr.__all__
    assert [name for name in names if not hasattr(opr, name)] == []
    # sorted and free of repeats, so a deleted or doubled entry shows in a diff
    assert names == sorted(set(names))
