"""The README's library example runs as printed.

Its fenced ``python`` block imports public names of ``opr``, so deleting or
renaming one without updating the README fails here.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_a_ratio_within_alpha():
    [block] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    ratio, sep, alpha = out.getvalue().split()
    assert sep == "<="
    assert 1 <= float(ratio) <= float(alpha)
