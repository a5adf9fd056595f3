"""The README's library example runs as printed, and its known gap holds.

Its fenced ``python`` block imports public names of ``opr``, so deleting or
renaming one without updating the README fails here.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from opr import (
    Instance, PlayerKind, Variant, adversary_min, dp_optimal, dtpr_min_thresholds,
    evaluate_schedule, run_online,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_a_ratio_within_alpha():
    [block] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    ratio, sep, alpha = out.getvalue().split()
    assert sep == "<="
    assert 1 <= float(ratio) <= float(alpha)


def test_known_gap_dtpr_min_exceeds_alpha_on_theorys_cell():
    k, U, L, beta = 40, 30.0, 5.0, 3.0
    family = dtpr_min_thresholds(k, U, L, beta)
    prices = ([L] * 7 + [math.nextafter(family.upper[7], math.inf)]
              + [math.nextafter(family.lower[7], math.inf)] * 33 + [U] * 33)
    inst = Instance(k=k, T=len(prices), L=L, U=U, beta=beta, variant=Variant.MIN,
                    prices=prices)
    alg = evaluate_schedule(inst, run_online(family, inst))
    _, opt = dp_optimal(inst)
    ratio = alg.total / opt.total
    [gap] = re.findall(r"\*\*Known gap\.\*\*(.*?)\n\*", README.read_text(encoding="utf-8"), re.S)
    assert len(prices) == 74 and "74 prices" in gap
    assert f"{ratio:.6f}" == "2.780807" and "gives 2.780807" in gap
    assert f"{family.ratio:.6f}" == "2.769276" and "alpha = 2.769276" in gap
    assert "within 1e-8 of `alpha`" in gap
    assert adversary_min(PlayerKind.DTPR, k, U, L, beta).ratio == pytest.approx(
        family.ratio, rel=0, abs=1e-8)
