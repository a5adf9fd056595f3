"""Reference ratio residuals, the plain bisection over them, and the scalar
threshold formulas.

`opr.thresholds._solve_ratio` evaluates one inline residual at its bracket
ends and its midpoints.  Its roots and errors must be bit-identical to this
bisection, which calls the printed equations' residuals as functions
(``tests/test_golden.py``); ``tests/test_thresholds.py`` checks the sign
structure of the same residuals.  `opr.thresholds.dtpr_rails` must give
`min_upper_threshold` and the negated `max_lower_threshold` (its signed
stay rails) bit for bit at every unit.
"""

import math

from opr.core import Variant
from opr.errors import RegimeError


def min_residual(a, k, U, L, beta):
    """Pole-free residual of the min-ratio equation; positive below the root."""
    lhs = U * (1 - 1 / a) - 2 * beta * (1 - 1 / k) - 2 * beta / (k * a)
    return (U - L - 2 * beta) - lhs * (1 + 1 / (k * a)) ** k


def max_residual(w, k, U, L, beta):
    """Residual of the max-ratio equation; positive below the root."""
    lhs = L * (w - 1) - 2 * beta * (1 - 1 / k) - 2 * beta * w / k
    try:
        growth = (1 + w / k) ** k
    except OverflowError:
        # the power is past 1.8e308 and U - L - 2b is finite and positive,
        # so the product decides the sign
        return -math.inf if lhs > 0 else math.inf
    return (U - L - 2 * beta) - lhs * growth


def bisect_ratio(residual):
    lo = 1.0 + 1e-12
    if residual(lo) <= 0:
        raise RegimeError("no root above 1")
    hi = 2.0
    doublings = 0
    while residual(hi) > 0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise RegimeError("bracket did not close")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid


def solve(variant, k, U, L, beta):
    """The reference root; in-regime parameters only, no regime checks."""
    residual = min_residual if variant is Variant.MIN else max_residual
    return bisect_ratio(lambda x: residual(x, k, U, L, beta))


def min_upper_threshold(i: int, k: int, U: float, L: float, beta: float, alpha: float) -> float:
    """Stay threshold u_i for the min variant, valid for i in [1, k+1].

    Evaluated in the form anchored at the extended index k+1, where the
    construction forces u_{k+1} = L + 2b; this is algebraically identical to
    the direct closed form at the exact root but avoids the catastrophic
    cancellation the direct coefficient suffers when the growth factor is
    large.  i = k+1 is for diagnostics/tests only and is never stored.
    """
    r = 1 + 1 / (k * alpha)
    return U - (U - L - 2 * beta) * r ** (i - 1 - k)


def max_lower_threshold(i: int, k: int, U: float, L: float, beta: float, omega: float) -> float:
    """Resume threshold l_i for the max variant, valid for i in [1, k+1];
    anchored at l_{k+1} = U - 2b (same stability rationale as the min side)."""
    rho = 1 + omega / k
    return L + (U - L - 2 * beta) * rho ** (i - 1 - k)
