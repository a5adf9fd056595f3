"""Competitive-ratio solvers and double-threshold families.

The min-variant ratio alpha > 1 is the unique positive solution of

    (U - L - 2b) / (U(1 - 1/a) - (2b - 2b/k + 2b/(k a))) = (1 + 1/(k a))^k

and the max-variant ratio omega > 1 solves

    (U - L - 2b) / (L(w - 1) - 2b(1 - 1/k + w/k)) = (1 + w/k)^k.

Both degenerate to the classic k-search ratios at b = 0:

    (1 - 1/theta) / (1 - 1/a) = (1 + 1/(a k))^k        (k-min search)
    (theta - 1) / (w - 1)     = (1 + w/k)^k            (k-max search)

The double-threshold family pairs a resume threshold with a stay threshold
exactly 2b apart: a player already accepting tolerates a slightly worse
price (it would pay to switch away), while an idle player demands a price
good enough to justify switching on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import Variant
from .errors import DomainError, ParameterError, RegimeError


class AsymptoticRegime(Enum):
    """Which asymptotic approximation of the ratio to evaluate."""

    FIXED_K = "fixed-k"  # k held fixed, ratio large
    LARGE_K = "large-k"  # k -> infinity


@dataclass(frozen=True)
class ThresholdFamily:
    """Per-unit acceptance thresholds plus the ratio they were built from.

    ``upper[i] - lower[i] == 2*beta`` for every unit; which of the two rails
    applies at a step depends on the player's previous decision.
    """

    variant: Variant
    k: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    ratio: float

    def __post_init__(self) -> None:
        if len(self.lower) != self.k or len(self.upper) != self.k:
            raise ParameterError("threshold family must hold exactly k values per rail")


def _check_bounds(k: int, U: float, L: float, beta: float) -> None:
    if int(k) != k or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    if not (0 < L <= U < math.inf):
        raise ParameterError(f"need 0 < L <= U < inf, got L={L}, U={U}")
    if not (0 <= beta < math.inf):
        raise ParameterError(f"beta must be finite and nonnegative, got {beta}")


def _min_residual(a: float, k: int, U: float, L: float, beta: float) -> float:
    """Pole-free residual of the min-ratio equation; positive below the root."""
    lhs = U * (1 - 1 / a) - 2 * beta * (1 - 1 / k) - 2 * beta / (k * a)
    return (U - L - 2 * beta) - lhs * (1 + 1 / (k * a)) ** k


def _max_residual(w: float, k: int, U: float, L: float, beta: float) -> float:
    lhs = L * (w - 1) - 2 * beta * (1 - 1 / k) - 2 * beta * w / k
    try:
        growth = (1 + w / k) ** k
    except OverflowError:
        # reached while doubling the bracket: the power is past 1.8e308 and
        # U - L - 2b is finite and positive, so the product decides the sign
        return -math.inf if lhs > 0 else math.inf
    return (U - L - 2 * beta) - lhs * growth


def _solve_ratio(k: int, U: float, L: float, beta: float, variant: Variant) -> float:
    """Regime checks, then bisection on [1+1e-12, hi], doubling hi from 2.

    The residual is positive at the left end for all in-regime parameters and
    eventually negative, and the underlying equation has a unique positive
    root, so plain bisection is robust without derivatives.  It runs to its
    fixed point: residual(lo) > 0 >= residual(hi) holds throughout, so once
    the midpoint rounds to lo or hi the bracket can never move again, and
    that midpoint is returned.  The loop inlines ``_min_residual`` and
    ``_max_residual`` with the same float operations in the same order.
    """
    _check_bounds(k, U, L, beta)
    if U == L and beta == 0:
        return 1.0
    is_min = variant is Variant.MIN
    if is_min and beta >= (U - L) / 2:
        raise RegimeError(f"beta={beta} >= (U-L)/2={(U - L) / 2}: single-block regime, "
                          "min ratio equation does not apply")
    if not is_min and beta >= k * L / 2:
        raise RegimeError(f"beta={beta} >= kL/2={k * L / 2}: profit can be forced "
                          "nonpositive, max ratio is unbounded")
    residual, what = (_min_residual, "alpha") if is_min else (_max_residual, "omega")
    lo = 1.0 + 1e-12  # ratios are > 1 by construction
    if residual(lo, k, U, L, beta) <= 0:
        raise RegimeError(f"no {what} root above 1 for these parameters")
    hi = 2.0
    doublings = 0
    while residual(hi, k, U, L, beta) > 0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise RegimeError(f"{what} root bracket did not close; ratio diverges")
    kf, b2 = float(k), 2 * beta
    c0, c1 = U - L - b2, b2 * (1 - 1 / k)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if is_min:
            r = c0 - (U * (1 - 1 / mid) - c1 - b2 / (kf * mid)) * (1 + 1 / (kf * mid)) ** kf
        else:
            lhs = L * (mid - 1) - c1 - b2 * mid / kf
            try:
                r = c0 - lhs * (1 + mid / kf) ** kf
            except OverflowError:
                r = -math.inf if lhs > 0 else math.inf
        if r > 0:
            lo = mid
        else:
            hi = mid


def solve_alpha(k: int, U: float, L: float, beta: float) -> float:
    """Min-variant competitive ratio.

    Requires beta < (U - L)/2: at or beyond that point every stay threshold
    reaches U, the player buys its k units in one continuous block, and the
    ratio equation no longer characterizes the algorithm.  beta = 0 is
    accepted and recovers the k-min search ratio.
    """
    return _solve_ratio(k, U, L, beta, Variant.MIN)


def solve_omega(k: int, U: float, L: float, beta: float) -> float:
    """Max-variant competitive ratio.

    Requires beta < kL/2; beyond that an adversary can force nonpositive
    profit and the ratio is unbounded.  beta = 0 recovers k-max search.
    """
    return _solve_ratio(k, U, L, beta, Variant.MAX)


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


def dtpr_min_thresholds(k: int, U: float, L: float, beta: float) -> ThresholdFamily:
    """Double-threshold family for the min variant.

    u_i decreases in i (each later unit demands a better price) and the
    extended index satisfies l_{k+1} = L, so every threshold stays inside
    (L, U) for in-regime beta.
    """
    alpha = solve_alpha(k, U, L, beta)
    upper = tuple(min_upper_threshold(i, k, U, L, beta, alpha) for i in range(1, k + 1))
    lower = tuple(u - 2 * beta for u in upper)
    return ThresholdFamily(variant=Variant.MIN, k=k, lower=lower, upper=upper, ratio=alpha)


def dtpr_max_thresholds(k: int, U: float, L: float, beta: float) -> ThresholdFamily:
    """Double-threshold family for the max variant; l_i increases in i with
    extended u_{k+1} = U."""
    omega = solve_omega(k, U, L, beta)
    lower = tuple(max_lower_threshold(i, k, U, L, beta, omega) for i in range(1, k + 1))
    upper = tuple(l + 2 * beta for l in lower)
    return ThresholdFamily(variant=Variant.MAX, k=k, lower=lower, upper=upper, ratio=omega)


def ksearch_thresholds(k: int, U: float, L: float, variant: Variant) -> ThresholdFamily:
    """Classic k-search reservation prices: the beta = 0 double-threshold
    family, where both rails coincide at Phi_i."""
    if variant is Variant.MIN:
        return dtpr_min_thresholds(k, U, L, 0.0)
    return dtpr_max_thresholds(k, U, L, 0.0)


def constant_threshold(U: float, L: float) -> float:
    """The single reservation price sqrt(L*U) of 1-search."""
    if not (0 < L <= U):
        raise ParameterError(f"need 0 < L <= U, got L={L}, U={U}")
    return math.sqrt(L * U)


def lambert_w(x: float) -> float:
    """Principal branch of the Lambert W function (inverse of w * e^w).

    Newton iteration from a log-based seed; f(w) = w e^w is increasing and
    convex on w > -1, so the iteration converges for every x >= -1/e.
    """
    if not math.isfinite(x):
        raise DomainError(f"lambert_w argument must be finite, got {x}")
    branch_point = -1.0 / math.e
    if x < branch_point:
        if x > branch_point - 1e-12:  # representational slop at the branch point
            return -1.0
        raise DomainError(f"lambert_w undefined below -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x > math.e:
        w = math.log(x) - math.log(math.log(x))
    elif x > -0.25:
        w = x if x < 0 else math.log1p(x)
    else:
        # series around the branch point, stays >= -1; max() guards the
        # sqrt against rounding pushing e*x + 1 a hair below zero
        p = math.sqrt(max(2 * (math.e * x + 1), 0.0))
        w = -1 + p - p * p / 3
    w = max(w, -1 + 1e-12)
    # 1e-12 absolute, relaxed to the ulp floor once |x| outgrows it
    tol = max(1e-12, 8 * 2.220446049250313e-16 * abs(x))
    for _ in range(200):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        w -= f / (ew * (1 + w))
    raise ArithmeticError(f"lambert_w failed to converge for x={x}")


def asymptotic_alpha(
    k: int, U: float, L: float, beta: float, regime: AsymptoticRegime
) -> float:
    """Asymptotic approximations of the min ratio (diagnostics only).

    FIXED_K:  kb/(kL+2b) + sqrt((k^2 LU + 2kLb + 2kUb + 4b^2 + k^2 b^2)
                                / (k^2 L^2 + 4kLb + 4b^2))
    LARGE_K:  1 / (W(((c + 1/theta - 1) e^c) / e) - c + 1),  c = 2b/U

    Never used by the algorithms; the exact solvers are.
    """
    _check_bounds(k, U, L, beta)
    theta = U / L
    if regime is AsymptoticRegime.FIXED_K:
        if beta >= (U - L) / 2:
            raise ParameterError(
                f"fixed-k approximation needs beta < (U-L)/2, got beta={beta}"
            )
        num = k * k * L * U + 2 * k * L * beta + 2 * k * U * beta + 4 * beta**2 + k * k * beta**2
        den = k * k * L * L + 4 * k * L * beta + 4 * beta**2
        return k * beta / (k * L + 2 * beta) + math.sqrt(num / den)
    if regime is AsymptoticRegime.LARGE_K:
        c = 2 * beta / U
        if c >= (U - L) / U:
            raise ParameterError(
                f"large-k approximation needs 2*beta/U < (U-L)/U, got {c}"
            )
        arg = (c + 1 / theta - 1) * math.exp(c) / math.e
        return 1.0 / (lambert_w(arg) - c + 1)
    raise ParameterError(f"unknown regime {regime!r}")


def asymptotic_omega(
    k: int, U: float, L: float, beta: float, regime: AsymptoticRegime
) -> float:
    """Asymptotic approximations of the max ratio (diagnostics only).

    FIXED_K:  (k^k * k*theta / (k - b))^(1/(k+1)),  with b = 2*beta/L
    LARGE_K:  W((theta - 1 - b) / e^(1+b)) + 1 + b

    The large-k form substitutes b = 2*beta/L throughout, including the
    numerator of the W argument.
    """
    _check_bounds(k, U, L, beta)
    theta = U / L
    b = 2 * beta / L
    if b >= k:
        raise RegimeError(f"need 2*beta/L < k, got {b} >= {k}")
    if regime is AsymptoticRegime.FIXED_K:
        # evaluate in log space; k^k overflows float64 past k ~ 140
        log_val = (k * math.log(k) + math.log(k * theta / (k - b))) / (k + 1)
        return math.exp(log_val)
    if regime is AsymptoticRegime.LARGE_K:
        arg = (theta - 1 - b) / math.exp(1 + b)
        return lambert_w(arg) + 1 + b
    raise ParameterError(f"unknown regime {regime!r}")
