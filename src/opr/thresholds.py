"""Competitive-ratio solvers and double-threshold families.

The min-variant ratio alpha > 1 is the unique positive solution of

    (U - L - 2b) / (U(1 - 1/a) - (2b - 2b/k + 2b/(k a))) = (1 + 1/(k a))^k

and the max-variant ratio omega > 1 solves

    (U - L - 2b) / (L(w - 1) - 2b(1 - 1/k + w/k)) = (1 + w/k)^k.

Both degenerate to the classic k-search ratios at b = 0:

    (1 - 1/theta) / (1 - 1/a) = (1 + 1/(a k))^k        (k-min search)
    (theta - 1) / (w - 1)     = (1 + w/k)^k            (k-max search)

Both come from `solve_ratios`, one lane-wise bisection over a batch of
cells; `solve_alpha`/`solve_omega` are its one-cell case.

The double-threshold family pairs a resume threshold with a stay threshold
exactly 2b apart: a player already accepting tolerates a slightly worse
price (it would pay to switch away), while an idle player demands a price
good enough to justify switching on.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .core import Variant
from .errors import DomainError, OprError, ParameterError, RegimeError


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


def check_k(k: int) -> None:
    """Reject a k that is not a positive integer, NaN and inf included."""
    if not (k >= 1 and k % 1 == 0):
        raise ParameterError(f"k must be a positive integer, got {k}")


def _check_bounds(k: int, U: float, L: float, beta: float) -> None:
    check_k(k)
    if not (0 < L <= U < math.inf):
        raise ParameterError(f"need 0 < L <= U < inf, got L={L}, U={U}")
    if not (0 <= beta < math.inf):
        raise ParameterError(f"beta must be finite and nonnegative, got {beta}")


def _powers(base: np.ndarray, exps: list[float]) -> np.ndarray:
    """Python's ``b ** e`` lane by lane, as `math.pow` (``np.power`` rounds
    differently), and inf where ``**`` raises OverflowError (max side)."""
    try:
        return np.fromiter(map(math.pow, base.tolist(), exps), float, len(exps))
    except OverflowError:  # some lane overflows: redo them one by one
        pass
    out = []
    for b, e in zip(base.tolist(), exps):
        try:
            out.append(math.pow(b, e))
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def solve_ratios(
    variant: Variant, cells: Iterable[tuple[int, float, float, float]]
) -> list[float | OprError]:
    """The ratio (alpha for min, omega for max) of each (k, U, L, beta) cell,
    or the `OprError` of its solve; none is raised here.

    After the parameter checks, ratio 1 at U == L with beta == 0, and the
    regime check, a cell is bisected on [1+1e-12, hi] to the fixed point
    where the midpoint rounds to lo or hi.  The residual is positive below
    the unique root.  The bracket ends are met as the degenerate bracket
    lo == hi: the left end (no root if its residual is <= 0), then hi = 2,
    4, ... while the residual there stays positive.  The cells are lanes of
    one loop: numpy does the ``+ - * /`` in the scalar order, which rounds
    as Python floats do, and `math.pow` the power, so each lane gives what
    its cell gives alone.  As with Python floats, overflow is silent.
    """
    is_min = variant is Variant.MIN
    what = "alpha" if is_min else "omega"
    errors = ("", f"no {what} root above 1 for these parameters",
              f"{what} root bracket did not close; ratio diverges")
    out: list[float | OprError] = []
    cols = tuple(array("d") for _ in range(6))
    for k, U, L, beta in cells:
        try:
            _check_bounds(k, U, L, beta)
        except ParameterError as exc:
            out.append(exc)
            continue
        if U == L and beta == 0:
            out.append(1.0)
        elif is_min and beta >= (U - L) / 2:
            out.append(RegimeError(f"beta={beta} >= (U-L)/2={(U - L) / 2}: single-block "
                                   "regime, min ratio equation does not apply"))
        elif not is_min and beta >= k * L / 2:
            out.append(RegimeError(f"beta={beta} >= kL/2={k * L / 2}: profit can be forced "
                                   "nonpositive, max ratio is unbounded"))
        else:
            for col, v in zip(cols, (len(out), k, U if is_min else L, U - L - 2 * beta,
                                     2 * beta * (1 - 1 / k), 2 * beta)):
                col.append(v)
            out.append(1.0)  # until its root is found
    # a row a field, a column a lane; leaving lanes are dropped by moving
    # the others to the front of every row
    state = np.empty((10, len(cols[0])))
    for row, col in zip(state, cols):
        row[:] = col
    del cols
    # lo = hi = x = the left end (ratios are > 1 by construction), and the
    # doubling count at -1, since that first bracket end is no doubling
    state[6:9], state[9] = 1.0 + 1e-12, -1.0
    i, kf, s, c0, c1, b2, lo, hi, x, doublings = state
    kfs = kf.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        while kfs:
            if is_min:
                kx = kf * x
                r = c0 - (s * (1 - 1 / x) - c1 - b2 / kx) * _powers(1 + 1 / kx, kfs)
            else:
                lhs = s * (x - 1) - c1 - b2 * x / kf
                p = _powers(1 + x / kf, kfs)
                r = c0 - lhs * p
                # past 1.8e308 the power is inf and c0 is finite and
                # positive, so lhs decides, as when ``**`` raises
                big = p == math.inf
                r[big] = np.where(lhs[big] > 0, -math.inf, math.inf)
            pos = r > 0
            np.copyto(lo, x, where=pos)
            np.copyto(hi, x, where=~pos)
            np.add(lo, hi, out=x)
            x *= 0.5
            stop = (x == lo) | (x == hi)
            if not np.count_nonzero(stop):
                continue
            # where lo < hi, x is the root; a bracket end with r <= 0 has no
            # root, and one with r > 0 doubles hi, at most 200 times
            ends = stop & (lo == hi)
            no_root = ends & (r <= 0)
            doublings += ends & ~no_root
            diverged = ends & ~no_root & (doublings > 200)
            grow = ends & ~no_root & ~diverged
            keep = ~stop | grow
            code = no_root + 2 * diverged
            for j, v, c in zip(i[~keep].tolist(), x[~keep].tolist(), code[~keep].tolist()):
                out[int(j)] = RegimeError(errors[c]) if c else v
            hi[grow] = np.where(doublings[grow] > 0, 2.0 * hi[grow], 2.0)
            lo[grow], x[grow] = 1.0 + 1e-12, hi[grow]
            n = np.count_nonzero(keep)
            if n < len(keep):
                for row in state:
                    row[:n] = row[keep]
                state = state[:, :n]
                i, kf, s, c0, c1, b2, lo, hi, x, doublings = state
                kfs = kf.tolist()
    return out


def _solve_ratio(k: int, U: float, L: float, beta: float, variant: Variant) -> float:
    """`solve_ratios` on one cell, raising its error."""
    [ratio] = solve_ratios(variant, [(k, U, L, beta)])
    if isinstance(ratio, OprError):
        raise ratio
    return ratio


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


def dtpr_family(
    k: int, U: float, L: float, beta: float, ratio: float, variant: Variant
) -> ThresholdFamily:
    """The double-threshold family at its solved ratio.  Min: u_i decreases
    in i and l_{k+1} = L, so every threshold stays inside (L, U) for
    in-regime beta.  Max: l_i increases in i with u_{k+1} = U."""
    if variant is Variant.MIN:
        upper = tuple(min_upper_threshold(i, k, U, L, beta, ratio) for i in range(1, k + 1))
        lower = tuple(u - 2 * beta for u in upper)
    else:
        lower = tuple(max_lower_threshold(i, k, U, L, beta, ratio) for i in range(1, k + 1))
        upper = tuple(l + 2 * beta for l in lower)
    return ThresholdFamily(variant=variant, k=k, lower=lower, upper=upper, ratio=ratio)


def dtpr_min_thresholds(k: int, U: float, L: float, beta: float) -> ThresholdFamily:
    """Double-threshold family for the min variant, at alpha."""
    return dtpr_family(k, U, L, beta, solve_alpha(k, U, L, beta), Variant.MIN)


def dtpr_max_thresholds(k: int, U: float, L: float, beta: float) -> ThresholdFamily:
    """Double-threshold family for the max variant, at omega."""
    return dtpr_family(k, U, L, beta, solve_omega(k, U, L, beta), Variant.MAX)


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
