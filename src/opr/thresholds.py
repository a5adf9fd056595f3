"""Competitive-ratio solvers and double-threshold families.

The min-variant ratio alpha > 1 is the unique positive solution of

    (U - L - 2b) / (U(1 - 1/a) - (2b - 2b/k + 2b/(k a))) = (1 + 1/(k a))^k

and the max-variant ratio omega > 1 solves

    (U - L - 2b) / (L(w - 1) - 2b(1 - 1/k + w/k)) = (1 + w/k)^k.

Both degenerate to the classic k-search ratios at b = 0, with theta = U/L:

    (1 - 1/theta) / (1 - 1/a) = (1 + 1/(a k))^k        (k-min search)
    (theta - 1) / (w - 1)     = (1 + w/k)^k            (k-max search)

Both hold for beta below `regime_edge`, the one regime rule.  Both come
from `solve_ratios`, one lane-wise bisection over a batch of cells;
`solve_alpha`/`solve_omega` are its one-cell case.  These exact roots are
the only form of the ratios here: the solver answers at every k, so the
paper's asymptotic closed forms would be a second answer to the same
question.

The double-threshold family pairs a resume threshold with a stay threshold
exactly 2b apart: a player already accepting tolerates a slightly worse
price (it would pay to switch away), while an idle player demands a price
good enough to justify switching on.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Variant, check_cell
from .errors import OprError, ParameterError, RegimeError


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


#: how error messages name each variant's `regime_edge`
EDGE_NAMES = {Variant.MIN: "(U-L)/2", Variant.MAX: "kL/2"}


def regime_edge(variant: Variant, k: int, U: float, L: float) -> float:
    """The beta at and past which the cell's ratio equation no longer
    applies: (U - L)/2 for min, where every stay threshold reaches U and the
    player buys its k units in one block, and kL/2 for max, where an
    adversary can force nonpositive profit and the ratio is unbounded."""
    return (U - L) / 2 if variant is Variant.MIN else k * L / 2


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
    `regime_edge` check, a cell is bisected on [1+1e-12, hi] to the fixed point
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
    past_edge = ("single-block regime, min ratio equation does not apply" if is_min
                 else "profit can be forced nonpositive, max ratio is unbounded")
    out: list[float | OprError] = []
    cols = tuple(array("d") for _ in range(6))
    for k, U, L, beta in cells:
        try:
            check_cell(k, U, L, beta)
        except ParameterError as exc:
            out.append(exc)
            continue
        edge = regime_edge(variant, k, U, L)
        if U == L and beta == 0:
            out.append(1.0)
        elif beta >= edge:
            out.append(RegimeError(f"beta={beta} >= {EDGE_NAMES[variant]}={edge}: {past_edge}"))
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
    """Min-variant competitive ratio; requires beta below `regime_edge`.
    beta = 0 is accepted and recovers the k-min search ratio."""
    return _solve_ratio(k, U, L, beta, Variant.MIN)


def solve_omega(k: int, U: float, L: float, beta: float) -> float:
    """Max-variant competitive ratio; requires beta below `regime_edge`.
    beta = 0 recovers k-max search."""
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
    in-regime beta.  Max: l_i increases in i with u_{k+1} = U.  An integral
    float k, such as 2.0, is stored as an int."""
    k = int(k)
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
