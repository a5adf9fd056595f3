"""Competitive-ratio solvers and double-threshold families.

The min-variant ratio alpha > 1 is the unique positive solution of

    (U - L - 2b) / (U(1 - 1/a) - (2b - 2b/k + 2b/(k a))) = (1 + 1/(k a))^k

and the max-variant ratio omega > 1 solves

    (U - L - 2b) / (L(w - 1) - 2b(1 - 1/k + w/k)) = (1 + w/k)^k.

Both degenerate to the classic k-search ratios at b = 0, with theta = U/L:

    (1 - 1/theta) / (1 - 1/a) = (1 + 1/(a k))^k        (k-min search)
    (theta - 1) / (w - 1)     = (1 + w/k)^k            (k-max search)

Both hold for beta below `regime_edge`, the one regime rule.  Both come
from `solve_ratios`, one lane-wise bisection over a batch of cells that
checks the batch and raises every lane's power as numpy arrays;
`solve_alpha`/`solve_omega` are its one-cell case.  These exact roots are
the only form of the ratios here: the solver answers at every k, so the
paper's asymptotic closed forms would be a second answer to the same
question.

The double-threshold family pairs a resume threshold with a stay threshold
exactly 2b apart: a player already accepting tolerates a slightly worse
price (it would pay to switch away), while an idle player demands a price
good enough to justify switching on.

This module alone decides which rails each player kind plays.  A
``PlayerKind`` names an algorithm, not a variant; `player_families` builds
the signed rails (see `core`) of a batch of (kind, U, L, beta) cells as one
table, and `player_family`, through `_family`, is its one-cell case.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .core import Variant, check_cell, check_k, check_variant
from .errors import OprError, ParameterError, RegimeError


@dataclass(frozen=True)
class ThresholdFamily:
    """Per-unit acceptance thresholds, unsigned, plus the ratio they were
    built from; the player's previous decision picks the rail at each step.
    A variant that is not a `Variant`, a rail not k long or a rail value that
    is not finite raises `ParameterError`, since `algorithms` plays any family.
    """

    variant: Variant
    k: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    ratio: float

    def __post_init__(self) -> None:
        check_variant(self.variant)
        if len(self.lower) != self.k or len(self.upper) != self.k:
            raise ParameterError("threshold family must hold exactly k values per rail")
        rails = (*self.lower, *self.upper)
        if not all(map(math.isfinite, rails)):
            i, value = next((i, v) for i, v in enumerate(rails) if not math.isfinite(v))
            name = f"lower[{i}]" if i < self.k else f"upper[{i - self.k}]"
            raise ParameterError(f"threshold rails must be finite, got {name}={value}")


class PlayerKind(Enum):
    DTPR = "dtpr"
    KSEARCH = "ksearch"
    CONSTANT_THRESHOLD = "const"
    CARBON_AGNOSTIC = "agnostic"


#: short algorithm names used in configs, result files, and the CLI
ALG_NAMES = tuple(kind.value for kind in PlayerKind)


def resolve_player_kind(name: str) -> PlayerKind:
    if isinstance(name, str):
        try:
            return PlayerKind(name)
        except ValueError:
            pass
    raise ParameterError(f"unknown algorithm {name!r}; choose from {ALG_NAMES}")


#: how error messages name each variant's `regime_edge`
EDGE_NAMES = {Variant.MIN: "(U-L)/2", Variant.MAX: "kL/2"}


def regime_edge(variant: Variant, k: int, U: float, L: float) -> float:
    """The beta at and past which the cell's ratio equation no longer
    applies: (U - L)/2 for min, where every stay threshold reaches U and the
    player buys its k units in one block, and kL/2 for max, where an
    adversary can force nonpositive profit and the ratio is unbounded.
    Takes floats or float64 arrays alike."""
    return (U - L) / 2 if variant is Variant.MIN else k * L / 2


def _powers(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """``base ** exps`` elementwise, each as Python's `math.pow` gives it:
    ``np.float_power`` calls the C library's ``pow`` per float64 element, as
    `math.pow` does (``np.power`` rounds differently).  Where `math.pow`
    raises OverflowError (max side) it gives inf, silently under the
    caller's ``np.errstate(over="ignore")``, which `solve_ratios` holds
    around its lanes; a rail's negative powers cannot overflow."""
    return np.float_power(base, exps)


def solve_ratios(
    variant: Variant, cells: Iterable[tuple[int, float, float, float]]
) -> list[float | OprError]:
    """The ratio (alpha for min, omega for max) of each (k, U, L, beta) cell,
    or the `OprError` of its solve; none is raised here but `check_cell`'s
    `TypeError` on a value such as the string '4'.

    The cells are checked as one float64 array: the `check_cell` test, ratio
    1 at U == L with beta == 0, and the `regime_edge` test; a failing cell's
    error is built from its own values.  The other cells are lanes that run
    the three phases of ``tests/ratio_reference.py::bisect_ratio`` together,
    on one residual, positive below the unique root: no root where it is
    <= 0 at 1+1e-12; hi = 2, 4, ... doubling while it is positive at hi, up
    to 2**201, each lane only until its own bracket closes; and bisection of
    [lo, hi] until the midpoint rounds to lo or hi.  numpy does the
    ``+ - * /`` in the scalar order and `_powers` the power, so each lane
    gives its cell's Python-float result bit for bit, silent overflow too.
    """
    is_min = variant is Variant.MIN
    what = "alpha" if is_min else "omega"
    past_edge = ("single-block regime, min ratio equation does not apply" if is_min
                 else "profit can be forced nonpositive, max ratio is unbounded")
    cells = list(cells)
    if not {int, float}.issuperset(map(type, chain.from_iterable(cells))):
        for cell in cells:  # np.fromiter would read '4' as 4.0
            with suppress(ParameterError):  # the array checks give this error
                check_cell(*cell)
    roots, errors = np.ones(len(cells)), {}  # 1.0 until a lane's root is found
    with np.errstate(over="ignore", invalid="ignore"):
        k, U, L, beta = np.fromiter(cells, np.dtype((float, 4)), len(cells)).T
        ok = ((k >= 1) & (k < math.inf) & (np.floor(k) == k) & (0 < L) & (L <= U)
              & (U < math.inf) & (0 <= beta) & (beta < math.inf))
        for i in np.flatnonzero(~ok).tolist():
            try:
                check_cell(*cells[i])
            except ParameterError as exc:
                errors[i] = exc
        ok &= (U != L) | (beta != 0)
        past = ok & (beta >= regime_edge(variant, k, U, L))
        for i in np.flatnonzero(past).tolist():
            kc, Uc, Lc, bc = cells[i]
            errors[i] = RegimeError(f"beta={bc} >= {EDGE_NAMES[variant]}="
                                    f"{regime_edge(variant, kc, Uc, Lc)}: {past_edge}")
        live = np.flatnonzero(ok & ~past)
        k, U, L, beta = k[live], U[live], L[live], beta[live]
        # a lane's cell index, lo and hi, then the residual's kf, s, c0, c1, b2
        lanes = (live, np.full(len(live), 1.0 + 1e-12), np.full(len(live), 2.0),
                 k, U if is_min else L, U - L - 2 * beta, 2 * beta * (1 - 1 / k), 2 * beta)

        def residual(x, kf, s, c0, c1, b2):
            if is_min:
                kx = kf * x
                return c0 - (s * (1 - 1 / x) - c1 - b2 / kx) * _powers(1 + 1 / kx, kf)
            lhs = s * (x - 1) - c1 - b2 * x / kf
            p = _powers(1 + x / kf, kf)
            r = c0 - lhs * p
            # past 1.8e308 the power is inf and c0 is finite and positive, so
            # lhs decides, as when ``**`` raises
            big = p == math.inf
            r[big] = np.where(lhs[big] > 0, -math.inf, math.inf)
            return r

        def finish(done: np.ndarray, found: np.ndarray | str) -> None:
            """Give the done lanes `found`, their roots or an error message,
            and drop those lanes."""
            nonlocal lanes
            if isinstance(found, str):
                errors.update((j, RegimeError(found)) for j in lanes[0][done].tolist())
            else:
                roots[lanes[0][done]] = found[done]
            keep = ~done
            lanes = tuple(row[keep] for row in lanes)

        if np.count_nonzero(rootless := residual(lanes[1], *lanes[3:]) <= 0):
            finish(rootless, f"no {what} root above 1 for these parameters")
        up = np.arange(len(lanes[0]))  # the lanes whose hi is still doubling
        for _ in range(201):  # hi = 2, 4, ..., 2**201
            up = up[residual(*(row[up] for row in lanes[2:])) > 0]
            if not up.size:
                break
            lanes[2][up] *= 2.0
        else:
            stuck = np.zeros(len(lanes[0]), bool)
            stuck[up] = True
            finish(stuck, f"{what} root bracket did not close; ratio diverges")
        while len(lanes[0]):
            lo, hi = lanes[1:3]
            mid = 0.5 * (lo + hi)
            if np.count_nonzero(done := (mid == lo) | (mid == hi)):
                finish(done, mid)
                continue
            pos = residual(mid, *lanes[3:]) > 0
            np.copyto(lo, mid, where=pos)
            np.copyto(hi, mid, where=~pos)
    out: list[float | OprError] = roots.tolist()
    for i, exc in errors.items():
        out[i] = exc
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


def dtpr_rails(
    variant: Variant, k: int, U: np.ndarray, L: np.ndarray, beta: np.ndarray, ratio: np.ndarray
) -> np.ndarray:
    """The signed (F, 2, k) resume and stay rails of F double-threshold cells,
    from float64 columns of their parameters and solved ratios.  Each is
    anchored at the extended index k+1, where the construction forces
    u_{k+1} = L + 2b (min) and l_{k+1} = U - 2b (max), the other 2b away:

        u_i = U - (U - L - 2b) r^(i-1-k),    r = 1 + 1/(k alpha)     (min)
        l_i = L + (U - L - 2b) rho^(i-1-k),  rho = 1 + omega/k       (max)

    Signed, the stay rail is anchor - span and the resume rail 2b below,
    with anchor U (min) or -L (max); negation is exact, so (-L) - span is
    -l_i bit for bit.  This is the direct closed form at the exact root,
    without the cancellation its coefficient suffers when the growth factor
    is large.  numpy does the ``+ - *`` in the scalar order and `_powers` the
    power, each cell's growth factor against the one row of exponents
    -k ... -1, so every value is the scalar formula's bit for bit.
    """
    minimize = variant is Variant.MIN
    growth = 1 + (1 / (k * ratio) if minimize else ratio / k)
    span = (U - L - 2 * beta)[:, None] * _powers(growth[:, None], np.arange(-k, 0.0))
    rails = np.empty((len(ratio), 2, k))
    np.subtract((U if minimize else -L)[:, None], span, out=rails[:, 1])
    np.subtract(rails[:, 1], (2 * beta)[:, None], out=rails[:, 0])
    return rails


def _family(variant: Variant, k: int, rails: np.ndarray, ratio: float) -> ThresholdFamily:
    """The family of one signed (2, k) row of resume and stay rails."""
    lower, upper = (rails if variant is Variant.MIN else -rails[::-1]).tolist()
    return ThresholdFamily(variant, int(k), tuple(lower), tuple(upper), float(ratio))


def dtpr_family(
    k: int, U: float, L: float, beta: float, ratio: float, variant: Variant
) -> ThresholdFamily:
    """The double-threshold family at its solved ratio: `dtpr_rails` on one
    cell.  An integral float k, such as 2.0, is stored as an int."""
    rails = dtpr_rails(variant, int(k), *np.array([[U], [L], [beta], [ratio]]))
    return _family(variant, k, rails[0], ratio)


def dtpr_min_thresholds(k: int, U: float, L: float, beta: float) -> ThresholdFamily:
    """Double-threshold family for the min variant, at alpha."""
    return dtpr_family(k, U, L, beta, solve_alpha(k, U, L, beta), Variant.MIN)


def dtpr_max_thresholds(k: int, U: float, L: float, beta: float) -> ThresholdFamily:
    """Double-threshold family for the max variant, at omega."""
    return dtpr_family(k, U, L, beta, solve_omega(k, U, L, beta), Variant.MAX)


def player_families(
    cells: Sequence[tuple[PlayerKind, float, float, float]], k: int, variant: Variant
) -> tuple[np.ndarray, np.ndarray, dict[int, OprError]]:
    """The signed (F, 2, k+1) rail table of a player of each (kind, U, L,
    beta) cell on ``variant``, the F ratios, and ``{row: error}`` for each
    cell whose check or ratio solve failed.  Row f holds cell f's resume and
    stay rails in ``[f, :, :k]``, as `play_lanes` reads them: a max row holds
    the negated upper and lower rails.  Column k and a failed cell's row and
    ratio are 0.  A k that is not a positive integer raises.

    DTPR and k-search (DTPR at beta = 0) rows come from one `solve_ratios`
    call and one `dtpr_rails`.  A constant row holds +-sqrt(L*U) on both
    rails, an agnostic row `dtpr_rails`' anchor, which accepts every price;
    their ratio is that of one reservation price at beta = 0.
    """
    k, minimize = check_k(k), variant is Variant.MIN
    table, ratios, failed = np.zeros((max(len(cells), 1), 2, k + 1)), np.zeros(len(cells)), {}
    solving, flat = [], []
    for f, (kind, U, L, beta) in enumerate(cells):
        try:
            check_cell(k, U, L, beta)
        except ParameterError as exc:
            failed[f] = exc
            continue
        if kind in (PlayerKind.DTPR, PlayerKind.KSEARCH):
            solving.append((f, U, L, 0.0 if kind is PlayerKind.KSEARCH else beta))
        else:
            flat.append((f, U, L, kind is PlayerKind.CONSTANT_THRESHOLD))
    found = solve_ratios(variant, [(k, *cell[1:]) for cell in solving]) if solving else ()
    failed.update((cell[0], r) for cell, r in zip(solving, found) if isinstance(r, OprError))
    if solved := [(*cell, r) for cell, r in zip(solving, found) if not isinstance(r, OprError)]:
        rows = [cell[0] for cell in solved]
        _, U, L, beta, ratio = np.array(solved).T
        table[rows, :, :k] = dtpr_rails(variant, k, U, L, beta, ratio)
        ratios[rows] = ratio
    if flat:
        rows, rails = [f for f, *_ in flat], [
            math.sqrt(L * U) if const else U if minimize else L for _, U, L, const in flat]
        ratios[rows] = [max(rail / L, U / rail) for rail, (_, U, L, _) in zip(rails, flat)]
        table[rows, :, :k] = (1.0 if minimize else -1.0) * np.array(rails)[:, None, None]
    return table, ratios, failed


def player_family(
    kind: PlayerKind, k: int, U: float, L: float, beta: float, variant: Variant
) -> ThresholdFamily:
    """`player_families` on one cell, as a family, raising its error.  Every
    player is made this way, since `algorithms` plays only families; a caller
    that runs many players on the same parameters builds the family once."""
    table, ratios, failed = player_families([(kind, U, L, beta)], k, variant)
    if failed:
        raise failed[0]
    return _family(variant, k, table[0, :, :-1], ratios[0])


def ksearch_thresholds(k: int, U: float, L: float, variant: Variant) -> ThresholdFamily:
    """Classic k-search reservation prices: the beta = 0 double-threshold
    family, where both rails coincide at Phi_i."""
    return player_family(PlayerKind.KSEARCH, k, U, L, 0.0, variant)
