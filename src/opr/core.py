"""Problem instances, schedules, and exact objective evaluation.

An instance asks a player to accept exactly k of T online prices, paying
(min variant) or earning (max variant) each accepted price, plus a switching
penalty of beta every time the accept/reject decision flips between adjacent
slots.  The boundary decisions x_0 = 0 and x_{T+1} = 0 are implicit, so any
feasible schedule flips at least twice and at most 2k times.

`lane_totals` is the one objective: it prices every lane of an (n, m, T)
pass at once and refuses a lane that does not accept k prices as a defect.
Like `offline.dp_decisions` and `algorithms.play_lanes`, it always
minimizes: a max instance is the min one on negated prices and the signed
rails of `thresholds.player_families`.  The variant is read at the edges,
`evaluate_schedule` (its one-row case), `offline.dp_optimal` and
`experiment._run_trials`, which negate a max instance's prices and its sums
back as ``0.0 - x``, so that a zero profit stays +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DegenerateProfitError, FeasibilityError, ParameterError, StructuralError


class Variant(Enum):
    MIN = "min"
    MAX = "max"


def check_k(k: int, name: str = "k") -> int:
    """``k`` (or the count ``name``) as an int, 2.0 as 2; anything but a
    positive integer, NaN and inf included, is rejected."""
    if not (k >= 1 and k % 1 == 0):
        raise ParameterError(f"{name} must be a positive integer, got {k}")
    return int(k)


def check_cell(k: int, U: float, L: float, beta: float) -> int:
    """The one check of a (k, U, L, beta) cell, for every player kind and
    instance; returns k as an int, as `check_k` does."""
    k = check_k(k)
    if not (0 < L <= U < math.inf):
        raise ParameterError(f"need 0 < L <= U < inf, got L={L}, U={U}")
    if not (0 <= beta < math.inf):
        raise ParameterError(f"beta must be finite and nonnegative, got {beta}")
    return k


def check_variant(variant: Variant) -> None:
    if not isinstance(variant, Variant):
        raise ParameterError(f"variant must be a Variant, got {variant!r}")


@dataclass(frozen=True)
class Instance:
    """One pause-and-resume problem: parameters plus the full price sequence.

    Prices outside [L, U] are rejected at construction rather than clamped;
    the competitive guarantees assume bounded support.
    """

    k: int
    T: int
    L: float
    U: float
    beta: float
    variant: Variant
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        check_variant(self.variant)
        if self.k < 1 or self.T < 1 or self.k > self.T:
            raise ParameterError(f"need 1 <= k <= T, got k={self.k}, T={self.T}")
        object.__setattr__(self, "k", check_cell(self.k, self.U, self.L, self.beta))
        prices = tuple(self.prices)
        if len(prices) != self.T:
            raise StructuralError(f"price sequence has length {len(prices)}, expected T={self.T}")
        # checked before float(), which would read '5' and b'7' as numbers
        for t, p in enumerate(prices):
            if not (self.L <= p <= self.U):  # NaN and inf too: L and U are finite
                raise ParameterError(
                    f"price c_{t + 1}={float(p)} outside [L, U]=[{self.L}, {self.U}]"
                )
        object.__setattr__(self, "prices", tuple(map(float, prices)))


_BINARY = frozenset((0, 1))


@dataclass(frozen=True)
class Schedule:
    """Binary decision vector x_1..x_T."""

    decisions: tuple[int, ...]

    def __post_init__(self) -> None:
        # checked before int(), which would truncate 1.5 to 1
        raw = tuple(self.decisions)
        if not _BINARY.issuperset(raw):
            bad = next(x for x in raw if x not in _BINARY)
            raise StructuralError(f"decisions must be 0/1, got {bad}")
        object.__setattr__(self, "decisions", tuple(map(int, raw)))

    def num_accepted(self) -> int:
        return sum(self.decisions)


@dataclass(frozen=True)
class CostBreakdown:
    """Exact objective split into its accepted-price and switching parts."""

    accepted_sum: float
    switching_cost: float
    total: float
    num_switches: int


def evaluate_schedule(inst: Instance, sched: Schedule) -> CostBreakdown:
    """Exact objective of a feasible schedule: `lane_totals` on its one row.

    The schedule must have length T and accept exactly k prices; the
    k-transaction requirement is a hard constraint, so anything else is
    infeasible no matter how cheap it looks.
    """
    d = sched.decisions
    if len(d) != inst.T:
        raise StructuralError(f"schedule has length {len(d)}, expected T={inst.T}")
    if sched.num_accepted() != inst.k:
        raise FeasibilityError(f"schedule accepts {sched.num_accepted()} prices, "
                               f"instance requires k={inst.k}")
    prices, row = np.fromiter(inst.prices, float, inst.T), np.frombuffer(bytes(d), np.int8)
    if maximize := inst.variant is Variant.MAX:
        np.negative(prices, out=prices)
    [accepted], [switching], [total], [flips] = lane_totals(
        prices[None], row[None, None], inst.k, inst.beta)
    if maximize:
        accepted, total = 0.0 - accepted, 0.0 - total
    return CostBreakdown(accepted, switching, total, flips)


#: accepted prices one `lane_totals` block sums: 256 lanes at k = 120 cost 0.9 MB RSS
_BLOCK_PRICES = 2048


def lane_totals(
    prices: np.ndarray, decisions: np.ndarray, k: int, beta: float,
    label: Callable[[int, int], str] = lambda i, a: f"lane {(i, a)}",
) -> tuple[list[float], list[float], list[float], list[int]]:
    """(accepted sums, switching costs, totals, flips) of every lane, as flat
    lists in lane order: lane (i, a) of the (n, m, T) 0/1 int8 ``decisions``
    plays price row i of the (n, T) ``prices``.  A lane that does not accept
    exactly k prices is refused as a defect, and one whose sum overflows
    raises `ParameterError`; either message names the lane by
    ``label(i, a)``."""
    d, (n, m, _) = decisions, decisions.shape
    counts = np.count_nonzero(d, axis=-1).reshape(-1).tolist()
    if counts.count(k) != len(counts):
        j = next(j for j, c in enumerate(counts) if c != k)
        raise FeasibilityError(f"{label(*divmod(j, m))} accepts {counts[j]} prices, not k={k}; "
                               "this indicates a defect")
    flips = d[..., 0] + d[..., -1] + np.count_nonzero(d[..., 1:] != d[..., :-1], axis=-1)
    flips, accepted = flips.reshape(-1).tolist(), []
    step = max(1, _BLOCK_PRICES // (m * k))  # trials a block
    for start in range(0, n, step):
        block = d[start : start + step]
        taken = np.broadcast_to(prices[start : start + step, None], block.shape)[block.view(bool)]
        try:
            # fsum is correctly rounded, so the summation order cannot move a bit
            accepted += map(math.fsum, taken.reshape(-1, k).tolist())
        except OverflowError:  # ``+=`` kept the sums before the lane that raised
            raise ParameterError(f"{label(*divmod(len(accepted), m))} sum overflows") from None
    switching = [beta * f for f in flips]  # Python floats, which overflow to inf silently
    return accepted, switching, [a + s for a, s in zip(accepted, switching)], flips


def cost_ratio(alg: float, opt: float, variant: Variant) -> float:
    """The competitive ratio of a player's total against the optimum's:
    ALG/OPT for min, OPT/ALG for max, both >= 1 when OPT is exact.  A
    nonpositive denominator leaves it undefined and raises."""
    if variant is Variant.MIN:
        if opt <= 0:
            raise ParameterError(f"min ratio needs opt.total > 0, got {opt}")
        return alg / opt
    if alg <= 0:
        raise DegenerateProfitError(
            f"nonpositive profit {alg}: beta too large relative to kL, ratio undefined"
        )
    return opt / alg
