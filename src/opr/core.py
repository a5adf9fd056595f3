"""Problem instances, schedules, and exact objective evaluation.

An instance asks a player to accept exactly k of T online prices, paying
(min variant) or earning (max variant) each accepted price, plus a switching
penalty of beta every time the accept/reject decision flips between adjacent
slots.  The boundary decisions x_0 = 0 and x_{T+1} = 0 are implicit, so any
feasible schedule flips at least twice and at most 2k times.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateProfitError, FeasibilityError, ParameterError, StructuralError


class Variant(Enum):
    MIN = "min"
    MAX = "max"


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
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        if not isinstance(self.variant, Variant):
            raise ParameterError(f"variant must be a Variant, got {self.variant!r}")
        if self.k < 1 or self.T < 1 or self.k > self.T:
            raise ParameterError(f"need 1 <= k <= T, got k={self.k}, T={self.T}")
        if not (0 < self.L <= self.U < math.inf):
            raise ParameterError(f"need 0 < L <= U < inf, got L={self.L}, U={self.U}")
        if not (0 <= self.beta < math.inf):
            raise ParameterError(f"beta must be finite and nonnegative, got {self.beta}")
        if len(self.prices) != self.T:
            raise StructuralError(
                f"price sequence has length {len(self.prices)}, expected T={self.T}"
            )
        for t, p in enumerate(self.prices):
            if not (self.L <= p <= self.U) or not math.isfinite(p):
                raise ParameterError(
                    f"price c_{t + 1}={p} outside [L, U]=[{self.L}, {self.U}]"
                )

    @property
    def theta(self) -> float:
        """Price fluctuation ratio U/L."""
        return self.U / self.L


_BINARY = frozenset((0, 1))


@dataclass(frozen=True)
class Schedule:
    """Binary decision vector x_1..x_T."""

    decisions: tuple[int, ...]

    def __post_init__(self) -> None:
        decisions = tuple(map(int, self.decisions))
        object.__setattr__(self, "decisions", decisions)
        if not _BINARY.issuperset(decisions):
            bad = next(x for x in decisions if x not in _BINARY)
            raise StructuralError(f"decisions must be 0/1, got {bad}")

    def num_accepted(self) -> int:
        return sum(self.decisions)


@dataclass(frozen=True)
class CostBreakdown:
    """Exact objective split into its accepted-price and switching parts."""

    accepted_sum: float
    switching_cost: float
    total: float
    num_switches: int


def validate_schedule(inst: Instance, sched: Schedule) -> bool:
    """True iff the schedule accepts exactly k prices.

    The k-transaction requirement is a hard constraint, so anything else is
    infeasible no matter how cheap it looks.
    """
    if len(sched.decisions) != inst.T:
        raise StructuralError(
            f"schedule has length {len(sched.decisions)}, expected T={inst.T}"
        )
    return sched.num_accepted() == inst.k


def evaluate_schedule(inst: Instance, sched: Schedule) -> CostBreakdown:
    """Exact objective of a feasible schedule.

    Switching is charged over the closed boundary t = 0 .. T+1 with
    x_0 = x_{T+1} = 0, so the count of flips is always even (twice the
    number of maximal accepted blocks).  Min total adds the switching cost,
    max total subtracts it and may legitimately be <= 0.
    """
    if not validate_schedule(inst, sched):
        raise FeasibilityError(
            f"schedule accepts {sched.num_accepted()} prices, instance requires k={inst.k}"
        )
    d = sched.decisions
    # fsum is correctly rounded, so the summation order cannot move a bit
    accepted = math.fsum(itertools.compress(inst.prices, d))
    # x_0 = 0 flips into d[0], x_{T+1} = 0 flips out of d[-1]
    flips = d[0] + d[-1] + sum(map(operator.ne, d, d[1:]))
    switching = inst.beta * flips
    if inst.variant is Variant.MIN:
        total = accepted + switching
    else:
        total = accepted - switching
    return CostBreakdown(
        accepted_sum=accepted,
        switching_cost=switching,
        total=total,
        num_switches=flips,
    )


def lane_flips(decisions: np.ndarray) -> np.ndarray:
    """`evaluate_schedule`'s flip count of every 0/1 row along the last axis."""
    d = decisions
    return d[..., 0] + d[..., -1] + np.count_nonzero(d[..., 1:] != d[..., :-1], axis=-1)


def lane_total(
    prices: list[float], decisions: bytes, flips: int, beta: float, variant: Variant
) -> float:
    """`evaluate_schedule`'s total of one feasible schedule, bit for bit,
    from its prices, its decisions as 0/1 bytes and its `lane_flips` count."""
    accepted = math.fsum(itertools.compress(prices, decisions))
    if variant is Variant.MIN:
        return accepted + beta * flips
    return accepted - beta * flips


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
