"""Exact offline optima: dynamic program plus a brute-force oracle.

The DP runs over states (slot t, units used j, previous decision p) with
transitions that add the price on accept and beta on every 0<->1 flip,
including the implicit boundary flips at t = 0 and t = T+1.  It is exact for
every beta >= 0, both variants, in O(T*k) time and memory.

The kernel is vectorized with numpy over the units axis and loops in Python
over the slots only.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .core import CostBreakdown, Instance, Schedule, Variant, evaluate_schedule
from .errors import SizeError

_INF = np.inf


def _dp_kernel(prices: np.ndarray, k: int, beta: float):
    """Forward pass: final (k+1, 2) cost table and (T, k+1, 2) backpointers."""
    T = prices.shape[0]
    cost = np.full((k + 1, 2), _INF)
    cost[0, 0] = 0.0
    prev_choice = np.zeros((T, k + 1, 2), dtype=np.uint8)
    for t in range(T):
        c = prices[t]
        new = np.full((k + 1, 2), _INF)
        # x_t = 0: stay off (q=0) vs switch off (q=1, +beta); ties stay
        off_stay = cost[:, 0]
        off_switch = cost[:, 1] + beta
        take_stay = off_stay <= off_switch
        new[:, 0] = np.where(take_stay, off_stay, off_switch)
        prev_choice[t, :, 0] = np.where(take_stay, 0, 1)
        # x_t = 1: stay on (q=1) vs switch on (q=0, +beta); ties stay
        on_stay = cost[:-1, 1]
        on_switch = cost[:-1, 0] + beta
        keep_on = on_stay <= on_switch
        new[1:, 1] = np.where(keep_on, on_stay, on_switch) + c
        prev_choice[t, 1:, 1] = np.where(keep_on, 1, 0)
        cost = new
    return cost, prev_choice


def dp_optimal(inst: Instance) -> tuple[Schedule, CostBreakdown]:
    """Exact optimum over all feasible schedules.

    The max variant runs the same kernel on negated prices: maximizing
    sum(c x) - beta*switches is minimizing sum(-c x) + beta*switches.
    Ties break toward the no-switch predecessor and a rejected final state,
    which lands accepted blocks as early as possible and makes the backtrace
    reproducible.
    """
    sign = 1.0 if inst.variant is Variant.MIN else -1.0
    prices = sign * np.asarray(inst.prices, dtype=np.float64)
    cost, prev_choice = _dp_kernel(prices, inst.k, float(inst.beta))

    # closing boundary: a final x_T = 1 pays one more flip
    end_off = cost[inst.k, 0]
    end_on = cost[inst.k, 1] + inst.beta
    p = 0 if end_off <= end_on else 1

    decisions = np.zeros(inst.T, dtype=np.int64)
    j = inst.k
    for t in range(inst.T - 1, -1, -1):
        decisions[t] = p
        q = int(prev_choice[t, j, p])
        j -= p
        p = q
    sched = Schedule(tuple(int(x) for x in decisions))
    return sched, evaluate_schedule(inst, sched)


def brute_force_optimal(inst: Instance) -> tuple[Schedule, CostBreakdown]:
    """Independent oracle: enumerate every k-subset of slots.

    Guarded at C(T, k) <= 10^6.  Ties break toward the lexicographically
    smallest decision vector.
    """
    n_subsets = math.comb(inst.T, inst.k)
    if n_subsets > 10**6:
        raise SizeError(f"C({inst.T},{inst.k})={n_subsets} exceeds the 1e6 guard")
    best_sched: Schedule | None = None
    best_cost: CostBreakdown | None = None
    minimizing = inst.variant is Variant.MIN
    for subset in combinations(range(inst.T), inst.k):
        decisions = [0] * inst.T
        for idx in subset:
            decisions[idx] = 1
        sched = Schedule(tuple(decisions))
        cb = evaluate_schedule(inst, sched)
        if best_cost is None:
            best_sched, best_cost = sched, cb
            continue
        better = cb.total < best_cost.total if minimizing else cb.total > best_cost.total
        if better or (cb.total == best_cost.total and sched.decisions < best_sched.decisions):
            best_sched, best_cost = sched, cb
    assert best_sched is not None and best_cost is not None
    return best_sched, best_cost
