"""Exact offline optima: dynamic program plus a brute-force oracle.

The DP runs over states (slot t, units used j, previous decision p) with
transitions that add the price on accept and beta on every 0<->1 flip,
including the implicit boundary flips at t = 0 and t = T+1.  It is exact for
every beta >= 0, both variants, in O(T*k) time and memory.

The kernel loops in Python over the units only: layer j (every state with j
units accepted) depends on layer j-1 and on itself through a running minimum,
so each layer is a handful of numpy passes over all T slots.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .core import CostBreakdown, Instance, Schedule, Variant, evaluate_schedule
from .errors import SizeError

_INF = np.inf


def _dp_kernel(prices: np.ndarray, k: int, beta: float):
    """Forward pass: final (k+1, 2) cost table and (T, k+1, 2) backpointers.

    O(T*k) work in k numpy passes over the slots.  With on_t(j) / off_t(j) the
    cheapest cost after slot t with j units accepted and x_t = 1 / 0:

        on_t(j)  = min(on_{t-1}(j-1), off_{t-1}(j-1) + beta) + c_t
        off_t(j) = min(off_{t-1}(j), on_{t-1}(j) + beta)

    The first reads only layer j-1, so a whole row is one select and one add.
    The second unrolls to the running minimum of on_s(j) + beta over s < t,
    one `np.minimum.accumulate`.  Every cost comes from the same IEEE adds as
    when the recurrences are evaluated slot by slot, and min and compare
    round nothing, so the table and the backpointers do not depend on the
    evaluation order.  Ties stay (no switch).
    """
    T = prices.shape[0]
    cost = np.empty((k + 1, 2))
    prev_choice = np.zeros((T, k + 1, 2), dtype=np.uint8)
    # entry s of a layer is the state after slot s-1; entry 0 is the start,
    # where only (j=0, off) is reachable.  Layer 0 stays off at cost 0 and
    # its backpointers stay 0.
    on = np.full(T + 1, _INF)
    off = np.zeros(T + 1)
    cost[0] = off[-1], on[-1]
    for j in range(1, k + 1):
        # x_t = 1: stay on vs switch on (+beta) from layer j-1; ties stay
        on_stay = on[:-1]
        on_switch = off[:-1] + beta
        keep_on = on_stay <= on_switch
        on = np.empty(T + 1)
        on[0] = _INF
        np.add(np.where(keep_on, on_stay, on_switch), prices, out=on[1:])
        prev_choice[:, j, 1] = keep_on
        # x_t = 0: switch off (+beta) only when strictly cheaper than staying
        off_switch = np.empty(T + 1)
        off_switch[0] = _INF
        np.add(on[:-1], beta, out=off_switch[1:])
        off = np.minimum.accumulate(off_switch)
        prev_choice[:, j, 0] = off[:-1] > off_switch[1:]
        cost[j] = off[-1], on[-1]
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
