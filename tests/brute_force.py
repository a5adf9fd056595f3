"""Exhaustive offline oracle for small instances, independent of the DP.

Criterion-3 of the acceptance suite and ``test_offline.py`` check the
package's DP against it; no user path of ``opr`` needs it.
"""

import math
from itertools import combinations

from opr.core import CostBreakdown, Instance, Schedule, Variant, evaluate_schedule
from opr.errors import OprError


class SizeError(OprError):
    """Exhaustive enumeration guard exceeded."""


def brute_force_optimal(inst: Instance) -> tuple[Schedule, CostBreakdown]:
    """Enumerate every k-subset of slots.

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
