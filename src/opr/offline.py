"""Exact offline optima: a dynamic program and its backtrace.

The DP runs over states (slot t, units used j, previous decision p) with
transitions that add the price on accept and beta on every 0<->1 flip,
including the implicit boundary flips at t = 0 and t = T+1.  It is exact for
every beta >= 0, both variants, in O(T*k) time and memory.

The kernel is batched over trials and loops over the units only: layer j
(every state with j units accepted) depends on layer j-1 and on itself
through a running minimum, so each layer is a handful of numpy passes over
all n*T slots of the batch.  Its backpointers are bits, packed 8 slots a
byte, and `dp_batch_len` sizes a batch by the kernel's whole working set.
The backtrace steps once per accept and once per run of rejects.
`dp_decisions` is the one entry point: `run_experiment` calls it on a lane
pass's (n, T) prices, and `dp_optimal` on the one row of an instance.
"""

from __future__ import annotations

import numpy as np

from .core import CostBreakdown, Instance, Schedule, Variant, evaluate_schedule

_INF = np.inf

#: byte budget of one kernel call's working set, packed bits plus float rows
_DP_BATCH_BYTES = 512 * 1024


def dp_batch_len(T: int, k: int) -> int:
    """How many instances of horizon T and k units one kernel call may take
    within `_DP_BATCH_BYTES` (at least one).

    An instance costs its (k+1, 2, ceil(T/8)) packed backpointer bytes, plus
    five float64 rows (prices and the four layer buffers) and the two bool
    rows of the compare scratch, each counted at T+1 slots.
    """
    row_bytes = (k + 1) * 2 * ((T + 7) // 8) + (5 * 8 + 2) * (T + 1)
    return max(1, _DP_BATCH_BYTES // row_bytes)


def _dp_kernel(prices: np.ndarray, k: int, beta: float):
    """(n, T) prices: final (2, n) costs, (k+1, 2, n, ceil(T/8)) packed
    backpointers.

    O(n*T*k) work in k rounds of numpy passes.  With on_t(j) / off_t(j) the
    cheapest cost of a row after slot t with j units accepted and x_t = 1 / 0:

        on_t(j)  = min(on_{t-1}(j-1), off_{t-1}(j-1) + beta) + c_t
        off_t(j) = min(off_{t-1}(j), on_{t-1}(j) + beta)

    The first reads only layer j-1, so a whole layer is one minimum and one
    add.  The second unrolls to the running minimum of on_s(j) + beta over
    s < t, one `np.minimum.accumulate` along the slots.  Every cost comes from
    the same IEEE adds as slot by slot, and min and compare round nothing, so
    the costs and the backpointers depend neither on the evaluation order nor
    on the other rows.  Ties stay (no switch).

    Backpointer [j, p, i, t] says whether row i's state (slot t, j units,
    x_t = p) came from x_{t-1} = 1; it is bit t % 8 of byte t // 8
    (``bitorder="little"``).  Each layer's two compares go into one reused
    (2, n, T) bool scratch that is packed along the slots.
    """
    n, T = prices.shape
    packed = np.zeros((k + 1, 2, n, (T + 7) // 8), dtype=np.uint8)
    back = np.empty((2, n, T), dtype=bool)
    # column s of a layer is the state after slot s-1; column 0 is the start,
    # where only (j=0, off) is reachable.  Layer 0 stays off at cost 0 and
    # its backpointers stay 0.  Each layer overwrites these buffers in place.
    on = np.full((n, T + 1), _INF)
    off = np.zeros((n, T + 1))
    off_switch = np.full((n, T + 1), _INF)
    best_on = np.empty((n, T))
    on_prev, on_next = on[:, :-1], on[:, 1:]
    off_prev, off_switch_next = off[:, :-1], off_switch[:, 1:]
    for j in range(1, k + 1):
        # x_t = 1: stay on vs switch on (+beta) from layer j-1; ties stay.
        # Costs are never NaN or -0.0, so the minimum is the chosen one.
        np.add(off_prev, beta, out=best_on)
        np.less_equal(on_prev, best_on, out=back[1])
        np.minimum(on_prev, best_on, out=best_on)
        np.add(best_on, prices, out=on_next)
        # x_t = 0: switch off (+beta) only when strictly cheaper than staying
        np.add(on_prev, beta, out=off_switch_next)
        np.minimum.accumulate(off_switch, axis=1, out=off)
        np.greater(off_prev, off_switch_next, out=back[0])
        packed[j] = np.packbits(back, axis=-1, bitorder="little")
    return np.stack((off[:, -1], on[:, -1])), packed


def dp_decisions(prices: np.ndarray, k: int, beta: float, variant: Variant) -> np.ndarray:
    """The optimal decisions of every row of (n, T) prices, as (n, T) int8.

    The rows share k, beta and the variant.  The kernel solves `dp_batch_len`
    rows a call.  Each row's backtrace walks back from slot T one accept at a
    time, skips a run of rejects to its highest set off backpointer by one bit
    search, and stops at the row's first accept.
    """
    n, T = prices.shape
    out = bytearray(n * T)
    step = dp_batch_len(T, k)
    for start in range(0, n, step):
        rows = prices[start : start + step]
        cost, packed = _dp_kernel(rows if variant is Variant.MIN else -rows, k, beta)
        # closing boundary: a final x_T = 1 pays one more flip
        close_on = (cost[0] > cost[1] + beta).tolist()
        back, batch, width = memoryview(packed.reshape(-1)), len(rows), packed.shape[-1]
        for i, p in enumerate(close_on):
            j, t, row = k, T - 1, (start + i) * T
            while j and t >= 0:
                if p:  # an accept: its backpointer says whether x_{t-1} = 1
                    out[row + t] = 1
                    p = (back[((j * 2 + 1) * batch + i) * width + (t >> 3)] >> (t & 7)) & 1
                    j, t = j - 1, t - 1
                else:  # an idle run s..t: bit s is the highest set off backpointer <= t
                    bits = int.from_bytes(packed[j, 0, i], "little") & ((2 << t) - 1)
                    t, p = bits.bit_length() - 2, 1
    return np.frombuffer(out, dtype=np.int8).reshape(n, T)


def dp_optimal(inst: Instance) -> tuple[Schedule, CostBreakdown]:
    """Exact optimum over all feasible schedules: `dp_decisions` on the one
    row of its prices, scored by `evaluate_schedule`.

    The max variant runs the same kernel on negated prices: maximizing
    sum(c x) - beta*switches is minimizing sum(-c x) + beta*switches.
    Ties break toward the no-switch predecessor and a rejected final state,
    which lands accepted blocks as early as possible and makes the backtrace
    reproducible.
    """
    prices = np.array([inst.prices], dtype=np.float64)
    [row] = dp_decisions(prices, inst.k, float(inst.beta), inst.variant).tolist()
    sched = Schedule(tuple(row))
    return sched, evaluate_schedule(inst, sched)
