"""Exact offline optima: a dynamic program and its backtrace.

The DP runs over states (slot t, units used j, previous decision p) with
transitions that add the price on accept and beta on every 0<->1 flip,
including the implicit boundary flips at t = 0 and t = T+1.  It is exact for
every beta >= 0, both variants, in O(T*k) time and memory.

The kernel is batched over trials and loops over the units only: layer j
(every state with j units accepted) depends on layer j-1 and on itself
through a running minimum, so each layer is a handful of numpy passes.  A
batch's rows lie end to end in flat buffers, so each pass runs on contiguous
1-D operands, and each row's start cell is kept at inf where a shifted pass
carries the previous row's last cell into it.  The running minimum is
`np.fmin.accumulate`, bit for bit `np.minimum.accumulate` since no cost is
NaN (the prices are checked finite).  Its backpointers are bits, packed 8
slots a byte, and `dp_batch_len` sizes a batch by the kernel's whole working
set.
The backtrace steps once per accept and once per run of rejects.
`dp_decisions` is the one entry point: `run_experiment` calls it on a lane
pass's (n, T) prices, and `dp_optimal` on the one row of an instance.
"""

from __future__ import annotations

import numpy as np

from .core import CostBreakdown, Instance, Schedule, Variant, evaluate_schedule
from .errors import ParameterError

_INF = np.inf

#: byte budget of one kernel call's working set, packed bits plus float rows
_DP_BATCH_BYTES = 512 * 1024


def dp_batch_len(T: int, k: int) -> int:
    """How many instances of horizon T and k units one kernel call may take
    within `_DP_BATCH_BYTES` (at least one).

    An instance costs its (k+1, 2, ceil(T/8)) packed backpointer bytes, plus
    five float64 rows (the prices, their inf-padded copy, on, off and one
    scratch) and the two bool rows of the compare scratch, each counted at
    T+1 slots.
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
    s < t, one `np.fmin.accumulate` along the slots.  Every cost comes from
    the same IEEE adds as slot by slot, and min and compare round nothing, so
    the costs and the backpointers depend neither on the evaluation order nor
    on the other rows.  Ties stay (no switch).

    The rows lie end to end, W = T+1 cells each (cell i*W + t: row i after
    slot t-1; cell i*W: its start), so the previous and next slots of every
    row are the contiguous views ``buf[:-1]`` and ``buf[1:]``.  A shifted write
    carries each row's last cell into the next row's start.  on's start cells
    stay inf, since the padded prices are inf there; s's are reset to inf
    before the running minimum; their compares are cut off before packing.
    No cost is NaN (finite prices and beta; inf, never -inf, where a state is
    unreachable), so `fmin`, faster in numpy, gives the bits of `minimum`.

    Backpointer [j, p, i, t] says whether row i's state (slot t, j units,
    x_t = p) came from x_{t-1} = 1; it is bit t % 8 of byte t // 8
    (``bitorder="little"``).  Each layer's two compares go into one reused
    (2, n, W) bool scratch whose first T columns are packed along the slots.
    """
    n, T = prices.shape
    W = T + 1
    packed = np.zeros((k + 1, 2, n, (T + 7) // 8), dtype=np.uint8)
    back = np.empty((2, n, W), dtype=bool)
    flat_back = back.reshape(2, -1)[:, :-1]
    # Layer 0 stays off at cost 0, backpointers 0; a start reaches only
    # (j=0, off).  Each layer overwrites on and off in place.  s holds best-on,
    # then the switch-off candidates; c is the prices, inf at each start, so
    # on's start cells stay inf and only s's seams need a reset.
    on = np.full(n * W, _INF)
    off = np.zeros(n * W)
    s = np.full(n * W, _INF)
    c = np.full(n * W, _INF)
    c.reshape(n, W)[:, 1:] = prices
    on_prev, on_next, off_prev, s_next, c_next = on[:-1], on[1:], off[:-1], s[1:], c[1:]
    s_rows, off_rows, s_seams = s.reshape(n, W), off.reshape(n, W), s[W::W]
    for j in range(1, k + 1):
        # x_t = 1: stay on vs switch on (+beta) from layer j-1; ties stay.
        # Costs are never NaN or -0.0, so the minimum is the chosen one.
        np.add(off_prev, beta, out=s_next)
        np.less_equal(on_prev, s_next, out=flat_back[1])
        np.minimum(on_prev, s_next, out=s_next)
        np.add(s_next, c_next, out=on_next)
        # x_t = 0: switch off (+beta) only when strictly cheaper than staying
        np.add(on_prev, beta, out=s_next)
        s_seams.fill(_INF)
        np.fmin.accumulate(s_rows, axis=1, out=off_rows)
        np.greater(off_prev, s_next, out=flat_back[0])
        packed[j] = np.packbits(back[:, :, :T], axis=-1, bitorder="little")
    return np.stack((off[T::W], on[T::W])), packed


@np.errstate(over="ignore")  # an inf cost already means no schedule passes there
def dp_decisions(prices: np.ndarray, k: int, beta: float, variant: Variant) -> np.ndarray:
    """The optimal decisions of every row of (n, T) prices, as (n, T) int8.

    The rows share k, beta and the variant.  The kernel solves `dp_batch_len`
    rows a call.  Each row's backtrace walks back from slot T one accept at a
    time, skips a run of rejects to its highest set off backpointer by one bit
    search, and stops at the row's first accept.  k outside 1..T or a price
    that is not finite raises `ParameterError`, before any kernel call, and
    so does a row whose optimal cost is not finite, after its kernel call.
    """
    n, T = prices.shape
    if not 1 <= k <= T:
        raise ParameterError(f"need 1 <= k <= T, got k={k}, T={T}")
    # NaN fails both compares.  min and max are reductions sample_pass already
    # runs; an isfinite pass here raised case-min's peak RSS by about 0.2 MB.
    if not (-_INF < prices.min(initial=_INF) and prices.max(initial=-_INF) < _INF):
        i, t = np.argwhere(~np.isfinite(prices))[0].tolist()
        raise ParameterError(f"need finite prices, got {prices[i, t]} at row {i}, slot {t}")
    out = bytearray(n * T)
    step = dp_batch_len(T, k)
    for start in range(0, n, step):
        rows = prices[start : start + step]
        cost, packed = _dp_kernel(rows if variant is Variant.MIN else -rows, k, beta)
        closed = cost[1] + beta  # closing boundary: a final x_T = 1 pays one more flip
        best = np.minimum(cost[0], closed)  # checked by min and max, as the prices are
        if not (-_INF < best.min() and best.max() < _INF):
            raise ParameterError(f"optimal cost overflows at beta={beta}, k={k}")
        close_on = (cost[0] > closed).tolist()
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
