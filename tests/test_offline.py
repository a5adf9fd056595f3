"""Offline optimum: DP against the exhaustive oracle (``tests/brute_force.py``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import SizeError, brute_force_optimal
from opr.core import Instance, Variant, evaluate_schedule
from opr.errors import ParameterError
from opr import offline
from opr.offline import _dp_kernel, dp_decisions, dp_optimal


def inst(prices, k, beta, variant=Variant.MIN, L=None, U=None):
    return Instance(
        k=k,
        T=len(prices),
        L=min(prices) if L is None else L,
        U=max(prices) if U is None else U,
        beta=beta,
        variant=variant,
        prices=tuple(prices),
    )


class TestExamples:
    def test_constant_prices(self):
        _, cb = dp_optimal(inst([3] * 5, 3, 2))
        assert cb.total == pytest.approx(13.0)

    def test_alternating_small_beta(self):
        sched, cb = dp_optimal(inst([9, 1, 9, 1, 9], 2, 1))
        assert cb.total == pytest.approx(6.0)
        assert sched.decisions == (0, 1, 0, 1, 0)

    def test_alternating_large_beta_prefers_contiguous(self):
        _, cb = dp_optimal(inst([9, 1, 9, 1, 9], 2, 5))
        assert cb.total == pytest.approx(20.0)

    def test_max_variant(self):
        _, cb = dp_optimal(inst([1, 9, 1, 9, 1], 2, 1, Variant.MAX))
        assert cb.total == pytest.approx(14.0)

    def test_brute_force_all_slots(self):
        sched, _ = brute_force_optimal(inst([5, 6, 7], 3, 1))
        assert sched.decisions == (1, 1, 1)

    def test_brute_force_examples(self):
        assert brute_force_optimal(inst([9, 1, 9, 1, 9], 2, 1))[1].total == pytest.approx(6.0)
        assert brute_force_optimal(inst([1, 9, 1, 9, 1], 2, 1, Variant.MAX))[1].total == pytest.approx(14.0)

    def test_brute_force_guard(self):
        prices = list(range(1, 41))
        with pytest.raises(SizeError):
            brute_force_optimal(inst(prices, 20, 1))


@st.composite
def small_instances(draw):
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    T = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=min(T, 4)))
    L = draw(st.floats(min_value=0.5, max_value=5))
    U = L * draw(st.floats(min_value=1.0, max_value=20))
    beta = draw(st.floats(min_value=0, max_value=1)) * U
    raw = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=T, max_size=T))
    prices = tuple(min(max(L + r * (U - L), L), U) for r in raw)
    return Instance(k=k, T=T, L=L, U=U, beta=beta, variant=variant, prices=prices)


class TestAgainstOracle:
    @given(small_instances())
    @settings(max_examples=250, deadline=None)
    def test_dp_matches_brute_force(self, instance):
        _, dp = dp_optimal(instance)
        _, bf = brute_force_optimal(instance)
        assert dp.total == pytest.approx(bf.total, abs=1e-9)

    @given(small_instances())
    @settings(max_examples=150, deadline=None)
    def test_schedule_reproduces_total(self, instance):
        sched, cb = dp_optimal(instance)
        assert sched.num_accepted() == instance.k
        again = evaluate_schedule(instance, sched)
        assert again.total == pytest.approx(cb.total, abs=1e-12)

    @given(small_instances())
    @settings(max_examples=150, deadline=None)
    def test_optimal_total_bounds(self, instance):
        _, cb = dp_optimal(instance)
        lo_price, hi_price = min(instance.prices), max(instance.prices)
        if instance.variant is Variant.MIN:
            assert instance.k * lo_price + 2 * instance.beta - 1e-9 <= cb.total
            assert cb.total <= instance.k * hi_price + 2 * instance.k * instance.beta + 1e-9
        else:
            assert cb.total <= instance.k * hi_price - 2 * instance.beta + 1e-9


def slot_by_slot_decisions(instance):
    """Pure-Python DP over (slot, units, last decision) with dp_optimal's
    documented tie rules: every comparison keeps the no-switch predecessor
    on a tie, and the close prefers a rejected final state."""
    sign = 1.0 if instance.variant is Variant.MIN else -1.0
    k, beta = instance.k, instance.beta
    cost = [[math.inf, math.inf] for _ in range(k + 1)]
    cost[0][0] = 0.0
    back = []
    for price in instance.prices:
        new = [[math.inf, math.inf] for _ in range(k + 1)]
        choice = [[0, 0] for _ in range(k + 1)]
        for j in range(k + 1):
            stay, switch = cost[j][0], cost[j][1] + beta
            new[j][0], choice[j][0] = (stay, 0) if stay <= switch else (switch, 1)
            if j:
                stay, switch = cost[j - 1][1], cost[j - 1][0] + beta
                best, choice[j][1] = (stay, 1) if stay <= switch else (switch, 0)
                new[j][1] = best + sign * price
        cost = new
        back.append(choice)
    p = 0 if cost[k][0] <= cost[k][1] + beta else 1
    decisions, j = [], k
    for choice in reversed(back):
        decisions.append(p)
        p, j = choice[j][p], j - p
    return tuple(reversed(decisions))


@st.composite
def tie_heavy_instances(draw):
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    T = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=T))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    prices = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=T, max_size=T))
    return Instance(k=k, T=T, L=1, U=4, beta=beta, variant=variant, prices=tuple(prices))


class TestTieBreaks:
    @given(tie_heavy_instances())
    @settings(max_examples=200, deadline=None)
    def test_schedule_follows_the_documented_tie_rules(self, instance):
        # integer prices and dyadic beta make every total exact, so ties are
        # real and the chosen schedule is pinned, not just its total
        sched, cb = dp_optimal(instance)
        assert sched.decisions == slot_by_slot_decisions(instance)
        assert cb.total == brute_force_optimal(instance)[1].total


def byte_per_state_kernel(prices, k, beta):
    """The batched kernel with one backpointer byte a state: (k+1, 2, n)
    costs of every layer and (k+1, 2, n, T) uint8 backpointers."""
    n, T = prices.shape
    cost = np.empty((k + 1, 2, n))
    prev_choice = np.zeros((k + 1, 2, n, T), dtype=np.uint8)
    back = prev_choice.view(bool)
    on = np.full((n, T + 1), np.inf)
    off = np.zeros((n, T + 1))
    off_switch = np.full((n, T + 1), np.inf)
    best_on = np.empty((n, T))
    on_prev, on_next = on[:, :-1], on[:, 1:]
    off_prev, off_switch_next = off[:, :-1], off_switch[:, 1:]
    cost[0] = off[:, -1], on[:, -1]
    for j in range(1, k + 1):
        np.add(off_prev, beta, out=best_on)
        np.less_equal(on_prev, best_on, out=back[j, 1])
        np.minimum(on_prev, best_on, out=best_on)
        np.add(best_on, prices, out=on_next)
        np.add(on_prev, beta, out=off_switch_next)
        np.minimum.accumulate(off_switch, axis=1, out=off)
        np.greater(off_prev, off_switch_next, out=back[j, 0])
        cost[j] = off[:, -1], on[:, -1]
    return cost, prev_choice


@st.composite
def tie_heavy_batches(draw):
    """1..6 instances sharing (k, T, beta, variant), with small integer prices."""
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    n = draw(st.integers(min_value=1, max_value=6))
    T = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=T))
    beta = draw(
        st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(min_value=0, max_value=5))
    )
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=4), min_size=T, max_size=T),
            min_size=n,
            max_size=n,
        )
    )
    return [
        Instance(k=k, T=T, L=1, U=4, beta=beta, variant=variant, prices=tuple(row))
        for row in rows
    ]


def parent_backtrace(batch):
    """The decision rows of the backtrace the DP ran before `dp_decisions`:
    one kernel call for the whole batch, and every slot walked from T down
    to 1, one step a slot, where `dp_decisions` skips each run of rejected
    slots in one step."""
    k, T, beta = batch[0].k, batch[0].T, float(batch[0].beta)
    sign = 1.0 if batch[0].variant is Variant.MIN else -1.0
    cost, packed = _dp_kernel(sign * np.array([inst.prices for inst in batch]), k, beta)
    close_on = (cost[0] > cost[1] + beta).tolist()
    back, n, width = memoryview(packed.reshape(-1)), len(batch), packed.shape[-1]
    rows = []
    for i in range(n):
        decisions = [0] * T
        j, p = k, int(close_on[i])
        for t in range(T - 1, -1, -1):
            decisions[t] = p
            q = (back[((j * 2 + p) * n + i) * width + (t >> 3)] >> (t & 7)) & 1
            j -= p
            p = q
        rows.append(decisions)
    return rows


@st.composite
def random_batches(draw):
    """1..8 instances sharing (k, T, beta, variant): float or tie-heavy
    integer prices (1 to 5), k of 1, T or between, beta 0, drawn or past
    every price gap, and a DP byte budget that may split the batch into
    kernel calls of a few rows."""
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    T = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.one_of(st.just(1), st.just(T), st.integers(min_value=1, max_value=T)))
    beta = draw(st.one_of(st.sampled_from([0.0, 40.0]), st.floats(min_value=0, max_value=50)))
    ints = draw(st.booleans())
    value = st.integers(min_value=1, max_value=5) if ints else st.floats(min_value=1, max_value=40)
    batch = [
        Instance(k=k, T=T, L=1, U=40, beta=beta, variant=variant,
                 prices=tuple(draw(st.lists(value, min_size=T, max_size=T))))
        for _ in range(draw(st.integers(min_value=1, max_value=8)))
    ]
    return batch, draw(st.integers(min_value=1, max_value=4))


class TestSharedBacktrace:
    @given(random_batches())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_parent_backtrace(self, case):
        batch, rows_a_call = case
        inst = batch[0]
        prices = np.array([b.prices for b in batch])
        expected = parent_backtrace(batch)
        # a budget of `rows_a_call` rows a kernel call (the row bytes of
        # `dp_batch_len`)
        row_bytes = (inst.k + 1) * 2 * ((inst.T + 7) // 8) + 42 * (inst.T + 1)
        sign = 1.0 if inst.variant is Variant.MIN else -1.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(offline, "_DP_BATCH_BYTES", rows_a_call * row_bytes)
            assert offline.dp_batch_len(inst.T, inst.k) == rows_a_call
            decisions = dp_decisions(sign * prices, inst.k, float(inst.beta))
        assert decisions.dtype == np.int8 and decisions.shape == (len(batch), inst.T)
        assert decisions.tolist() == expected


class TestBatchedDP:
    @given(tie_heavy_batches())
    @settings(max_examples=200, deadline=None)
    def test_every_lane_equals_its_own_dp(self, batch):
        # a max batch's rows are the negated prices' own, as `dp_optimal`
        # solves each max instance
        first = batch[0]
        sign = 1.0 if first.variant is Variant.MIN else -1.0
        prices = sign * np.array([inst.prices for inst in batch], dtype=np.float64)
        rows = dp_decisions(prices, first.k, float(first.beta)).tolist()
        assert len(rows) == len(batch)
        for instance, row in zip(batch, rows):
            sched, _ = dp_optimal(instance)
            assert tuple(row) == sched.decisions == slot_by_slot_decisions(instance)

    @given(tie_heavy_batches())
    @settings(max_examples=200, deadline=None)
    def test_every_lane_of_the_kernel_equals_the_kernel_at_one_row(self, batch):
        sign = 1.0 if batch[0].variant is Variant.MIN else -1.0
        prices = sign * np.array([inst.prices for inst in batch], dtype=np.float64)
        k, beta = batch[0].k, float(batch[0].beta)
        cost, packed = _dp_kernel(prices, k, beta)
        T = batch[0].T
        assert cost.shape == (2, len(batch))
        assert packed.shape == (k + 1, 2, len(batch), (T + 7) // 8)
        for i in range(len(batch)):
            cost1, packed1 = _dp_kernel(prices[i : i + 1], k, beta)
            assert cost[:, i].tobytes() == cost1[:, 0].tobytes()
            assert packed[:, :, i].tobytes() == packed1[:, :, 0].tobytes()

    @given(tie_heavy_batches(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_packed_bits_equal_the_byte_per_state_kernel(self, batch, zero_beta):
        sign = 1.0 if batch[0].variant is Variant.MIN else -1.0
        prices = sign * np.array([inst.prices for inst in batch], dtype=np.float64)
        k, beta = batch[0].k, 0.0 if zero_beta else float(batch[0].beta)
        cost, packed = _dp_kernel(prices, k, beta)
        ref_cost, ref_back = byte_per_state_kernel(prices, k, beta)
        assert cost.tobytes() == ref_cost[k].tobytes()
        T = batch[0].T
        assert np.unpackbits(packed, axis=-1, count=T, bitorder="little").tobytes() == (
            ref_back.tobytes()
        )
        # the pad bits past slot T-1 are zero
        assert packed.tobytes() == np.packbits(ref_back, axis=-1, bitorder="little").tobytes()

    def test_empty_batch(self):
        decisions = dp_decisions(np.empty((0, 5)), 2, 1.0)
        assert decisions.dtype == np.int8 and decisions.shape == (0, 5)


@st.composite
def seam_batches(draw):
    """(n, T) signed prices, k and beta for the flat kernel's row seams:
    1..12 rows whose scales (1e-3 to 1e6) may differ from row to row, T at
    the byte edges or up to 80, k of 1, T or between, and beta 0, past every
    price gap or drawn."""
    n = draw(st.integers(min_value=1, max_value=12))
    T = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 15, 16, 17]), st.integers(1, 80)))
    k = draw(st.one_of(st.just(1), st.just(T), st.integers(min_value=1, max_value=T)))
    scales = draw(st.lists(st.sampled_from([1e-3, 1.0, 1e6]), min_size=n, max_size=n))
    unit = st.floats(min_value=1.0, max_value=4.0)
    prices = np.array(
        [[scale * v for v in draw(st.lists(unit, min_size=T, max_size=T))] for scale in scales]
    )
    beta = draw(st.one_of(st.just(0.0), st.just(8.0 * max(scales)), st.floats(0, 10)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return sign * prices, k, beta


class TestRowSeams:
    @given(seam_batches())
    @settings(max_examples=300, deadline=None)
    def test_kernel_bytes_equal_the_byte_per_state_kernel(self, case):
        # the flat kernel runs every row end to end in one buffer; a seam
        # cell leaking into a neighbour row of another scale changes a cost
        prices, k, beta = case
        T = prices.shape[1]
        cost, packed = _dp_kernel(prices, k, beta)
        ref_cost, ref_back = byte_per_state_kernel(prices, k, beta)
        assert cost.tobytes() == ref_cost[k].tobytes()
        assert packed.tobytes() == np.packbits(ref_back, axis=-1, bitorder="little").tobytes()
        assert packed.shape == (k + 1, 2, len(prices), (T + 7) // 8)


class TestPreconditions:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_prices_must_be_finite(self, bad):
        prices = np.ones((3, 4))
        prices[1, 2] = prices[2, 0] = bad
        with pytest.raises(
            ParameterError, match=rf"^need finite prices, got {bad} at row 1, slot 2$"
        ):
            dp_decisions(prices, 2, 1.0)

    @pytest.mark.parametrize("k", [0, -1, 4, 5])
    def test_k_must_be_within_1_to_T(self, k):
        # k > T used to return an all-zero row and k = 0 an empty schedule
        with pytest.raises(ParameterError, match=rf"^need 1 <= k <= T, got k={k}, T=3$"):
            dp_decisions(np.ones((1, 3)), k, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", list(Variant))
    def test_an_optimal_cost_that_overflows_is_refused(self, variant):
        # every schedule pays two flips of beta, which overflow at 1e308; the
        # backtrace of the all-inf costs used to return a row of no accepts.
        # A max instance's row is its negated prices.
        prices = (5.0, 1.0, 7.0, 2.0)
        sign = 1.0 if variant is Variant.MIN else -1.0
        message = r"^optimal cost overflows at beta=1e\+308, k=2$"
        with pytest.raises(ParameterError, match=message):
            dp_decisions(sign * np.array([prices]), 2, 1e308)
        with pytest.raises(ParameterError, match=message):
            dp_optimal(inst(prices, 2, 1e308, variant))
        # two flips of 8.9e307 stay finite, and so does the row's cost; the
        # prices round away beside them, so the tie lands the block first
        sched, cost = dp_optimal(inst(prices, 2, 8.9e307, variant))
        assert sched.decisions == (1, 1, 0, 0) and math.isfinite(cost.total)
