"""Instance/schedule construction and exact objective evaluation."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr import core
from opr.core import (
    Instance,
    Schedule,
    Variant,
    cost_ratio,
    evaluate_schedule,
    lane_totals,
)
from opr.errors import DegenerateProfitError, FeasibilityError, ParameterError, StructuralError
from opr.offline import dp_optimal


def make_min(prices, k, beta=1.0, L=None, U=None):
    L = min(prices) if L is None else L
    U = max(prices) if U is None else U
    return Instance(
        k=k, T=len(prices), L=L, U=U, beta=beta, variant=Variant.MIN, prices=tuple(prices)
    )


class TestConstruction:
    # L and U are finite, so [L, U] holds no NaN, inf or -inf price either
    @pytest.mark.parametrize("bad", [1.0, 6.0, math.nan, math.inf, -math.inf])
    def test_prices_outside_bounds_rejected(self, bad):
        with pytest.raises(ParameterError) as info:
            Instance(k=1, T=2, L=2, U=5, beta=0, variant=Variant.MIN, prices=(3, bad))
        assert str(info.value) == f"price c_2={bad} outside [L, U]=[2, 5]"

    def test_price_types(self):
        # a string or bytes price is not read as a number, as in check_cell
        for bad in ("5", b"3"):
            with pytest.raises(TypeError):
                Instance(k=1, T=2, L=2, U=5, beta=0, variant=Variant.MIN, prices=(3, bad))
        # numpy scalars and ints are prices, stored as floats
        inst = Instance(k=1, T=3, L=2, U=5, beta=0, variant=Variant.MIN,
                        prices=(np.float64(2.5), np.int64(3), np.float32(4.5)))
        assert [(type(p), p) for p in inst.prices] == [(float, 2.5), (float, 3.0), (float, 4.5)]
        with pytest.raises(ParameterError, match=r"^price c_1=6\.0 outside"):
            Instance(k=1, T=1, L=2, U=5, beta=0, variant=Variant.MIN, prices=(np.int64(6),))

    def test_bad_bounds(self):
        with pytest.raises(ParameterError):
            Instance(k=1, T=1, L=5, U=2, beta=0, variant=Variant.MIN, prices=(3,))
        with pytest.raises(ParameterError):
            Instance(k=1, T=1, L=0, U=2, beta=0, variant=Variant.MIN, prices=(1,))
        with pytest.raises(ParameterError):
            Instance(k=1, T=1, L=1, U=math.inf, beta=0, variant=Variant.MIN, prices=(1,))

    def test_k_range(self):
        with pytest.raises(ParameterError):
            Instance(k=3, T=2, L=1, U=2, beta=0, variant=Variant.MIN, prices=(1, 2))
        with pytest.raises(ParameterError):
            Instance(k=0, T=2, L=1, U=2, beta=0, variant=Variant.MIN, prices=(1, 2))
        # a non-integer or NaN k passes 1 <= k <= T; it used to construct and
        # make dp_optimal raise a raw TypeError
        for k in (2.5, math.nan, math.inf):
            with pytest.raises(ParameterError):
                Instance(k=k, T=3, L=1, U=3, beta=0.5, variant=Variant.MIN, prices=(1, 2, 3))
        inst = Instance(k=2.0, T=3, L=1, U=3, beta=0.5, variant=Variant.MIN, prices=(1, 2, 3))
        assert dp_optimal(inst)[0].decisions == (1, 1, 0)

    def test_negative_beta(self):
        with pytest.raises(ParameterError):
            Instance(k=1, T=1, L=1, U=2, beta=-1, variant=Variant.MIN, prices=(1,))

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta(self, beta):
        # NaN passes `beta < 0`; it used to reach the DP as a NaN switching cost
        with pytest.raises(ParameterError):
            Instance(k=1, T=1, L=1, U=2, beta=beta, variant=Variant.MIN, prices=(1,))

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            Instance(k=1, T=3, L=1, U=2, beta=0, variant=Variant.MIN, prices=(1, 2))

    def test_schedule_entries_checked(self):
        with pytest.raises(StructuralError):
            Schedule((0, 2, 1))
        with pytest.raises(StructuralError, match="got 2$"):
            Schedule((0, 2))
        # the message names the first bad value
        with pytest.raises(StructuralError, match="got 3$"):
            Schedule((1, 3, 0, 2))
        # values are checked before int(), which used to truncate them
        for raw, bad in (((1.5, 0), "1.5"), ((0.7, 1), "0.7"), ((1, np.float64(-0.5)), "-0.5"),
                         ((0, math.nan), "nan")):
            with pytest.raises(StructuralError, match=f"got {bad}$"):
                Schedule(raw)
        assert Schedule((1.0, np.float64(0.0), 1)).decisions == (1, 0, 1)

    def test_schedule_accepts_numpy_ints_and_bools(self):
        for raw in ((np.int64(1), np.int8(0), np.uint8(1)), (True, False, True)):
            sched = Schedule(raw)
            assert sched.decisions == (1, 0, 1)
            assert all(type(x) is int for x in sched.decisions)


class TestEvaluateSchedule:
    def test_contiguous_block(self):
        inst = make_min([5, 5, 5], k=2)
        cb = evaluate_schedule(inst, Schedule((1, 1, 0)))
        assert cb.accepted_sum == 10
        assert cb.switching_cost == 2
        assert cb.total == 12
        assert cb.num_switches == 2

    def test_two_blocks(self):
        inst = make_min([5, 5, 5], k=2)
        cb = evaluate_schedule(inst, Schedule((1, 0, 1)))
        assert cb.total == 14
        assert cb.num_switches == 4

    def test_max_subtracts_switching(self):
        inst = Instance(
            k=2, T=3, L=5, U=5, beta=1, variant=Variant.MAX, prices=(5, 5, 5)
        )
        cb = evaluate_schedule(inst, Schedule((1, 0, 1)))
        assert cb.total == 6

    def test_infeasible_raises(self):
        inst = make_min([5, 5, 5], k=2)
        with pytest.raises(FeasibilityError):
            evaluate_schedule(inst, Schedule((1, 0, 0)))

    def test_exact_count(self):
        inst = make_min([5, 5, 5], k=2)
        assert evaluate_schedule(inst, Schedule((1, 1, 0))).num_switches == 2

    def test_too_many(self):
        inst = make_min([5, 5, 5], k=2)
        message = "^schedule accepts 3 prices, instance requires k=2$"
        with pytest.raises(FeasibilityError, match=message):
            evaluate_schedule(inst, Schedule((1, 1, 1)))

    def test_all_slots(self):
        inst = make_min([5, 5, 5], k=3)
        assert evaluate_schedule(inst, Schedule((1, 1, 1))).total == 17

    def test_length_mismatch(self):
        inst = make_min([5, 5, 5], k=2)
        with pytest.raises(StructuralError, match="^schedule has length 2, expected T=3$"):
            evaluate_schedule(inst, Schedule((1, 1)))

    def test_trailing_block_counts_boundary_flip(self):
        inst = make_min([5, 5], k=1)
        cb = evaluate_schedule(inst, Schedule((0, 1)))
        assert cb.num_switches == 2

    @pytest.mark.parametrize(
        "decisions, flips",
        [
            ((1,), 2),  # T = 1
            ((1, 1, 1, 1), 2),  # k = T
            ((0, 0, 1, 1), 2),  # block ends at slot T: closing flip charged
            ((1, 0, 1, 0, 1), 6),  # alternating, both ends on
            ((0, 1, 0, 1, 0), 4),  # alternating, both ends off
        ],
    )
    def test_edge_schedules(self, decisions, flips):
        prices = tuple(float(3 + t) for t in range(len(decisions)))
        inst = make_min(prices, k=sum(decisions), beta=0.5, L=1, U=20)
        for raw in (decisions, tuple(np.array(decisions)), tuple(bool(x) for x in decisions)):
            cb = evaluate_schedule(inst, Schedule(raw))
            assert cb.num_switches == flips == _loop_flips(decisions)
            assert cb.accepted_sum == sum(p for p, x in zip(prices, decisions) if x)
            assert cb.total == cb.accepted_sum + 0.5 * flips


@st.composite
def feasible_cases(draw):
    T = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=T))
    beta = draw(st.floats(min_value=0, max_value=10, allow_nan=False))
    prices = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
            min_size=T,
            max_size=T,
        )
    )
    accept = draw(st.permutations(list(range(T))))[:k]
    decisions = [1 if t in accept else 0 for t in range(T)]
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    inst = Instance(
        k=k, T=T, L=min(prices), U=max(prices), beta=beta, variant=variant,
        prices=tuple(prices),
    )
    return inst, Schedule(tuple(decisions))


def _loop_flips(decisions):
    """Flip count over x_0 = 0, x_1..x_T, x_{T+1} = 0, one slot at a time."""
    flips = 0
    prev = 0
    for x in decisions:
        if x != prev:
            flips += 1
        prev = x
    if prev == 1:
        flips += 1
    return flips


class TestInvariants:
    @given(feasible_cases())
    @settings(max_examples=200, deadline=None)
    def test_switch_count_is_twice_blocks(self, case):
        inst, sched = case
        cb = evaluate_schedule(inst, sched)
        assert cb.num_switches == _loop_flips(sched.decisions)
        assert cb.accepted_sum == math.fsum(
            p for p, x in zip(inst.prices, sched.decisions) if x
        )
        blocks = 0
        prev = 0
        for x in sched.decisions:
            if x == 1 and prev == 0:
                blocks += 1
            prev = x
        assert cb.num_switches == 2 * blocks
        assert cb.num_switches % 2 == 0
        assert cb.switching_cost == pytest.approx(inst.beta * cb.num_switches)

    @given(feasible_cases())
    @settings(max_examples=200, deadline=None)
    def test_appending_rejected_slots_is_neutral(self, case):
        inst, sched = case
        cb = evaluate_schedule(inst, sched)
        extended = Instance(
            k=inst.k, T=inst.T + 2, L=inst.L, U=inst.U, beta=inst.beta,
            variant=inst.variant, prices=inst.prices + (inst.U, inst.L),
        )
        cb2 = evaluate_schedule(extended, Schedule(sched.decisions + (0, 0)))
        assert cb2.accepted_sum == pytest.approx(cb.accepted_sum, abs=1e-9)
        assert cb2.total == pytest.approx(cb.total, abs=1e-9)
        assert cb2.num_switches == cb.num_switches

    @given(feasible_cases())
    @settings(max_examples=200, deadline=None)
    def test_objective_bounds(self, case):
        inst, sched = case
        if inst.k < 1:
            return
        cb = evaluate_schedule(inst, sched)
        if inst.variant is Variant.MIN:
            assert cb.total >= inst.k * inst.L + 2 * inst.beta - 1e-9
        else:
            assert cb.total <= inst.k * inst.U - 2 * inst.beta + 1e-9
        assert 2 * inst.beta - 1e-9 <= cb.switching_cost <= 2 * inst.k * inst.beta + 1e-9


@st.composite
def lane_batches(draw):
    """n trials of m feasible lanes each, sharing (k, T, beta, variant): k is
    1, T or drawn, prices sit at the scale 1e-3, 1 or 1e6, and beta is 0,
    drawn (large enough that max-side totals reach 0 and below) or 8.9e307,
    where four flips overflow a total to inf.  Returns each trial's
    Instance and the (n, m, T) int8 decisions."""
    T = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.sampled_from([1, T]) | st.integers(min_value=1, max_value=T))
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    beta = draw(st.sampled_from([0.0, 8.9e307]) | st.floats(min_value=0, max_value=200 * scale))
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    insts, decisions = [], np.zeros((n, m, T), dtype=np.int8)
    for i in range(n):
        prices = draw(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=T, max_size=T))
        prices = [p * scale for p in prices]
        insts.append(Instance(k=k, T=T, L=min(prices), U=max(prices), beta=beta,
                              variant=variant, prices=tuple(prices)))
        for a in range(m):
            decisions[i, a, draw(st.permutations(list(range(T))))[:k]] = 1
    return insts, decisions


def _loop_objective(inst, decisions):
    """(accepted, switching, total, flips) by the Python flip/fsum loop the
    objective was first written as, in positive form on both variants, kept
    here so `lane_totals` is checked against code it does not share."""
    d = decisions
    accepted = math.fsum(itertools.compress(inst.prices, d))
    flips = d[0] + d[-1] + sum(map(operator.ne, d, d[1:]))
    switching = inst.beta * flips
    if inst.variant is Variant.MIN:
        return accepted, switching, accepted + switching, flips
    return accepted, switching, accepted - switching, flips


def _hexes(*values):
    return [float(x).hex() for x in values]


class TestLaneTotals:
    """lane_totals prices every lane of a pass at once, always minimizing,
    and evaluate_schedule is its one-row case on either variant; both must
    equal the loop objective bit for bit."""

    @staticmethod
    def _check(insts, decisions):
        """Check every lane of ``decisions`` against the loop objective:
        lane_totals on a min batch, evaluate_schedule on either; returns
        evaluate_schedule's totals and flips in lane order."""
        first = insts[0]
        prices = np.array([inst.prices for inst in insts])
        lanes = [(inst, tuple(row)) for inst, rows in zip(insts, decisions.tolist())
                 for row in rows]
        if first.variant is Variant.MIN:
            got = lane_totals(prices, decisions, first.k, first.beta)
            # the strided (T, n, m) layout `play_lanes` returns prices the same
            strided = np.ascontiguousarray(decisions.transpose(2, 0, 1)).transpose(1, 2, 0)
            assert lane_totals(prices, strided, first.k, first.beta) == got
            assert all(len(part) == len(lanes) for part in got)
            for (inst, row), *parts, f in zip(lanes, *got):
                accepted, switching, total, loop_flips = _loop_objective(inst, row)
                assert type(f) is int and f == loop_flips
                assert [type(x) for x in parts] == [float, type(switching), float]
                assert _hexes(*parts) == _hexes(accepted, switching, total)
        totals, flips = [], []
        for inst, row in lanes:
            accepted, switching, total, loop_flips = _loop_objective(inst, row)
            cb = evaluate_schedule(inst, Schedule(row))
            found = (cb.accepted_sum, cb.switching_cost, cb.total)
            assert [type(x) for x in found] == [float, type(switching), float]
            assert _hexes(*found) == _hexes(accepted, switching, total)
            assert type(cb.num_switches) is int and cb.num_switches == loop_flips
            totals.append(cb.total)
            flips.append(cb.num_switches)
        return totals, flips

    @given(lane_batches())
    @settings(max_examples=200, deadline=None)
    def test_equal_evaluate_schedule(self, batch):
        self._check(*batch)

    def test_max_side_totals_at_and_below_zero(self):
        # a zero profit is +0.0, not -0.0
        prices = (1.0, 2.0, 1.0, 2.0)
        decisions = np.array([[(1, 0, 1, 0), (0, 1, 1, 0)]], dtype=np.int8)
        found = [self._check([Instance(k=2, T=4, L=1.0, U=2.0, beta=beta,
                                       variant=Variant.MAX, prices=prices)], decisions)
                 for beta in (0.0, 0.75, 1.5, 5.0)]
        assert [f for _, flips in found for f in flips] == [4, 2] * 4
        assert [t.hex() for totals, _ in found for t in totals] == _hexes(
            2.0, 3.0, -1.0, 1.5, -4.0, 0.0, -18.0, -7.0)
        one = Instance(k=1, T=1, L=1.0, U=1.0, beta=0.5, variant=Variant.MAX, prices=(1.0,))
        cb = evaluate_schedule(one, Schedule((1,)))
        assert _hexes(cb.accepted_sum, cb.switching_cost, cb.total) == _hexes(1.0, 1.0, 0.0)

    def test_batch_of_several_blocks(self):
        # three fsum blocks and part of a fourth, at 1e6 and at an
        # overflowing beta; a max pass's blocks are `TestChunkedTrials`'
        rng = np.random.default_rng(5)
        T, k, m = 20, 7, 3
        n = 3 * (core._BLOCK_PRICES // (m * k)) + 2
        rows = rng.uniform(1.0, 100.0, (n, T)) * 1e6
        decisions = np.zeros((n, m, T), dtype=np.int8)
        for i in range(n):
            for a in range(m):
                decisions[i, a, rng.permutation(T)[:k]] = 1
        for beta in (0.0, 3.5e6, 8.9e307):
            insts = [Instance(k=k, T=T, L=min(r), U=max(r), beta=beta, variant=Variant.MIN,
                              prices=tuple(r)) for r in rows.tolist()]
            totals, _ = self._check(insts, decisions)
            assert len(totals) == n * m
        assert math.inf in totals

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_a_lane_off_k_is_refused(self, extra):
        # the lane sits past the first fsum block, and its name is its
        # (trial, lane) in the whole pass; the next lane is off k the other
        # way, so the pass still accepts k prices a lane on average
        T, k, m = 10, 4, 2
        n = core._BLOCK_PRICES // (m * k) + 3
        decisions = np.zeros((n, m, T), dtype=np.int8)
        decisions[..., :k] = 1
        i = n - 2
        decisions[i, 1, : k + extra] = 1
        decisions[i, 1, k + extra :] = 0
        decisions[i + 1, 0, : k - extra] = 1
        decisions[i + 1, 0, k - extra :] = 0
        message = (rf"^lane \({i}, 1\) accepts {k + extra} prices, not k={k}; "
                   "this indicates a defect$")
        for prices in (np.ones((n, T)), -np.ones((n, T))):
            with pytest.raises(FeasibilityError, match=message):
                lane_totals(prices, decisions, k, 1.0)

    @pytest.mark.parametrize("past_first_block", [False, True])
    def test_a_sum_that_overflows_names_its_lane(self, past_first_block):
        # lanes 1 and 2 of trial i each sum two prices of 1e308 (negated on
        # a max pass), past the float range; lane 0 and the other trials
        # stay finite.  fsum raises OverflowError, refused as the first
        # such lane.
        T, k, m = 3, 2, 3
        i = core._BLOCK_PRICES // (m * k) + 1 if past_first_block else 0
        decisions = np.zeros((i + 2, m, T), dtype=np.int8)
        decisions[..., :k] = 1
        decisions[i, 0] = (1, 0, 1)
        for sign in (1.0, -1.0):
            prices = np.ones((i + 2, T))
            prices[i] = (1e308, 1e308, 1.0)
            with pytest.raises(ParameterError, match=rf"^lane \({i}, 1\) sum overflows$"):
                lane_totals(sign * prices, decisions, k, 0.0)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_an_overflowing_schedule_is_refused(self, variant):
        # the builtin OverflowError of fsum used to escape
        inst = Instance(k=2, T=2, L=1e308, U=1e308, beta=0.0, variant=variant,
                        prices=(1e308, 1e308))
        with pytest.raises(ParameterError, match=r"^lane \(0, 0\) sum overflows$"):
            evaluate_schedule(inst, Schedule((1, 1)))

    def test_stacked_rows_and_edges(self):
        # flips in (trial, lane) order; T = 1 has no interior flips
        d = np.array([[[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [1, 1, 0]]], dtype=np.int8)
        prices = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        assert lane_totals(prices, d, 2, 0.5) == (
            [3.0, 6.0, 40.0, 24.0], [1.0, 1.0, 2.0, 1.0], [4.0, 7.0, 42.0, 25.0], [2, 2, 4, 2])
        assert lane_totals(np.ones((2, 1)), np.ones((2, 1, 1), dtype=np.int8), 1, 0.0)[3] == [2, 2]


class TestCostRatio:
    def test_min(self):
        assert cost_ratio(12.0, 6.0, Variant.MIN) == 2.0

    def test_max(self):
        assert cost_ratio(5.0, 10.0, Variant.MAX) == 2.0

    def test_degenerate_profit(self):
        with pytest.raises(DegenerateProfitError):
            cost_ratio(0.0, 10.0, Variant.MAX)

    @pytest.mark.parametrize("opt", [0.0, -1.0])
    def test_min_nonpositive_opt(self, opt):
        with pytest.raises(ParameterError, match="min ratio needs opt.total > 0"):
            cost_ratio(5.0, opt, Variant.MIN)
