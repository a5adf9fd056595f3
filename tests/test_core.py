"""Instance/schedule construction and exact objective evaluation."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr.core import (
    Instance,
    Schedule,
    Variant,
    cost_ratio,
    evaluate_schedule,
    lane_cost,
    lane_flips,
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
def schedule_batches(draw):
    """1..6 feasible schedules sharing (k, T, beta, variant); beta may be 0,
    and large enough that max-side totals reach 0 and below."""
    T = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=T))
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    beta = draw(st.one_of(st.just(0.0), st.floats(min_value=0, max_value=200)))
    cases = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        prices = draw(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=T, max_size=T))
        accept = set(draw(st.permutations(list(range(T))))[:k])
        inst = Instance(k=k, T=T, L=min(prices), U=max(prices), beta=beta, variant=variant,
                        prices=tuple(prices))
        cases.append((inst, Schedule(tuple(int(t in accept) for t in range(T)))))
    return cases


def _loop_objective(inst, decisions):
    """(accepted, switching, total, flips) by the Python flip/fsum loop the
    objective was first written as, kept here so the lane functions are
    checked against code they do not share."""
    d = decisions
    accepted = math.fsum(itertools.compress(inst.prices, d))
    flips = d[0] + d[-1] + sum(map(operator.ne, d, d[1:]))
    switching = inst.beta * flips
    if inst.variant is Variant.MIN:
        return accepted, switching, accepted + switching, flips
    return accepted, switching, accepted - switching, flips


class TestLaneTotals:
    """lane_flips and lane_cost score many schedules at once, and
    evaluate_schedule is their one-row case; all must equal the loop
    objective bit for bit."""

    @staticmethod
    def _check(cases):
        decisions = np.array([sched.decisions for _, sched in cases], dtype=np.int8)
        flips = lane_flips(decisions).tolist()
        for (inst, sched), row, f in zip(cases, decisions, flips):
            accepted, switching, total, loop_flips = _loop_objective(inst, sched.decisions)
            assert type(f) is int and f == loop_flips
            got = lane_cost(list(inst.prices), row.tobytes(), f, inst.beta, inst.variant)
            cb = evaluate_schedule(inst, sched)
            for parts in (got, (cb.accepted_sum, cb.switching_cost, cb.total)):
                assert [type(x) for x in parts] == [float, type(switching), float]
                assert [x.hex() for x in map(float, parts)] == [
                    x.hex() for x in map(float, (accepted, switching, total))]
            assert type(cb.num_switches) is int and cb.num_switches == loop_flips
        return flips

    @given(schedule_batches())
    @settings(max_examples=200, deadline=None)
    def test_equal_evaluate_schedule(self, cases):
        self._check(cases)

    def test_max_side_totals_at_and_below_zero(self):
        prices = (1.0, 2.0, 1.0, 2.0)
        cases = [
            (Instance(k=2, T=4, L=1.0, U=2.0, beta=beta, variant=Variant.MAX, prices=prices),
             Schedule(decisions))
            for beta in (0.0, 0.75, 1.5, 5.0)
            for decisions in ((1, 0, 1, 0), (0, 1, 1, 0))
        ]
        assert self._check(cases) == [4, 2] * 4
        totals = [evaluate_schedule(inst, sched).total for inst, sched in cases]
        assert totals == [2.0, 3.0, -1.0, 1.5, -4.0, 0.0, -18.0, -7.0]

    def test_stacked_rows_and_edges(self):
        # lane_flips takes any leading shape; T = 1 has no interior flips
        d = np.array([[[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [0, 0, 0]]], dtype=np.int8)
        assert lane_flips(d).tolist() == [[2, 2], [4, 0]]
        assert lane_flips(np.ones((2, 1), dtype=np.int8)).tolist() == [2, 2]


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
