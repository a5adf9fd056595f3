"""Instance/schedule construction and exact objective evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr.core import (
    Instance,
    Schedule,
    Variant,
    evaluate_schedule,
    lane_flips,
    lane_total,
    validate_schedule,
)
from opr.errors import FeasibilityError, ParameterError, StructuralError


def make_min(prices, k, beta=1.0, L=None, U=None):
    L = min(prices) if L is None else L
    U = max(prices) if U is None else U
    return Instance(
        k=k, T=len(prices), L=L, U=U, beta=beta, variant=Variant.MIN, prices=tuple(prices)
    )


class TestConstruction:
    def test_prices_outside_bounds_rejected(self):
        with pytest.raises(ParameterError):
            Instance(k=1, T=2, L=2, U=5, beta=0, variant=Variant.MIN, prices=(3, 1))

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

    def test_theta(self):
        inst = make_min([1, 4], k=1, L=1, U=4)
        assert inst.theta == 4.0

    def test_schedule_entries_checked(self):
        with pytest.raises(StructuralError):
            Schedule((0, 2, 1))
        with pytest.raises(StructuralError, match="got 2$"):
            Schedule((0, 2))
        # the message names the first bad value
        with pytest.raises(StructuralError, match="got 3$"):
            Schedule((1, 3, 0, 2))

    def test_schedule_accepts_numpy_ints_and_bools(self):
        for raw in ((np.int64(1), np.int8(0), np.uint8(1)), (True, False, True)):
            sched = Schedule(raw)
            assert sched.decisions == (1, 0, 1)
            assert all(type(x) is int for x in sched.decisions)


class TestValidateSchedule:
    def test_exact_count(self):
        inst = make_min([5, 5, 5], k=2)
        assert validate_schedule(inst, Schedule((1, 1, 0))) is True

    def test_too_many(self):
        inst = make_min([5, 5, 5], k=2)
        assert validate_schedule(inst, Schedule((1, 1, 1))) is False

    def test_all_slots(self):
        inst = make_min([5, 5, 5], k=3)
        assert validate_schedule(inst, Schedule((1, 1, 1))) is True

    def test_length_mismatch(self):
        inst = make_min([5, 5, 5], k=2)
        with pytest.raises(StructuralError):
            validate_schedule(inst, Schedule((1, 1)))


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


class TestLaneTotals:
    """lane_flips and lane_total score many schedules at once; they must
    equal evaluate_schedule bit for bit."""

    @staticmethod
    def _check(cases):
        decisions = np.array([sched.decisions for _, sched in cases], dtype=np.int8)
        flips = lane_flips(decisions).tolist()
        for (inst, sched), row, f in zip(cases, decisions, flips):
            cb = evaluate_schedule(inst, sched)
            assert type(f) is int and f == cb.num_switches
            total = lane_total(list(inst.prices), row.tobytes(), f, inst.beta, inst.variant)
            assert total.hex() == cb.total.hex()
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
