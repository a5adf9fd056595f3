"""Online-player protocol, baselines, and the competitive guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr.algorithms import (
    PlayerKind,
    hindsight_trace,
    new_player,
    play_lanes,
    player_family,
    run_online,
)
from opr.core import Instance, Variant
from opr.errors import ParameterError, ProtocolError
from opr.offline import dp_optimal
from opr.experiment import resolve_player_kind
from opr.thresholds import (
    ThresholdFamily,
    constant_threshold,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    ksearch_thresholds,
    solve_alpha,
    solve_omega,
)


def min_inst(prices, k, L, U, beta):
    return Instance(
        k=k, T=len(prices), L=L, U=U, beta=beta, variant=Variant.MIN, prices=tuple(prices)
    )


def max_inst(prices, k, L, U, beta):
    return Instance(
        k=k, T=len(prices), L=L, U=U, beta=beta, variant=Variant.MAX, prices=tuple(prices)
    )


class TestStep:
    def test_horizon_equals_k_forces_every_slot(self):
        player = new_player(PlayerKind.DTPR, 3, 3, 5, 30, 3, Variant.MIN)
        assert [player.step(p) for p in (30, 30, 30)] == [1, 1, 1]

    def test_all_upper_bound_prices_forced_tail(self):
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        fam = dtpr_min_thresholds(k, U, L, beta)
        assert fam.lower[0] < U  # rejects are voluntary until the deadline
        inst = min_inst([U] * 10, k, L, U, beta)
        sched, cost = hindsight_trace(PlayerKind.DTPR, inst)
        assert sched.decisions == (0,) * 7 + (1,) * 3
        assert cost.total == pytest.approx(k * U + 2 * beta)

    def test_all_lower_bound_prices_accept_immediately(self):
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        inst = min_inst([L] * 10, k, L, U, beta)
        sched, cost = hindsight_trace(PlayerKind.DTPR, inst)
        assert sched.decisions == (1, 1, 1) + (0,) * 7
        assert cost.total == pytest.approx(k * L + 2 * beta)

    def test_state_dependence_of_double_threshold(self):
        # the same unit-2 price between the rails is accepted iff already on
        k, L, U, beta = 2, 5.0, 30.0, 3.0
        fam = dtpr_min_thresholds(k, U, L, beta)
        mid = (fam.lower[1] + fam.upper[1]) / 2
        assert fam.lower[1] < mid <= fam.upper[1]

        on = new_player(PlayerKind.DTPR, k, 20, L, U, beta, Variant.MIN)
        assert on.step(fam.lower[0]) == 1  # switch on at the resume rail
        assert on.step(mid) == 1  # stay rail tolerates it

        off = new_player(PlayerKind.DTPR, k, 20, L, U, beta, Variant.MIN)
        assert off.step(fam.lower[0]) == 1
        assert off.step(U) == 0  # switched away
        assert off.step(mid) == 0  # same price now needs the resume rail

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    def test_ties_accept_on_both_rails(self, variant):
        # a price exactly on the resume rail switches the player on, and a
        # price exactly on the stay rail keeps it on; one ulp worse is refused
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        worse = math.inf if variant is Variant.MIN else -math.inf
        for kind in PlayerKind:
            fam = player_family(kind, k, U, L, beta, variant)
            on, off = (fam.upper, fam.lower) if variant is Variant.MIN else (fam.lower, fam.upper)
            prices = (off[0], on[1]) + ((U if variant is Variant.MIN else L),) * 8
            inst = Instance(k=k, T=len(prices), L=L, U=U, beta=beta, variant=variant,
                            prices=prices)
            assert run_online(kind, inst).decisions[:2] == (1, 1)
            player = new_player(kind, k, inst.T, L, U, beta, variant)
            assert [player.step(p) for p in prices[:2]] == [1, 1]
            for prefix, rail in (((), off[0]), ((off[0],), on[1])):
                nudged = math.nextafter(rail, worse)
                if L <= nudged <= U:
                    player = new_player(kind, k, inst.T, L, U, beta, variant)
                    decisions = [player.step(p) for p in prefix + (nudged,)]
                    assert decisions == [1] * len(prefix) + [0]

    def test_exhausted_player_raises(self):
        player = new_player(PlayerKind.DTPR, 1, 5, 5, 30, 3, Variant.MIN)
        player.step(5)
        assert player.exhausted
        with pytest.raises(ProtocolError):
            player.step(5)

    def test_step_past_horizon_raises(self):
        player = new_player(PlayerKind.DTPR, 2, 2, 5, 30, 3, Variant.MIN)
        player.step(30)
        player.step(30)
        with pytest.raises(ProtocolError):
            player.step(30)

    def test_one_kind_serves_both_variants(self):
        k, T, L, U, beta = 3, 8, 5.0, 30.0, 3.0

        def rails(rail, variant):
            return ThresholdFamily(
                variant=variant, k=k, lower=(rail,) * k, upper=(rail,) * k,
                ratio=max(rail / L, U / rail),
            )

        for variant, dtpr in (
            (Variant.MIN, dtpr_min_thresholds),
            (Variant.MAX, dtpr_max_thresholds),
        ):
            expected = {
                PlayerKind.DTPR: dtpr(k, U, L, beta),
                PlayerKind.KSEARCH: ksearch_thresholds(k, U, L, variant),
                PlayerKind.CONSTANT_THRESHOLD: rails(constant_threshold(U, L), variant),
                PlayerKind.CARBON_AGNOSTIC: rails(U if variant is Variant.MIN else L, variant),
            }
            assert set(expected) == set(PlayerKind)
            for kind, family in expected.items():
                player = new_player(kind, k, T, L, U, beta, variant)
                assert player.family == family
                assert player.family.variant is variant
        with pytest.raises(ParameterError):
            resolve_player_kind("dtpr-min")

    def test_family_variant_must_match_instance(self):
        family = dtpr_min_thresholds(2, 30, 5, 3)
        with pytest.raises(ParameterError):
            new_player(PlayerKind.DTPR, 2, 5, 5, 30, 3, Variant.MAX, family)

    @pytest.mark.parametrize("family_k", [5, 2])
    def test_family_k_must_match_instance(self, family_k):
        # a longer family used to play on its first 3 rails, a shorter one
        # to raise IndexError mid-run
        family = dtpr_min_thresholds(family_k, 30, 5, 3)
        with pytest.raises(ParameterError):
            new_player(PlayerKind.DTPR, 3, 10, 5, 30, 3, Variant.MIN, family)
        inst = min_inst([30.0] * 10, 3, 5, 30, 3)
        with pytest.raises(ParameterError):
            run_online(PlayerKind.DTPR, inst, family)


class TestRunOnline:
    def test_carbon_agnostic_first_k(self):
        inst = min_inst([10, 20, 5, 8, 30], 2, 5, 30, 2)
        sched, cost = hindsight_trace(PlayerKind.CARBON_AGNOSTIC, inst)
        assert sched.decisions == (1, 1, 0, 0, 0)
        assert cost.switching_cost == pytest.approx(2 * 2)

    def test_worst_case_probe_sequence(self):
        # accept the first resume threshold, then be forced into the tail
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        fam = dtpr_min_thresholds(k, U, L, beta)
        prices = [fam.lower[0]] + [U] * 9
        inst = min_inst(prices, k, L, U, beta)
        sched, cost = hindsight_trace(PlayerKind.DTPR, inst)
        assert sched.decisions[0] == 1
        assert cost.total == pytest.approx(fam.lower[0] + (k - 1) * U + 4 * beta)

    def test_ksearch_equals_dtpr_at_beta_zero(self):
        prices = [17, 9, 25, 12, 7, 30, 11, 5]
        for variant in Variant:
            inst = Instance(
                k=3, T=len(prices), L=5, U=30, beta=0.0, variant=variant,
                prices=tuple(prices),
            )
            a = run_online(PlayerKind.DTPR, inst)
            b = run_online(PlayerKind.KSEARCH, inst)
            assert a.decisions == b.decisions

    def test_dtpr_max_all_upper(self):
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        inst = max_inst([U] * 10, k, L, U, beta)
        sched, cost = hindsight_trace(PlayerKind.DTPR, inst)
        assert sched.decisions == (1, 1, 1) + (0,) * 7
        assert cost.total == pytest.approx(k * U - 2 * beta)

    def test_horizon_equals_k_any_kind(self):
        prices = (7.0, 11.0, 9.0)
        for kind in (
            PlayerKind.DTPR,
            PlayerKind.KSEARCH,
            PlayerKind.CONSTANT_THRESHOLD,
            PlayerKind.CARBON_AGNOSTIC,
        ):
            inst = min_inst(prices, 3, 5, 30, 2)
            _, cost = hindsight_trace(kind, inst)
            assert cost.total == pytest.approx(sum(prices) + 2 * 2)


@st.composite
def random_instances(draw):
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    T = draw(st.integers(min_value=1, max_value=20))
    k = draw(st.integers(min_value=1, max_value=T))
    L = draw(st.floats(min_value=1, max_value=10))
    theta = draw(st.floats(min_value=1.2, max_value=30))
    U = L * theta
    if variant is Variant.MIN:
        beta = draw(st.floats(min_value=1e-4, max_value=0.45)) * (U - L)
    else:
        beta = draw(st.floats(min_value=1e-4, max_value=0.4)) * k * L
        beta = min(beta, 0.45 * (U - L))
    prices = draw(
        st.lists(st.floats(min_value=0, max_value=1), min_size=T, max_size=T)
    )
    prices = tuple(min(max(L + p * (U - L), L), U) for p in prices)
    return Instance(k=k, T=T, L=L, U=U, beta=beta, variant=variant, prices=prices)


def _on_the_rails(inst, data):
    """The instance with every price moved onto a rail value of some player
    (or a price bound), so the comparisons hit their ties."""
    rails = {inst.L, inst.U}
    for kind in PlayerKind:
        fam = player_family(kind, inst.k, inst.U, inst.L, inst.beta, inst.variant)
        rails.update(v for v in fam.lower + fam.upper if inst.L <= v <= inst.U)
    menu = sorted(rails)
    prices = tuple(data.draw(st.sampled_from(menu)) for _ in range(inst.T))
    return Instance(k=inst.k, T=inst.T, L=inst.L, U=inst.U, beta=inst.beta,
                    variant=inst.variant, prices=prices)


class TestProperties:
    @given(random_instances())
    @settings(max_examples=150, deadline=None)
    def test_every_kind_is_feasible(self, inst):
        for kind in PlayerKind:
            sched = run_online(kind, inst)
            assert sched.num_accepted() == inst.k
            if kind is PlayerKind.CARBON_AGNOSTIC:
                assert sched.decisions == (1,) * inst.k + (0,) * (inst.T - inst.k)

    @given(random_instances(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_online_causality(self, inst, data):
        # the decision at slot t must be recomputable from the prefix alone:
        # run_online plays the whole sequence as one lane, step one price at a
        # time, and both must agree for every kind on both variants, also
        # when prices sit exactly on some player's rail (ties accept)
        if data.draw(st.booleans()):
            inst = _on_the_rails(inst, data)
        for kind in PlayerKind:
            full = run_online(kind, inst)
            player = new_player(kind, inst.k, inst.T, inst.L, inst.U, inst.beta, inst.variant)
            for t, price in enumerate(inst.prices):
                if player.exhausted:
                    assert full.decisions[t] == 0
                else:
                    assert player.step(price) == full.decisions[t]

    @given(random_instances())
    @settings(max_examples=150, deadline=None)
    def test_dtpr_guarantees(self, inst):
        # ratio against the exact optimum; the extreme-price surrogate bound
        # fails when the forced tail holds both the extreme and a bad price
        # (e.g. T=k, prices=(L, U)), while the ratio bound always holds
        _, opt = dp_optimal(inst)
        if inst.variant is Variant.MIN:
            alpha = solve_alpha(inst.k, inst.U, inst.L, inst.beta)
            _, cost = hindsight_trace(PlayerKind.DTPR, inst)
            assert cost.total <= alpha * opt.total + 1e-6
        else:
            omega = solve_omega(inst.k, inst.U, inst.L, inst.beta)
            _, cost = hindsight_trace(PlayerKind.DTPR, inst)
            assert opt.total <= omega * cost.total + 1e-6

    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_dtpr_never_beats_exact_optimum(self, inst):
        kind = PlayerKind.DTPR
        _, cost = hindsight_trace(kind, inst)
        _, opt = dp_optimal(inst)
        if inst.variant is Variant.MIN:
            assert cost.total >= opt.total - 1e-9
        else:
            assert cost.total <= opt.total + 1e-9


def _rails(family):
    """(resume, stay) rails of a family, as `PlayerState.step` picks them."""
    if family.variant is Variant.MIN:
        return family.lower, family.upper
    return family.upper, family.lower


def _check_lanes(insts):
    """play_lanes over every (instance, kind) lane equals `step` of that
    lane's own player, decision for decision.  Lanes whose families
    are equal share one rail row."""
    k, T, variant = insts[0].k, insts[0].T, insts[0].variant
    kinds = list(PlayerKind)
    families = [
        [player_family(kind, k, inst.U, inst.L, inst.beta, variant) for kind in kinds]
        for inst in insts
    ]
    distinct = list(dict.fromkeys(f for row in families for f in row))
    rails = np.empty((len(distinct), 2, k + 1))
    for f, family in enumerate(distinct):
        rails[f, 0, :k], rails[f, 1, :k] = family.lower, family.upper
    lanes = np.array([[distinct.index(f) for f in row] for row in families])
    prices = np.array([inst.prices for inst in insts])
    decisions = play_lanes(prices, rails, lanes, variant)
    assert decisions.dtype == np.int8 and decisions.shape == (len(insts), len(kinds), T)
    for i, inst in enumerate(insts):
        for a, kind in enumerate(kinds):
            player = new_player(kind, k, T, inst.L, inst.U, inst.beta, variant, families[i][a])
            stepped = [0 if player.exhausted else player.step(p) for p in inst.prices]
            assert decisions[i, a].tolist() == stepped
    return decisions


@st.composite
def lane_batches(draw):
    """1..5 instances sharing (k, T, variant), each with its own bounds,
    beta and prices; some rows put every price on a rail or a bound."""
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    T = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=T))
    insts = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        L = draw(st.floats(min_value=1, max_value=10))
        U = L * draw(st.floats(min_value=1.2, max_value=30))
        frac = draw(st.sampled_from([0.0, 1e-4, 0.2, 0.45]))
        beta = frac * ((U - L) if variant is Variant.MIN else min(k * L, U - L))
        raw = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=T, max_size=T))
        prices = tuple(min(max(L + r * (U - L), L), U) for r in raw)
        inst = Instance(k=k, T=T, L=L, U=U, beta=beta, variant=variant, prices=prices)
        if draw(st.booleans()):
            inst = _on_the_rails(inst, draw(st.data()))
        insts.append(inst)
    return insts


class TestPlayLanes:
    @given(lane_batches())
    @settings(max_examples=200, deadline=None)
    def test_lanes_equal_step(self, insts):
        _check_lanes(insts)

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    def test_ties_accept_on_both_rails(self, variant):
        # each row puts unit 1 exactly on a kind's resume rail and unit 2
        # exactly on its stay rail, or one ulp worse on either
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        worse = math.inf if variant is Variant.MIN else -math.inf
        far = U if variant is Variant.MIN else L
        insts, expected = [], []
        for kind in PlayerKind:
            resume, stay = _rails(player_family(kind, k, U, L, beta, variant))
            for first, second, want in (
                (resume[0], stay[1], [1, 1]),
                (math.nextafter(resume[0], worse), stay[1], [0]),
                (resume[0], math.nextafter(stay[1], worse), [1, 0]),
            ):
                if not (L <= first <= U and L <= second <= U):
                    continue
                prices = (first, second) + (far,) * 8
                insts.append(Instance(k=k, T=10, L=L, U=U, beta=beta, variant=variant,
                                      prices=prices))
                expected.append((len(insts) - 1, list(PlayerKind).index(kind), want))
        decisions = _check_lanes(insts)
        for i, a, want in expected:
            assert decisions[i, a, : len(want)].tolist() == want

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    @pytest.mark.parametrize("k, T", [(1, 1), (1, 9), (4, 4), (3, 9)])
    def test_forced_and_early_lanes(self, variant, k, T):
        # the worst bound every slot forces every lane into the last k
        # slots (the agnostic player takes the first k); the best bound
        # fills every lane early, and the lanes decline from then on
        L, U, beta = 5.0, 30.0, 2.0
        worst, best = (U, L) if variant is Variant.MIN else (L, U)
        rows = [
            Instance(k=k, T=T, L=L, U=U, beta=beta, variant=variant, prices=(p,) * T)
            for p in (worst, best)
        ]
        decisions = _check_lanes(rows)
        first, last = [1] * k + [0] * (T - k), [0] * (T - k) + [1] * k
        for a, kind in enumerate(PlayerKind):
            assert decisions[0, a].tolist() == (first if kind is PlayerKind.CARBON_AGNOSTIC else last)
            assert decisions[1, a].tolist() == first
