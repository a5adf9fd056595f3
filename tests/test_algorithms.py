"""Online-player protocol, baselines, and the competitive guarantees."""

import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr.algorithms import PlayerState, hindsight_trace, new_player, play_lanes, run_online
from opr.core import Instance, Variant, check_cell, lane_totals
from opr.errors import OprError, ParameterError, ProtocolError
from opr.offline import dp_decisions, dp_optimal
from opr.thresholds import (
    PlayerKind,
    ThresholdFamily,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    ksearch_thresholds,
    player_families,
    player_family,
    regime_edge,
    resolve_player_kind,
    solve_alpha,
    solve_omega,
)
from ratio_reference import max_lower_threshold, min_upper_threshold


def min_inst(prices, k, L, U, beta):
    return Instance(
        k=k, T=len(prices), L=L, U=U, beta=beta, variant=Variant.MIN, prices=tuple(prices)
    )


def max_inst(prices, k, L, U, beta):
    return Instance(
        k=k, T=len(prices), L=L, U=U, beta=beta, variant=Variant.MAX, prices=tuple(prices)
    )


def family_of(kind, inst):
    """``kind``'s family on the instance's cell."""
    return player_family(kind, inst.k, inst.U, inst.L, inst.beta, inst.variant)


class TestStep:
    def test_horizon_equals_k_forces_every_slot(self):
        player = new_player(dtpr_min_thresholds(3, 30, 5, 3), 3)
        assert [player.step(p) for p in (30, 30, 30)] == [1, 1, 1]

    def test_all_upper_bound_prices_forced_tail(self):
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        fam = dtpr_min_thresholds(k, U, L, beta)
        assert fam.lower[0] < U  # rejects are voluntary until the deadline
        inst = min_inst([U] * 10, k, L, U, beta)
        sched, cost = hindsight_trace(fam, inst)
        assert sched.decisions == (0,) * 7 + (1,) * 3
        assert cost.total == pytest.approx(k * U + 2 * beta)

    def test_all_lower_bound_prices_accept_immediately(self):
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        inst = min_inst([L] * 10, k, L, U, beta)
        sched, cost = hindsight_trace(family_of(PlayerKind.DTPR, inst), inst)
        assert sched.decisions == (1, 1, 1) + (0,) * 7
        assert cost.total == pytest.approx(k * L + 2 * beta)

    def test_state_dependence_of_double_threshold(self):
        # the same unit-2 price between the rails is accepted iff already on
        k, L, U, beta = 2, 5.0, 30.0, 3.0
        fam = dtpr_min_thresholds(k, U, L, beta)
        mid = (fam.lower[1] + fam.upper[1]) / 2
        assert fam.lower[1] < mid <= fam.upper[1]

        on = new_player(fam, 20)
        assert on.step(fam.lower[0]) == 1  # switch on at the resume rail
        assert on.step(mid) == 1  # stay rail tolerates it

        off = new_player(fam, 20)
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
            assert run_online(fam, inst).decisions[:2] == (1, 1)
            player = new_player(fam, inst.T)
            assert [player.step(p) for p in prices[:2]] == [1, 1]
            for prefix, rail in (((), off[0]), ((off[0],), on[1])):
                nudged = math.nextafter(rail, worse)
                if L <= nudged <= U:
                    player = new_player(fam, inst.T)
                    decisions = [player.step(p) for p in prefix + (nudged,)]
                    assert decisions == [1] * len(prefix) + [0]

    def test_exhausted_player_raises(self):
        player = new_player(dtpr_min_thresholds(1, 30, 5, 3), 5)
        player.step(5)
        assert player.exhausted
        with pytest.raises(ProtocolError):
            player.step(5)

    def test_step_past_horizon_raises(self):
        player = new_player(dtpr_min_thresholds(2, 30, 5, 3), 2)
        player.step(30)
        player.step(30)
        with pytest.raises(ProtocolError):
            player.step(30)
        # a state built directly skips new_player's k <= T check, so it
        # runs out of slots before units
        state = PlayerState(T=1, family=dtpr_min_thresholds(2, 30, 5, 3))
        state.step(30)
        with pytest.raises(ProtocolError, match=r"^step past horizon T=1$"):
            state.step(30)

    @pytest.mark.parametrize("kind", list(PlayerKind))
    def test_k_above_horizon_rejected(self, kind):
        # a DTPR player of k=3, T=2 used to take 2 steps and then raise
        # ProtocolError("step past horizon") mid-run
        with pytest.raises(ParameterError, match=r"need 1 <= k <= T, got k=3, T=2$"):
            new_player(player_family(kind, 3, 3, 1, 0.5, Variant.MIN), 2)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_state_plays_exactly_its_familys_k_units(self, variant):
        # the state reads k from its family; a separate k field used to
        # disagree with it: k=3 on a 2-unit family raised IndexError on the
        # third step, and k=1 stopped after one of its two units
        family = player_family(PlayerKind.DTPR, 2, 30, 5, 3, variant)
        best = 5 if variant is Variant.MIN else 30
        state = PlayerState(T=10, family=family)
        assert [state.step(best) for _ in range(2)] == [1, 1] and state.exhausted
        with pytest.raises(ProtocolError, match=r"^player already filled all 2 units$"):
            state.step(best)

    def test_one_kind_serves_both_variants(self):
        T, L, U, beta = 8, 5.0, 30.0, 3.0

        def rails(rail, variant):
            return ThresholdFamily(
                variant=variant, k=3, lower=(rail,) * 3, upper=(rail,) * 3,
                ratio=max(rail / L, U / rail),
            )

        # an integral float k plays as its int, in every kind's family
        for k, variant, dtpr in (
            (3, Variant.MIN, dtpr_min_thresholds),
            (3, Variant.MAX, dtpr_max_thresholds),
            (3.0, Variant.MIN, dtpr_min_thresholds),
            (3.0, Variant.MAX, dtpr_max_thresholds),
        ):
            expected = {
                PlayerKind.DTPR: dtpr(k, U, L, beta),
                PlayerKind.KSEARCH: ksearch_thresholds(k, U, L, variant),
                PlayerKind.CONSTANT_THRESHOLD: rails(math.sqrt(L * U), variant),
                PlayerKind.CARBON_AGNOSTIC: rails(U if variant is Variant.MIN else L, variant),
            }
            assert set(expected) == set(PlayerKind)
            for kind, family in expected.items():
                player = new_player(player_family(kind, k, U, L, beta, variant), T)
                assert player.family == family
                assert player.family.variant is variant
                assert type(player.family.k) is int
        with pytest.raises(ParameterError):
            resolve_player_kind("dtpr-min")

    def test_family_variant_must_match_instance(self):
        family = dtpr_min_thresholds(2, 30, 5, 3)
        inst = max_inst([30.0] * 5, 2, 5, 30, 3)
        for play in (run_online, hindsight_trace):
            with pytest.raises(ParameterError,
                               match=r"^a min family cannot play a max instance$"):
                play(family, inst)

    @pytest.mark.parametrize("family_k", [5, 2])
    def test_family_k_must_match_instance(self, family_k):
        # a longer family used to play on its first 3 rails, a shorter one
        # to raise IndexError mid-run
        family = dtpr_min_thresholds(family_k, 30, 5, 3)
        inst = min_inst([30.0] * 10, 3, 5, 30, 3)
        for play in (run_online, hindsight_trace):
            with pytest.raises(ParameterError,
                               match=rf"^a family of k={family_k} cannot play k=3 units$"):
                play(family, inst)


class TestRunOnline:
    def test_carbon_agnostic_first_k(self):
        inst = min_inst([10, 20, 5, 8, 30], 2, 5, 30, 2)
        sched, cost = hindsight_trace(family_of(PlayerKind.CARBON_AGNOSTIC, inst), inst)
        assert sched.decisions == (1, 1, 0, 0, 0)
        assert cost.switching_cost == pytest.approx(2 * 2)

    def test_worst_case_probe_sequence(self):
        # accept the first resume threshold, then be forced into the tail
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        fam = dtpr_min_thresholds(k, U, L, beta)
        prices = [fam.lower[0]] + [U] * 9
        inst = min_inst(prices, k, L, U, beta)
        sched, cost = hindsight_trace(fam, inst)
        assert sched.decisions[0] == 1
        assert cost.total == pytest.approx(fam.lower[0] + (k - 1) * U + 4 * beta)

    def test_ksearch_equals_dtpr_at_beta_zero(self):
        prices = [17, 9, 25, 12, 7, 30, 11, 5]
        for variant in Variant:
            inst = Instance(
                k=3, T=len(prices), L=5, U=30, beta=0.0, variant=variant,
                prices=tuple(prices),
            )
            a = run_online(family_of(PlayerKind.DTPR, inst), inst)
            b = run_online(family_of(PlayerKind.KSEARCH, inst), inst)
            assert a.decisions == b.decisions

    def test_dtpr_max_all_upper(self):
        k, L, U, beta = 3, 5.0, 30.0, 3.0
        inst = max_inst([U] * 10, k, L, U, beta)
        sched, cost = hindsight_trace(family_of(PlayerKind.DTPR, inst), inst)
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
            _, cost = hindsight_trace(family_of(kind, inst), inst)
            assert cost.total == pytest.approx(sum(prices) + 2 * 2)

    def test_player_short_of_k_is_a_protocol_error(self, monkeypatch):
        # a player that never accepts breaks the forced-acceptance rule
        monkeypatch.setattr(PlayerState, "step", lambda self, price: 0)
        inst = min_inst([10, 20, 5, 8, 30], 2, 5, 30, 2)
        with pytest.raises(ProtocolError, match=r"^player accepted 0 of k=2 units$"):
            run_online(family_of(PlayerKind.DTPR, inst), inst)


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
        fam = family_of(kind, inst)
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
            sched = run_online(family_of(kind, inst), inst)
            assert sched.num_accepted() == inst.k
            if kind is PlayerKind.CARBON_AGNOSTIC:
                assert sched.decisions == (1,) * inst.k + (0,) * (inst.T - inst.k)

    @given(random_instances(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_online_causality(self, inst, data):
        # the decision at slot t must be recomputable from the prefix alone:
        # moving every price after slot t to a price bound leaves the first t
        # decisions of every kind on both variants as they were, also when
        # prices sit exactly on some player's rail (ties accept)
        if data.draw(st.booleans()):
            inst = _on_the_rails(inst, data)
        t = data.draw(st.integers(min_value=0, max_value=inst.T))
        tail = data.draw(st.lists(st.sampled_from([inst.L, inst.U]),
                                  min_size=inst.T - t, max_size=inst.T - t))
        other = Instance(k=inst.k, T=inst.T, L=inst.L, U=inst.U, beta=inst.beta,
                         variant=inst.variant, prices=inst.prices[:t] + tuple(tail))
        for kind in PlayerKind:
            family = family_of(kind, inst)
            assert run_online(family, other).decisions[:t] == run_online(family, inst).decisions[:t]

    @given(random_instances())
    @settings(max_examples=150, deadline=None)
    def test_dtpr_guarantees(self, inst):
        # ratio against the exact optimum; the extreme-price surrogate bound
        # fails when the forced tail holds both the extreme and a bad price
        # (e.g. T=k, prices=(L, U)), while the ratio bound always holds
        _, opt = dp_optimal(inst)
        if inst.variant is Variant.MIN:
            alpha = solve_alpha(inst.k, inst.U, inst.L, inst.beta)
            _, cost = hindsight_trace(family_of(PlayerKind.DTPR, inst), inst)
            assert cost.total <= alpha * opt.total + 1e-6
        else:
            omega = solve_omega(inst.k, inst.U, inst.L, inst.beta)
            _, cost = hindsight_trace(family_of(PlayerKind.DTPR, inst), inst)
            assert opt.total <= omega * cost.total + 1e-6

    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_dtpr_never_beats_exact_optimum(self, inst):
        _, cost = hindsight_trace(family_of(PlayerKind.DTPR, inst), inst)
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
    """play_lanes over every (instance, kind) lane of min instances equals
    `run_online` on that lane's instance and family, decision for decision.
    Lanes whose families are equal share one rail row."""
    k, T = insts[0].k, insts[0].T
    assert {inst.variant for inst in insts} == {Variant.MIN}
    kinds = list(PlayerKind)
    families = [
        [family_of(kind, inst) for kind in kinds]
        for inst in insts
    ]
    distinct = list(dict.fromkeys(f for row in families for f in row))
    rails = np.empty((len(distinct), 2, k + 1))
    for f, family in enumerate(distinct):
        rails[f, 0, :k], rails[f, 1, :k] = family.lower, family.upper
    lanes = np.array([[distinct.index(f) for f in row] for row in families])
    prices = np.array([inst.prices for inst in insts])
    decisions = play_lanes(prices, rails, lanes)
    assert decisions.dtype == np.int8 and decisions.shape == (len(insts), len(kinds), T)
    for i, inst in enumerate(insts):
        for a, kind in enumerate(kinds):
            played = run_online(families[i][a], inst).decisions
            assert tuple(decisions[i, a].tolist()) == played
    return decisions


@st.composite
def lane_batches(draw):
    """1..5 min instances sharing (k, T), each with its own bounds, beta and
    prices; some rows put every price on a rail or a bound."""
    T = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=T))
    insts = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        L = draw(st.floats(min_value=1, max_value=10))
        U = L * draw(st.floats(min_value=1.2, max_value=30))
        beta = draw(st.sampled_from([0.0, 1e-4, 0.2, 0.45])) * (U - L)
        raw = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=T, max_size=T))
        prices = tuple(min(max(L + r * (U - L), L), U) for r in raw)
        inst = Instance(k=k, T=T, L=L, U=U, beta=beta, variant=Variant.MIN, prices=prices)
        if draw(st.booleans()):
            inst = _on_the_rails(inst, draw(st.data()))
        insts.append(inst)
    return insts


def _tie_rows(variant):
    """Rows that put unit 1 exactly on each kind's resume rail and unit 2
    exactly on its stay rail, or one ulp worse on either, with the
    decisions each row must start with as (row, kind index, prefix)."""
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
    return insts, expected


def _bound_rows(variant, k, T):
    """A row of the worst bound, which forces every lane into the last k
    slots (the agnostic player takes the first k), and a row of the best
    bound, which fills every lane early; with each row's expected
    decisions by kind."""
    L, U, beta = 5.0, 30.0, 2.0
    worst, best = (U, L) if variant is Variant.MIN else (L, U)
    rows = [Instance(k=k, T=T, L=L, U=U, beta=beta, variant=variant, prices=(p,) * T)
            for p in (worst, best)]
    first, last = [1] * k + [0] * (T - k), [0] * (T - k) + [1] * k
    return rows, [[first if kind is PlayerKind.CARBON_AGNOSTIC else last for kind in PlayerKind],
                  [first] * len(PlayerKind)]


class TestPlayLanes:
    """play_lanes always minimizes; `TestSignedPass` plays it on max passes."""

    @given(lane_batches())
    @settings(max_examples=200, deadline=None)
    def test_lanes_equal_step(self, insts):
        _check_lanes(insts)

    def test_ties_accept_on_both_rails(self):
        insts, expected = _tie_rows(Variant.MIN)
        decisions = _check_lanes(insts)
        for i, a, want in expected:
            assert decisions[i, a, : len(want)].tolist() == want

    @pytest.mark.parametrize("k, T", [(1, 1), (1, 9), (4, 4), (3, 9)])
    def test_forced_and_early_lanes(self, k, T):
        # the lanes decline once filled
        rows, want = _bound_rows(Variant.MIN, k, T)
        assert _check_lanes(rows).tolist() == want


def _check_signed_pass(insts):
    """Play and price every (instance, kind) lane of a pass as
    `experiment._run_trials` does: one signed `player_families` table, the
    pass's prices negated on the max side, and `play_lanes`, `lane_totals`
    and `dp_decisions` on them.  The decisions equal `run_online`'s and OPT
    rows `dp_optimal`'s, and each total, turned back as 0.0 - t on the max
    side, equals fsum(accepted) +- beta * flips in positive form, bit for
    bit.  The instances share (k, T, beta, variant)."""
    first, kinds = insts[0], list(PlayerKind)
    k, beta, variant, m = first.k, first.beta, first.variant, len(kinds)
    U, L = np.array([(inst.U, inst.L) for inst in insts]).T
    table, _, failed = player_families(kinds, U, L, np.full((len(insts), m), beta), k, variant)
    assert not failed
    lanes = np.arange(len(insts) * m).reshape(-1, m)
    prices = np.array([inst.prices for inst in insts])
    if variant is Variant.MAX:
        np.negative(prices, out=prices)
    decisions = play_lanes(prices, table, lanes)
    _, _, totals, flips = lane_totals(prices, decisions, k, beta)
    opt = dp_decisions(prices, k, beta)
    for i, inst in enumerate(insts):
        assert tuple(opt[i].tolist()) == dp_optimal(inst)[0].decisions
        for a, kind in enumerate(kinds):
            row = run_online(family_of(kind, inst), inst).decisions
            assert tuple(decisions[i, a].tolist()) == row
            accepted = math.fsum(itertools.compress(inst.prices, row))
            switches = row[0] + row[-1] + sum(map(operator.ne, row, row[1:]))
            total = totals[i * m + a]
            if variant is Variant.MIN:
                want = accepted + beta * switches
            else:
                want, total = accepted - beta * switches, 0.0 - total
            assert flips[i * m + a] == switches and total.hex() == want.hex()
    return decisions


@st.composite
def signed_passes(draw):
    """1..7 instances of one variant sharing k, T <= 59 and beta, which is
    up to 0.99 of the smallest regime edge (kL/2 on the max side), each with
    its own bounds; tie-heavy prices, every one on some player's rail or a
    bound, in half the draws."""
    variant = draw(st.sampled_from(Variant))
    T = draw(st.integers(min_value=1, max_value=59))
    k = draw(st.integers(min_value=1, max_value=T))
    bounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        L = draw(st.floats(min_value=1, max_value=10))
        bounds.append((L, L * draw(st.floats(min_value=1.2, max_value=30))))
    edge = min(regime_edge(variant, k, U, L) for L, U in bounds)
    beta = draw(st.floats(min_value=0, max_value=0.99)) * edge
    ties = draw(st.booleans())
    insts = []
    for L, U in bounds:
        raw = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=T, max_size=T))
        prices = tuple(min(max(L + r * (U - L), L), U) for r in raw)
        inst = Instance(k=k, T=T, L=L, U=U, beta=beta, variant=variant, prices=prices)
        insts.append(_on_the_rails(inst, draw(st.data())) if ties else inst)
    return insts


class TestSignedPass:
    """A max pass is the min pass on negated prices and rails."""

    @given(signed_passes())
    @settings(max_examples=200, deadline=None)
    def test_pass_equals_run_online_and_the_positive_totals(self, insts):
        _check_signed_pass(insts)

    def test_ties_accept_on_both_rails_of_a_max_pass(self):
        insts, expected = _tie_rows(Variant.MAX)
        decisions = _check_signed_pass(insts)
        for i, a, want in expected:
            assert decisions[i, a, : len(want)].tolist() == want

    @pytest.mark.parametrize("k, T", [(1, 1), (1, 9), (4, 4), (3, 9)])
    def test_forced_and_early_lanes_of_a_max_pass(self, k, T):
        rows, want = _bound_rows(Variant.MAX, k, T)
        assert _check_signed_pass(rows).tolist() == want


def _scalar_row(kind, k, U, L, beta, variant):
    """One cell's (lower, upper, ratio) by the scalar formulas: the
    reference `min_upper_threshold`/`max_lower_threshold` at the one-cell
    solve, sqrt(L*U), or the agnostic rail on the price bound;
    or the error the cell's check or solve raises."""
    try:
        check_cell(k, U, L, beta)
        if kind in (PlayerKind.DTPR, PlayerKind.KSEARCH):
            b = 0.0 if kind is PlayerKind.KSEARCH else beta
            if variant is Variant.MIN:
                alpha = solve_alpha(k, U, L, b)
                upper = [min_upper_threshold(i, k, U, L, b, alpha) for i in range(1, k + 1)]
                return [u - 2 * b for u in upper], upper, alpha
            omega = solve_omega(k, U, L, b)
            lower = [max_lower_threshold(i, k, U, L, b, omega) for i in range(1, k + 1)]
            return lower, [l + 2 * b for l in lower], omega
    except OprError as exc:
        return exc
    if kind is PlayerKind.CONSTANT_THRESHOLD:
        rail = math.sqrt(L * U)
    else:
        rail = U if variant is Variant.MIN else L
    return [rail] * k, [rail] * k, max(rail / L, U / rail)


@st.composite
def rail_cells(draw):
    """One pass's columns on one variant and k: up to 8 cells, theta up to
    1e6, the kinds in any order, and each row's beta at 0, inside the
    regime, one ulp below its edge or at DTPR's clipped min beta, or
    failing (on the edge, negative or NaN); a cell may have L above U."""
    variant = draw(st.sampled_from(Variant))
    k = draw(st.integers(min_value=1, max_value=200))
    kinds = draw(st.lists(st.sampled_from(PlayerKind), min_size=1, unique=True))
    cells, betas = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        L = draw(st.floats(min_value=1e-3, max_value=1e3))
        U = L * draw(st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=1e6)))
        edge = regime_edge(variant, k, U, L)
        betas.append([draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=0, max_value=1, exclude_max=True).map(lambda f: f * edge),
            st.sampled_from([math.nextafter(edge, 0), 0.999999 * (U - L) / 2]),
            st.sampled_from([edge, -1.0, math.nan]),
        )) for _ in kinds])
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            L = 2 * U
        cells.append((U, L))
    return variant, k, kinds, cells, betas


class TestRailTable:
    @given(rail_cells())
    @settings(max_examples=100, deadline=None)
    def test_table_and_ratios_equal_the_scalar_formulas_bit_for_bit(self, case):
        variant, k, kinds, cells, betas = case
        U, L = np.array(cells).T
        table, ratios, failed = player_families(kinds, U, L, np.array(betas), k, variant)
        n = len(cells) * len(kinds)
        assert table.shape == (n, 2, k + 1) and ratios.shape == (n,)
        assert not table[:, :, k].any()
        rows = [(kind, U, L, beta) for (U, L), row in zip(cells, betas)
                for kind, beta in zip(kinds, row)]
        for f, (kind, U, L, beta) in enumerate(rows):
            want = _scalar_row(kind, k, U, L, beta, variant)
            if isinstance(want, OprError):
                got = failed.pop(f)
                assert (type(got), str(got)) == (type(want), str(want))
                assert not table[f].any() and ratios[f] == 0
                with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                    player_family(kind, k, U, L, beta, variant)
                continue
            lower, upper, ratio = want
            signed = [lower, upper] if variant is Variant.MIN else [
                [-x for x in upper], [-x for x in lower]]
            assert table[f, :, :k].tobytes() == np.array(signed).tobytes()
            assert ratios[f : f + 1].tobytes() == np.array([ratio]).tobytes()
            family = ThresholdFamily(variant, k, tuple(lower), tuple(upper), ratio)
            assert player_family(kind, k, U, L, beta, variant) == family
            if kind is PlayerKind.DTPR:
                build = dtpr_min_thresholds if variant is Variant.MIN else dtpr_max_thresholds
                assert build(k, U, L, beta) == family
            elif kind is PlayerKind.KSEARCH:
                assert ksearch_thresholds(k, U, L, variant) == family
        assert failed == {}
