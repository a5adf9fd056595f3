"""Online-player protocol, baselines, and the competitive guarantees."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr.algorithms import PlayerState, hindsight_trace, new_player, play_lanes, run_online
from opr.core import Instance, Variant, check_cell
from opr.errors import OprError, ParameterError, ProtocolError
from opr.offline import dp_optimal
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
        # a state built directly skips new_player's k <= T check, so it
        # runs out of slots before units
        state = PlayerState(k=2, T=1, family=dtpr_min_thresholds(2, 30, 5, 3))
        state.step(30)
        with pytest.raises(ProtocolError, match=r"^step past horizon T=1$"):
            state.step(30)

    @pytest.mark.parametrize("kind", list(PlayerKind))
    def test_k_above_horizon_rejected(self, kind):
        # a DTPR player of k=3, T=2 used to take 2 steps and then raise
        # ProtocolError("step past horizon") mid-run
        with pytest.raises(ParameterError, match=r"need 1 <= k <= T, got k=3, T=2$"):
            new_player(kind, 3, 2, 1, 3, 0.5, Variant.MIN)

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
                player = new_player(kind, k, T, L, U, beta, variant)
                assert player.family == family
                assert player.family.variant is variant
                assert type(player.k) is int and type(player.family.k) is int
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

    def test_player_short_of_k_is_a_protocol_error(self, monkeypatch):
        # a player that never accepts breaks the forced-acceptance rule
        monkeypatch.setattr(PlayerState, "step", lambda self, price: 0)
        inst = min_inst([10, 20, 5, 8, 30], 2, 5, 30, 2)
        with pytest.raises(ProtocolError, match=r"^dtpr accepted 0 of k=2 units$"):
            run_online(PlayerKind.DTPR, inst)


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
            assert run_online(kind, other).decisions[:t] == run_online(kind, inst).decisions[:t]

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
    """play_lanes over every (instance, kind) lane equals `run_online` on
    that lane's instance and family, decision for decision.  Lanes whose
    families are equal share one rail row."""
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
            played = run_online(kind, inst, families[i][a]).decisions
            assert tuple(decisions[i, a].tolist()) == played
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
    """One pass's cells on one variant and k: every kind, theta up to 1e6,
    beta at 0, inside the regime, one ulp below its edge or at DTPR's
    clipped min beta, and failing cells mixed in (beta on the edge,
    negative or NaN; L above U)."""
    variant = draw(st.sampled_from(Variant))
    k = draw(st.integers(min_value=1, max_value=200))
    cells = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        L = draw(st.floats(min_value=1e-3, max_value=1e3))
        U = L * draw(st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=1e6)))
        edge = regime_edge(variant, k, U, L)
        beta = draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=0, max_value=1, exclude_max=True).map(lambda f: f * edge),
            st.sampled_from([math.nextafter(edge, 0), 0.999999 * (U - L) / 2]),
            st.sampled_from([edge, -1.0, math.nan]),
        ))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            L = 2 * U
        cells.append((draw(st.sampled_from(PlayerKind)), U, L, beta))
    return variant, k, cells


class TestRailTable:
    @given(rail_cells())
    @settings(max_examples=100, deadline=None)
    def test_table_and_ratios_equal_the_scalar_formulas_bit_for_bit(self, case):
        variant, k, cells = case
        table, ratios, failed = player_families(cells, k, variant)
        assert table.shape == (len(cells), 2, k + 1) and ratios.shape == (len(cells),)
        assert not table[:, :, k].any()
        for f, (kind, U, L, beta) in enumerate(cells):
            want = _scalar_row(kind, k, U, L, beta, variant)
            if isinstance(want, OprError):
                got = failed.pop(f)
                assert (type(got), str(got)) == (type(want), str(want))
                assert not table[f].any() and ratios[f] == 0
                with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                    player_family(kind, k, U, L, beta, variant)
                continue
            lower, upper, ratio = want
            assert table[f, :, :k].tobytes() == np.array([lower, upper]).tobytes()
            assert ratios[f : f + 1].tobytes() == np.array([ratio]).tobytes()
            family = ThresholdFamily(variant, k, tuple(lower), tuple(upper), ratio)
            assert player_family(kind, k, U, L, beta, variant) == family
            if kind is PlayerKind.DTPR:
                build = dtpr_min_thresholds if variant is Variant.MIN else dtpr_max_thresholds
                assert build(k, U, L, beta) == family
            elif kind is PlayerKind.KSEARCH:
                assert ksearch_thresholds(k, U, L, variant) == family
        assert failed == {}
