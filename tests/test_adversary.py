"""Adaptive adversary transcripts against shipped and synthetic players."""

import math

import pytest

from opr.adversary import _nudged, adversary_max, adversary_min, declared_horizon
from opr.errors import DegenerateProfitError, ParameterError, ProtocolError, RegimeError
from opr.thresholds import (
    PlayerKind,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    solve_alpha,
    solve_omega,
)


class RejectUntilForced:
    """Refuses everything until the deadline forces acceptance."""

    def __init__(self, k, T, L, U, beta):
        self.k, self.T = k, T
        self.i, self.t = 1, 0

    def step(self, price):
        self.t += 1
        if (self.k - self.i) >= (self.T - self.t):
            self.i += 1
            return 1
        return 0


class NeverAccepts:
    """Protocol violator: ignores the deadline entirely."""

    def __init__(self, k, T, L, U, beta):
        pass

    def step(self, price):
        return 0


class EmitsTwo(NeverAccepts):
    """Protocol violator: a decision that is neither 0 nor 1."""

    def step(self, price):
        return 2


PARAMS = [(10, 30.0, 5.0, 3.0), (4, 80.0, 10.0, 6.0), (2, 12.0, 4.0, 1.0)]


class TestTightness:
    @pytest.mark.parametrize("k,U,L,beta", PARAMS)
    def test_dtpr_min_realizes_alpha(self, k, U, L, beta):
        alpha = solve_alpha(k, U, L, beta)
        tr = adversary_min(PlayerKind.DTPR, k, U, L, beta)
        assert tr.ratio == pytest.approx(alpha, abs=1e-6)

    @pytest.mark.parametrize("k,U,L,beta", PARAMS)
    def test_dtpr_max_realizes_omega(self, k, U, L, beta):
        omega = solve_omega(k, U, L, beta)
        tr = adversary_max(PlayerKind.DTPR, k, U, L, beta)
        assert tr.ratio == pytest.approx(omega, abs=1e-6)

    @pytest.mark.parametrize("k,U,L,beta", PARAMS)
    def test_reject_until_forced_min(self, k, U, L, beta):
        alpha = solve_alpha(k, U, L, beta)
        fam = dtpr_min_thresholds(k, U, L, beta)
        tr = adversary_min(RejectUntilForced, k, U, L, beta)
        assert tr.ratio == pytest.approx(alpha, abs=1e-6)
        # the first-branch arithmetic of the case analysis
        expect = (k * U + 2 * beta) / (k * fam.lower[0] + 2 * beta)
        assert tr.ratio == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("k,U,L,beta", PARAMS)
    def test_reject_until_forced_max(self, k, U, L, beta):
        omega = solve_omega(k, U, L, beta)
        fam = dtpr_max_thresholds(k, U, L, beta)
        tr = adversary_max(RejectUntilForced, k, U, L, beta)
        assert tr.ratio == pytest.approx(omega, abs=1e-6)
        expect = (k * fam.upper[0] - 2 * beta) / (k * L - 2 * beta)
        assert tr.ratio == pytest.approx(expect, abs=1e-6)

    def test_carbon_agnostic_min_scores_at_least_alpha(self):
        # moderate beta: the agnostic fill-by-flood branch clears alpha
        for k, U, L, beta in ((8, 760.0, 25.0, 38.0), (10, 30.0, 5.0, 1.0)):
            alpha = solve_alpha(k, U, L, beta)
            tr = adversary_min(PlayerKind.CARBON_AGNOSTIC, k, U, L, beta)
            assert tr.ratio >= alpha - 1e-6

    @pytest.mark.parametrize("k,U,L,beta", PARAMS + [(40, 30.0, 5.0, 3.0)])
    def test_carbon_agnostic_takes_the_probe_branch(self, k, U, L, beta):
        # agnostic accepts the first probe and the flood after it; it is
        # kept off the grab/stall scripts, so its ratio is the probe branch's
        p1 = _nudged(dtpr_min_thresholds(k, U, L, beta).lower[0], L, U, up=True)
        tr = adversary_min(PlayerKind.CARBON_AGNOSTIC, k, U, L, beta)
        assert tr.ratio == (p1 + (k - 1) * U + 2 * beta) / (k * L + 2 * beta)
        q1 = _nudged(dtpr_max_thresholds(k, U, L, beta).upper[0], L, U, up=False)
        tr = adversary_max(PlayerKind.CARBON_AGNOSTIC, k, U, L, beta)
        assert tr.ratio == (k * U - 2 * beta) / (q1 + (k - 1) * L - 2 * beta)

    def test_constant_rule_max_scores_at_least_omega(self):
        for k, U, L, beta in ((8, 760.0, 25.0, 10.0), (10, 30.0, 5.0, 1.0)):
            omega = solve_omega(k, U, L, beta)
            tr = adversary_max(PlayerKind.CONSTANT_THRESHOLD, k, U, L, beta)
            assert tr.ratio >= omega - 1e-6


class TestTranscript:
    def test_prices_inside_bounds_and_ratio_at_least_one(self):
        for k, U, L, beta in PARAMS:
            for tr in (
                adversary_min(PlayerKind.DTPR, k, U, L, beta),
                adversary_min(PlayerKind.CARBON_AGNOSTIC, k, U, L, beta),
                adversary_max(PlayerKind.DTPR, k, U, L, beta),
            ):
                assert all(L <= p <= U for p in tr.prices)
                assert tr.ratio >= 1.0 - 1e-9
                assert len(tr.prices) <= declared_horizon(k)

    def test_stalled_opt_bounded_by_probe_block(self):
        # a player stalling at probe j+1 leaves OPT at most k*l_{j+1} + 2b
        k, U, L, beta = 6, 40.0, 4.0, 3.0
        fam = dtpr_min_thresholds(k, U, L, beta)
        tr = adversary_min(PlayerKind.DTPR, k, U, L, beta)  # stalls at probe 1
        assert tr.opt_cost.total <= k * fam.lower[0] + 2 * beta + 1e-6

    @pytest.mark.parametrize("kind", list(PlayerKind))
    def test_integral_float_k_plays_as_its_int(self, kind):
        # k = 2.0 used to raise a raw TypeError building the probe family
        for run in (adversary_min, adversary_max):
            assert run(kind, 2.0, 30.0, 5.0, 3.0) == run(kind, 2, 30.0, 5.0, 3.0)

    def test_bound_is_the_cells_ratio(self):
        for k, U, L, beta in PARAMS:
            for kind in PlayerKind:
                assert adversary_min(kind, k, U, L, beta).bound == solve_alpha(k, U, L, beta)
                assert adversary_max(kind, k, U, L, beta).bound == solve_omega(k, U, L, beta)

    def test_alg_cost_matches_schedule(self):
        k, U, L, beta = 5, 25.0, 2.0, 1.5
        tr = adversary_min(PlayerKind.KSEARCH, k, U, L, beta)
        assert sum(tr.alg_schedule.decisions) == k
        assert tr.alg_cost.total >= tr.opt_cost.total - 1e-9


class GreedyAcceptAll:
    """Accepts every price until its units run out."""

    def __init__(self, k, T, L, U, beta):
        self.k = k
        self.taken = 0

    def step(self, price):
        if self.taken < self.k:
            self.taken += 1
            return 1
        return 0


class AcceptEveryOther:
    """Alternates accept/reject, deadline-aware."""

    def __init__(self, k, T, L, U, beta):
        self.k, self.T = k, T
        self.i, self.t = 1, 0
        self.flip = True

    def step(self, price):
        self.t += 1
        if self.i > self.k:
            return 0
        if (self.k - self.i) >= (self.T - self.t):
            self.i += 1
            return 1
        self.flip = not self.flip
        if self.flip:
            self.i += 1
            return 1
        return 0


class ProbeGrabber:
    """Accepts every price below U while it holds units; deadline-aware."""

    def __init__(self, k, T, L, U, beta):
        self.k, self.T, self.U = k, T, U
        self.i, self.t = 1, 0

    def step(self, price):
        self.t += 1
        if self.i > self.k:
            return 0
        if price < self.U or (self.k - self.i) >= (self.T - self.t):
            self.i += 1
            return 1
        return 0


class CheapEveryOther:
    """Refuses every price above L, and an L price right after an accept;
    deadline-aware.  On the max side it sells its units one at a time at
    the lowest price, so its profit can be nonpositive."""

    def __init__(self, k, T, L, U, beta):
        self.k, self.T, self.L = k, T, L
        self.i, self.t, self.prev = 1, 0, 0

    def step(self, price):
        self.t += 1
        if self.i > self.k:
            return 0
        forced = (self.k - self.i) >= (self.T - self.t)
        x = 1 if forced or (price <= self.L and not self.prev) else 0
        self.i += x
        self.prev = x
        return x


class TestHostilePlayers:
    """Odd but protocol-honoring players must produce valid transcripts."""

    @pytest.mark.parametrize("factory", [GreedyAcceptAll, AcceptEveryOther])
    @pytest.mark.parametrize("k,U,L,beta", PARAMS)
    def test_transcripts_stay_valid(self, factory, k, U, L, beta):
        for run in (adversary_min, adversary_max):
            tr = run(factory, k, U, L, beta)
            assert sum(tr.alg_schedule.decisions) == k
            assert all(L <= p <= U for p in tr.prices)
            assert tr.ratio >= 1.0 - 1e-9

    def test_probe_grabber_lands_on_the_fill_branch_value(self):
        # a black-box player that grabs every probe and switches away at U
        # scores exactly alpha - 2*beta/(kL + 2*beta) on the probe script;
        # k-search grabs the probes the same way, but its rail can be read,
        # so the grab/stall scripts drive it to alpha or above
        k, U, L, beta = 10, 30.0, 5.0, 3.0
        alpha = solve_alpha(k, U, L, beta)
        tr = adversary_min(ProbeGrabber, k, U, L, beta)
        expected = alpha - 2 * beta / (k * L + 2 * beta)
        assert tr.ratio == pytest.approx(expected, abs=1e-6)
        assert adversary_min(PlayerKind.KSEARCH, k, U, L, beta).ratio >= alpha


class TestErrors:
    def test_min_regime(self):
        with pytest.raises(RegimeError):
            adversary_min(PlayerKind.DTPR, 3, 10.0, 5.0, 0.0)  # beta must be > 0
        with pytest.raises(RegimeError):
            adversary_min(PlayerKind.DTPR, 3, 10.0, 5.0, 2.5)  # beta >= (U-L)/2

    def test_max_regime(self):
        with pytest.raises(RegimeError):
            adversary_max(PlayerKind.DTPR, 3, 10.0, 5.0, 7.4)  # beta >= kL/2 or probes leave bounds
        with pytest.raises(RegimeError):
            adversary_max(PlayerKind.DTPR, 3, 10.0, 8.0, 1.5)  # 2*beta > U-L

    @pytest.mark.parametrize("cell, message", [
        (dict(k=0), "k must be a positive integer, got 0"),
        (dict(L=-5.0), "need 0 < L <= U < inf, got L=-5.0, U=30.0"),
        (dict(L=math.nan), "need 0 < L <= U < inf, got L=nan, U=30.0"),
        (dict(U=math.inf), "need 0 < L <= U < inf, got L=5.0, U=inf"),
        (dict(beta=-1.0), "beta must be finite and nonnegative, got -1.0"),
    ])
    def test_bad_cell_is_named_before_the_regime_on_both_sides(self, cell, message):
        # the cell is checked before the regime, so the max side does not
        # report k=0 or a bad L through its edge kL/2 (0, -7.5 or nan)
        args = {**dict(k=3, U=30.0, L=5.0, beta=1.0), **cell}
        for run in (adversary_min, adversary_max):
            with pytest.raises(ParameterError) as info:
                run(PlayerKind.DTPR, **args)
            assert str(info.value) == message

    @pytest.mark.parametrize("k, beta", [(2, 3.0), (4, 2.5)])
    def test_nonpositive_profit_has_no_ratio(self, k, beta):
        # profit 10 - 4*3 = -2 at k=2 (once a ratio of -9.635), and
        # 20 - 8*2.5 = 0 at k=4 (once a ZeroDivisionError)
        with pytest.raises(DegenerateProfitError, match="nonpositive profit"):
            adversary_max(CheapEveryOther, k, 30.0, 5.0, beta)

    def test_protocol_violation_detected(self):
        with pytest.raises(ProtocolError):
            adversary_min(NeverAccepts, 3, 30.0, 5.0, 2.0)

    def test_decision_outside_0_1_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match=r"^player emitted 2, expected 0 or 1$"):
            adversary_min(EmitsTwo, 3, 30.0, 5.0, 2.0)
