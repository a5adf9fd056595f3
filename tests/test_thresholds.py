"""Ratio solvers, threshold families, and their structural identities.

Golden values were frozen from an independent fine-grid scan (step 1e-7,
refined by bisection) run before the solvers were written; the hand-reduced
special cases are noted inline.
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratio_reference
from ratio_reference import max_lower_threshold, max_residual, min_residual, min_upper_threshold
import opr.thresholds
from opr.core import Variant, check_cell
from opr.errors import OprError, ParameterError, RegimeError
from opr.thresholds import (
    EDGE_NAMES,
    PlayerKind,
    ThresholdFamily,
    _powers,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    ksearch_thresholds,
    player_families,
    player_family,
    regime_edge,
    solve_alpha,
    solve_omega,
    solve_ratios,
)

# grid-scan goldens for the k=10, U=30, L=5, beta=3 example parameters
ALPHA_EXAMPLE = 2.6759814673012308
OMEGA_EXAMPLE = 2.74538083511867
# 1/alpha solves 3a^2 + a^3 = 1 for k=2, theta=4, beta=0
ALPHA_K2_CUBIC = 1.8793852415718169
# root of (theta-1)/(w-1) = (1 + w/2)^2 for k=2, theta=4
OMEGA_K2 = 1.8216401644041138


def eq7_residual(a, k, U, L, beta):
    """Printed form of the min ratio equation, LHS - RHS."""
    lhs = (U - L - 2 * beta) / (U * (1 - 1 / a) - (2 * beta - 2 * beta / k + 2 * beta / (k * a)))
    return lhs - (1 + 1 / (k * a)) ** k


def eq8_residual(w, k, U, L, beta):
    lhs = (U - L - 2 * beta) / (L * (w - 1) - 2 * beta * (1 - 1 / k + w / k))
    return lhs - (1 + w / k) ** k


class TestSolvers:
    def test_alpha_k1_reduces_to_sqrt_theta(self):
        assert solve_alpha(1, 100, 1, 0) == pytest.approx(10.0, abs=1e-9)

    def test_alpha_k2_cubic(self):
        assert solve_alpha(2, 4, 1, 0) == pytest.approx(ALPHA_K2_CUBIC, abs=1e-9)

    def test_alpha_example_golden(self):
        assert solve_alpha(10, 30, 5, 3) == pytest.approx(ALPHA_EXAMPLE, abs=1e-9)

    def test_omega_k1(self):
        assert solve_omega(1, 100, 1, 0) == pytest.approx(10.0, abs=1e-9)

    def test_omega_k2(self):
        assert solve_omega(2, 4, 1, 0) == pytest.approx(OMEGA_K2, abs=1e-9)

    def test_omega_example_golden(self):
        assert solve_omega(10, 30, 5, 3) == pytest.approx(OMEGA_EXAMPLE, abs=1e-9)

    @pytest.mark.parametrize(
        "k,U,L,beta",
        [(10, 30, 5, 3), (1, 100, 1, 0), (5, 50, 2, 1.5), (25, 9, 3, 1)],
    )
    def test_residuals_of_printed_equations(self, k, U, L, beta):
        # moderate 2*beta/L only: near the b -> k edge the printed max-side
        # expression itself cannot be evaluated below ~1e-9 in float64, even
        # though the root is located to machine precision
        assert abs(eq7_residual(solve_alpha(k, U, L, beta), k, U, L, beta)) < 1e-10
        assert abs(eq8_residual(solve_omega(k, U, L, beta), k, U, L, beta)) < 1e-10

    def test_min_regime_error(self):
        with pytest.raises(RegimeError):
            solve_alpha(3, 10, 8, 1.0)  # beta >= (U-L)/2

    def test_max_regime_error(self):
        with pytest.raises(RegimeError):
            solve_omega(2, 10, 1, 1.0)  # beta >= kL/2

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            solve_alpha(0, 10, 1, 0)
        with pytest.raises(ParameterError):
            solve_alpha(2, 1, 10, 0)
        with pytest.raises(ParameterError, match="exactly k values per rail"):
            ThresholdFamily(Variant.MIN, 2, lower=(5.0,), upper=(5.0, 5.0), ratio=1.0)
        # the agnostic player used to take L = -1 and report ratio 1.0
        for kind in PlayerKind:
            for variant in Variant:
                with pytest.raises(ParameterError):
                    player_family(kind, 2, 30.0, -1.0, 1.0, variant)

    @pytest.mark.parametrize(
        "U, beta", [(30.0, math.nan), (30.0, math.inf), (math.inf, 1.0), (30.0, -5.0)]
    )
    def test_non_finite_parameters_rejected(self, U, beta):
        # NaN slips past any `beta < 0` test, and U = inf past `L <= U`;
        # both used to give alpha = 1 with NaN thresholds.  Every player
        # kind passes the same cell check: the constant player used to take
        # U = inf (inf rails), and it and the agnostic one a negative beta
        for solve in (solve_alpha, solve_omega):
            with pytest.raises(ParameterError):
                solve(4, U, 5.0, beta)
        for build in (dtpr_min_thresholds, dtpr_max_thresholds):
            with pytest.raises(ParameterError):
                build(4, U, 5.0, beta)
        for kind in PlayerKind:
            for variant in Variant:
                with pytest.raises(ParameterError):
                    player_family(kind, 4, U, 5.0, beta, variant)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 2.5])
    def test_non_integer_k_rejected(self, k):
        # `int(k)` used to raise ValueError for NaN and OverflowError for
        # inf; the constant and agnostic players took k = 2.5 to a raw
        # TypeError
        for solve in (solve_alpha, solve_omega):
            with pytest.raises(ParameterError):
                solve(k, 30.0, 5.0, 1.0)
        for kind in PlayerKind:
            for variant in Variant:
                with pytest.raises(ParameterError):
                    player_family(kind, k, 30.0, 5.0, 1.0, variant)

    def test_integral_float_k_builds_the_int_family(self):
        # k = 2.0 passes the k check; it used to reach `range(1, k + 1)` in
        # dtpr_family and raise a raw TypeError
        for build in (dtpr_min_thresholds, dtpr_max_thresholds):
            family = build(2.0, 30.0, 5.0, 3.0)
            assert family == build(2, 30.0, 5.0, 3.0) and type(family.k) is int

    def test_bracket_doubles_at_most_200_times(self):
        # k=1, beta=0: omega = sqrt(theta), so theta = 2**401 puts the root
        # at 2**200.5, inside the bracket of the 200th doubling, and
        # theta = 2**402.5 puts it past the last bracket the solver tries
        assert math.log2(solve_omega(1, 2.0**401, 1.0, 0.0)) == 200.5
        with pytest.raises(RegimeError, match="bracket did not close"):
            solve_omega(1, 2.0**402.5, 1.0, 0.0)
        # a sweep raises its first unsolvable cell
        from opr.experiment import sweep_ratios

        with pytest.raises(RegimeError) as info:
            sweep_ratios(Variant.MAX, 1, 2.0**402.5, [0.0], [1.0])
        assert str(info.value) == "omega root bracket did not close; ratio diverges"

    def test_degenerate_flat_bounds(self):
        assert solve_alpha(3, 4, 4, 0) == 1.0
        assert solve_omega(3, 4, 4, 0) == 1.0

    def test_root_bracket_has_single_sign_change(self):
        # sign scan across the bracketing interval used by the solver
        for resid, root in (
            (lambda x: min_residual(x, 10, 30, 5, 3), solve_alpha(10, 30, 5, 3)),
            (lambda x: max_residual(x, 10, 30, 5, 3), solve_omega(10, 30, 5, 3)),
        ):
            hi = 2.0
            while resid(hi) > 0:
                hi *= 2
            xs = [1 + 1e-12 + (hi - 1) * i / 400 for i in range(401)]
            signs = [resid(x) > 0 for x in xs]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert changes == 1
            assert 1 < root < hi

    def test_omega_bracket_survives_power_overflow(self):
        # 2b sits just below kL, so the root is near 1.2e8 and doubling the
        # bracket takes (1 + w/k)**k past the float range on the way there
        from opr.experiment import sweep_ratios

        k, U, L, beta = 120, 71263.04857916338, 6.3901825257597675, 383.4105681346345
        omega = solve_omega(k, U, L, beta)
        assert math.isfinite(omega) and omega > 1
        assert max_residual(omega * (1 - 1e-9), k, U, L, beta) > 0
        assert max_residual(omega * (1 + 1e-9), k, U, L, beta) <= 0
        assert dtpr_max_thresholds(k, U, L, beta).ratio == omega
        [(_, _, cell)] = sweep_ratios(Variant.MAX, k, U, [beta], [L])
        assert cell == omega


class TestFamilyChecks:
    @pytest.mark.parametrize("variant", ["min", "max", 0, None])
    def test_variant_must_be_a_variant(self, variant):
        # 'min' failed `variant is Variant.MIN` in the step rule, so the
        # family played the max rule: it took a price above its threshold
        with pytest.raises(ParameterError, match=r"^variant must be a Variant, got "):
            ThresholdFamily(variant, 1, (5.0,), (5.0,), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("rail", ["lower", "upper"])
    def test_rails_must_be_finite(self, rail, bad):
        # NaN rails used to refuse every price until the deadline forced one
        rails = dict(lower=(5.0, 6.0), upper=(7.0, 8.0))
        rails[rail] = (rails[rail][0], bad)
        with pytest.raises(
            ParameterError, match=rf"^threshold rails must be finite, got {rail}\[1\]={bad}$"
        ):
            ThresholdFamily(Variant.MIN, 2, ratio=1.0, **rails)


class TestMinFamily:
    def test_k1_beta0_is_the_constant_rule(self):
        fam = dtpr_min_thresholds(1, 100, 1, 0)
        assert fam.lower[0] == pytest.approx(10.0, abs=1e-9)
        assert fam.upper[0] == pytest.approx(10.0, abs=1e-9)
        const = player_family(PlayerKind.CONSTANT_THRESHOLD, 1, 100, 1, 0, Variant.MIN)
        assert fam.lower[0] == pytest.approx(const.lower[0], abs=1e-9)

    @pytest.mark.parametrize("k,U,L,beta", [(10, 30, 5, 3), (4, 12, 2, 1), (1, 8, 2, 0.5)])
    def test_rail_gap_is_two_beta(self, k, U, L, beta):
        fam = dtpr_min_thresholds(k, U, L, beta)
        for lo, hi in zip(fam.lower, fam.upper):
            assert hi - lo == pytest.approx(2 * beta, abs=1e-9)

    def test_example_shape_and_endpoint(self):
        fam = dtpr_min_thresholds(10, 30, 5, 3)
        assert all(a > b for a, b in zip(fam.upper, fam.upper[1:]))
        assert all(a > b for a, b in zip(fam.lower, fam.lower[1:]))
        ext_lower = min_upper_threshold(11, 10, 30, 5, 3, fam.ratio) - 2 * 3
        assert ext_lower == pytest.approx(5.0, abs=1e-6)

    def test_thresholds_stay_inside_bounds(self):
        fam = dtpr_min_thresholds(10, 30, 5, 3)
        assert all(5 < lo and hi < 30 for lo, hi in zip(fam.lower, fam.upper))


class TestMaxFamily:
    def test_k1_beta0(self):
        fam = dtpr_max_thresholds(1, 100, 1, 0)
        assert fam.lower[0] == pytest.approx(10.0, abs=1e-9)
        assert fam.upper[0] == pytest.approx(10.0, abs=1e-9)

    def test_rail_gap(self):
        fam = dtpr_max_thresholds(10, 30, 5, 3)
        for lo, hi in zip(fam.lower, fam.upper):
            assert hi - lo == pytest.approx(6.0, abs=1e-9)

    def test_example_shape_and_endpoint(self):
        fam = dtpr_max_thresholds(10, 30, 5, 3)
        assert all(a < b for a, b in zip(fam.lower, fam.lower[1:]))
        assert all(a < b for a, b in zip(fam.upper, fam.upper[1:]))
        ext_upper = max_lower_threshold(11, 10, 30, 5, 3, fam.ratio) + 2 * 3
        assert ext_upper == pytest.approx(30.0, abs=1e-6)


class TestKSearch:
    def test_k1_min_is_sqrt_ul(self):
        fam = ksearch_thresholds(1, 100, 1, Variant.MIN)
        assert fam.lower[0] == pytest.approx(10.0, abs=1e-9)

    def test_equals_beta0_family(self):
        for variant, build in (
            (Variant.MIN, dtpr_min_thresholds),
            (Variant.MAX, dtpr_max_thresholds),
        ):
            ks = ksearch_thresholds(7, 40, 3, variant)
            dt = build(7, 40, 3, 0.0)
            assert ks.lower == dt.lower
            assert ks.upper == dt.upper
            assert ks.lower == ks.upper

    def test_k2_ratio_matches_cubic(self):
        fam = ksearch_thresholds(2, 4, 1, Variant.MIN)
        assert fam.ratio == pytest.approx(solve_alpha(2, 4, 1, 0), abs=1e-12)
        assert fam.ratio == pytest.approx(ALPHA_K2_CUBIC, abs=1e-9)


@st.composite
def min_params(draw):
    k = draw(st.integers(min_value=1, max_value=50))
    L = draw(st.floats(min_value=0.5, max_value=20))
    theta = draw(st.floats(min_value=1.05, max_value=100))
    frac = draw(st.floats(min_value=0.0, max_value=0.95))
    U = L * theta
    return k, U, L, frac * (U - L) / 2


@st.composite
def max_params(draw):
    k = draw(st.integers(min_value=1, max_value=50))
    L = draw(st.floats(min_value=0.5, max_value=20))
    theta = draw(st.floats(min_value=1.05, max_value=100))
    frac = draw(st.floats(min_value=0.0, max_value=0.9))
    U = L * theta
    return k, U, L, frac * k * L / 2


class TestBalancingIdentities:
    @given(min_params())
    @settings(max_examples=150, deadline=None)
    def test_min_balance(self, params):
        k, U, L, beta = params
        alpha = solve_alpha(k, U, L, beta)
        upper = [min_upper_threshold(i, k, U, L, beta, alpha) for i in range(1, k + 2)]
        for j in range(0, k + 1):
            lhs = math.fsum(upper[:j]) + (k - j) * U + 2 * beta
            rhs = alpha * (k * (upper[j] - 2 * beta) + 2 * beta)
            assert abs(lhs - rhs) < 1e-6

    @given(max_params())
    @settings(max_examples=150, deadline=None)
    def test_max_balance(self, params):
        k, U, L, beta = params
        omega = solve_omega(k, U, L, beta)
        lower = [max_lower_threshold(i, k, U, L, beta, omega) for i in range(1, k + 2)]
        for j in range(0, k + 1):
            lhs = omega * (math.fsum(lower[:j]) + (k - j) * L - 2 * beta)
            rhs = k * (lower[j] + 2 * beta) - 2 * beta
            assert abs(lhs - rhs) < 1e-6

    @given(min_params())
    @settings(max_examples=100, deadline=None)
    def test_min_monotone_nonincreasing(self, params):
        k, U, L, beta = params
        fam = dtpr_min_thresholds(k, U, L, beta)
        assert all(a >= b - 1e-12 for a, b in zip(fam.upper, fam.upper[1:]))

    @given(max_params())
    @settings(max_examples=100, deadline=None)
    def test_max_monotone_nondecreasing(self, params):
        k, U, L, beta = params
        if 2 * beta > U - L:  # stay rail tops out above U; shape flips by design
            return
        fam = dtpr_max_thresholds(k, U, L, beta)
        assert all(a <= b + 1e-12 for a, b in zip(fam.lower, fam.lower[1:]))


# --- the lane solver ----------------------------------------------------------
#
# `solve_ratios` bisects every cell of a batch as one lane.  Each lane must
# give what the cell alone gives: the regime checks, then the plain
# bisection of ``tests/ratio_reference.py``, root for root by ``repr`` and
# error for error by type and message.


def _expected(variant, k, U, L, beta):
    """A cell's outcome from the checks and the reference bisection."""
    is_min = variant is Variant.MIN
    what = "alpha" if is_min else "omega"
    if U == L and beta == 0:
        return repr(1.0)
    if is_min and beta >= (U - L) / 2:
        return ("RegimeError", f"beta={beta} >= (U-L)/2={(U - L) / 2}: single-block "
                "regime, min ratio equation does not apply")
    if not is_min and beta >= k * L / 2:
        return ("RegimeError", f"beta={beta} >= kL/2={k * L / 2}: profit can be forced "
                "nonpositive, max ratio is unbounded")
    try:
        return repr(ratio_reference.solve(variant, k, U, L, beta))
    except RegimeError as exc:
        message = {
            "no root above 1": f"no {what} root above 1 for these parameters",
            "bracket did not close": f"{what} root bracket did not close; ratio diverges",
        }[str(exc)]
        return ("RegimeError", message)


def _solve(variant, cells):
    """`solve_ratios` on (k, U, L, beta) cells as float64 columns, as one
    list: each cell's root or error.  A failed cell's root reads 0."""
    roots, errors = solve_ratios(variant, *np.array(cells, dtype=float).reshape(-1, 4).T)
    assert not roots[list(errors)].any()
    return [errors.get(i, root) for i, root in enumerate(roots.tolist())]


def _outcome(result):
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    return repr(result)


@st.composite
def _cell(draw, variant):
    """k 1..200, theta up to 1e300 (or exactly 1), and beta at zero, inside
    the regime, at its edge, or one ulp either side of it."""
    k = draw(st.integers(min_value=1, max_value=200))
    L = 10 ** draw(st.floats(min_value=-3, max_value=3))
    theta = draw(st.one_of(st.just(1.0), st.floats(min_value=0, max_value=300).map(
        lambda e: 10**e)))
    U = L * theta
    edge = (U - L) / 2 if variant is Variant.MIN else k * L / 2
    place = draw(st.sampled_from(["zero", "inside", "near", "below", "at", "past"]))
    if place == "zero":
        beta = 0.0
    elif place == "inside":
        beta = edge * draw(st.floats(min_value=0, max_value=1, exclude_max=True))
    elif place == "near":
        beta = edge * (1 - 10 ** -draw(st.floats(min_value=1, max_value=12)))
    elif place == "below":
        beta = math.nextafter(edge, 0.0)
    elif place == "at":
        beta = edge
    else:
        beta = math.nextafter(edge, math.inf)
    return k, U, L, max(beta, 0.0)


@st.composite
def _batch(draw):
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    cells = draw(st.lists(_cell(variant), min_size=1, max_size=24))
    return variant, cells


# k=200, U=1e300: doubling the max-side bracket takes the product of lhs and
# (1 + w/k)**k past the float range before the power itself overflows
OVERFLOW_CELLS = [(200, 1e300, L, beta) for L in (1.0, 1e3, 1e6, 1e9) for beta in (0.0, 50.0, 99.0)]


class TestLaneSolver:
    @given(_batch())
    @settings(max_examples=120, deadline=None)
    def test_each_lane_is_the_reference_cell(self, batch):
        variant, cells = batch
        got = [_outcome(r) for r in _solve(variant, cells)]
        assert got == [_expected(variant, *cell) for cell in cells]

    @given(_batch(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_permuting_or_splitting_a_batch_moves_no_lane(self, batch, data):
        variant, cells = batch
        whole = [_outcome(r) for r in _solve(variant, cells)]
        order = data.draw(st.permutations(range(len(cells))))
        permuted = _solve(variant, [cells[i] for i in order])
        assert [_outcome(r) for r in permuted] == [whole[i] for i in order]
        cut = data.draw(st.integers(min_value=0, max_value=len(cells)))
        halves = _solve(variant, cells[:cut]) + _solve(variant, cells[cut:])
        assert [_outcome(r) for r in halves] == whole

    @given(_batch())
    @settings(max_examples=30, deadline=None)
    def test_one_cell_calls_are_solve_alpha_and_solve_omega(self, batch):
        variant, cells = batch
        solve = solve_alpha if variant is Variant.MIN else solve_omega
        for cell, lane in zip(cells, _solve(variant, cells)):
            try:
                alone = solve(*cell)
            except RegimeError as exc:
                alone = exc
            assert _outcome(alone) == _outcome(lane)

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    def test_a_large_seeded_batch_is_the_reference(self, variant):
        # mostly in-regime cells: here a lane's power rounding shows (with
        # np.power for math.pow about 2% of min-side roots move)
        rng = random.Random(16)
        cells = []
        for _ in range(1500):
            k = rng.randint(1, 200)
            L = 10 ** rng.uniform(-2, 3)
            U = L * 10 ** rng.uniform(1e-6, rng.choice((3, 300)))
            edge = (U - L) / 2 if variant is Variant.MIN else k * L / 2
            cells.append((k, U, L, edge * rng.choice((0.0, rng.random(), 1 - 1e-9))))
        got = [_outcome(r) for r in _solve(variant, cells)]
        assert got == [_expected(variant, *cell) for cell in cells]

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    def test_lanes_with_no_root_above_1_leave_first(self, variant):
        # theta within 1e-12 of 1 has its residual <= 0 already at 1+1e-12;
        # the drawn cells above reach that exit only by chance
        cells = [(k, 5.0 * (1 + 10.0**-e), 5.0, 0.0) for k in (1, 7, 200) for e in (9, 12, 15)]
        cells.insert(2, (10, 30.0, 5.0, 3.0))
        got = [_outcome(r) for r in _solve(variant, cells)]
        assert got == [_expected(variant, *cell) for cell in cells]
        what = "alpha" if variant is Variant.MIN else "omega"
        assert got.count(("RegimeError", f"no {what} root above 1 for these parameters")) == 6

    def test_bad_parameters_come_back_per_lane(self):
        cells = [(4, 30.0, 5.0, 1.0), (0, 30.0, 5.0, 1.0), (4, 5.0, 30.0, 1.0),
                 (4, 30.0, 5.0, math.nan), (4, 30.0, 5.0, 1.0)]
        got = _solve(Variant.MIN, cells)
        assert got[0] == got[4] == solve_alpha(4, 30.0, 5.0, 1.0)
        for cell, lane in zip(cells[1:4], got[1:4]):
            with pytest.raises(ParameterError) as excinfo:  # a lane's k is a float
                solve_alpha(*map(float, cell))
            assert _outcome(lane) == _outcome(excinfo.value)
        assert _solve(Variant.MAX, []) == []

    def test_overflow_stays_silent(self):
        # numpy would warn on the overflowing product; Python floats do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _solve(Variant.MAX, OVERFLOW_CELLS)
        assert [_outcome(r) for r in got] == [_expected(Variant.MAX, *c) for c in OVERFLOW_CELLS]

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    def test_lanes_evaluate_the_residual_as_often_as_the_reference(self, variant, monkeypatch):
        # theory's sweep grid: k=10, U=30, L in [1, 10], beta in [0, 5], 50 steps each;
        # a lane whose bracket has closed stops doubling, as the scalar loop does
        def grid(lo, hi):
            return [lo + (hi - lo) * i / 49 for i in range(50)]

        cells = [(10, 30.0, L, beta) for L in grid(1.0, 10.0) for beta in grid(0.0, 5.0)
                 if beta < regime_edge(variant, 10, 30.0, L)]
        lanes, calls, powers = 0, 0, _powers

        def spy(base, exps):
            nonlocal lanes
            lanes += base.size
            return powers(base, exps)

        monkeypatch.setattr(opr.thresholds, "_powers", spy)
        _solve(variant, cells)
        residual = min_residual if variant is Variant.MIN else max_residual
        for cell in cells:
            def counted(x, cell=cell):
                nonlocal calls
                calls += 1
                return residual(x, *cell)

            ratio_reference.bisect_ratio(counted)
        assert lanes == calls


# --- the lanes' powers and checks ---------------------------------------------


def _pow_or_inf(base, exp):
    """`math.pow`, with inf where it raises OverflowError."""
    try:
        return math.pow(base, exp)
    except OverflowError:
        return math.inf


def _same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.int64), np.array(want).view(np.int64))


class TestPowers:
    # x from 1 + 1e-12 to 2**201, the whole bracket of the ratio bisection
    XS = [1 + 1e-12, 2.0**201] + [2 ** random.Random(25).uniform(0, 201) for _ in range(60)]

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    def test_residual_growth_is_math_pow_bit_for_bit(self, variant):
        ks = range(1, 2001)
        bases = [1 + 1 / (k * x) if variant is Variant.MIN else 1 + x / k
                 for x in self.XS for k in ks]
        exps = [float(k) for _ in self.XS for k in ks]
        with np.errstate(over="ignore"):
            got = _powers(np.array(bases), np.array(exps))
        want = [_pow_or_inf(b, e) for b, e in zip(bases, exps)]
        assert _same_bits(got, want)
        # past 1.8e308 the max side gives inf where math.pow raises
        assert (math.inf in want) is (variant is Variant.MAX)

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    @pytest.mark.parametrize("k", [1, 7, 120, 2000])
    def test_rail_powers_are_math_pow_bit_for_bit(self, variant, k):
        growth = np.array([1 + 1 / (k * x) if variant is Variant.MIN else 1 + x / k
                           for x in self.XS])
        got = _powers(growth[:, None], np.arange(-k, 0.0))
        want = [[_pow_or_inf(g, e) for e in range(-k, 0)] for g in growth.tolist()]
        assert _same_bits(got, want)


def _checked(variant, cell):
    """A cell's outcome by the scalar checks, `check_cell` then flat bounds
    then `regime_edge`, or the reference bisection where they all pass."""
    k, U, L, beta = cell
    try:
        check_cell(*cell)
    except ParameterError as exc:
        return ("ParameterError", str(exc))
    if U == L and beta == 0:
        return repr(1.0)
    if beta >= (edge := regime_edge(variant, k, U, L)):
        why = ("single-block regime, min ratio equation does not apply"
               if variant is Variant.MIN
               else "profit can be forced nonpositive, max ratio is unbounded")
        return ("RegimeError", f"beta={beta} >= {EDGE_NAMES[variant]}={edge}: {why}")
    return _expected(variant, *cell)


@st.composite
def _mixed_cell(draw, variant):
    """One cell that fails `check_cell` in k, its bounds or beta, has flat
    bounds, sits at or past its edge with an int beta, or is in the regime."""
    k = draw(st.sampled_from([1, 2, 7, 40, 2.0]))
    L = draw(st.floats(min_value=0.5, max_value=20))
    U = L + draw(st.floats(min_value=0.5, max_value=50))
    beta = regime_edge(variant, k, U, L) * draw(st.floats(0, 1, exclude_max=True))
    kind = draw(st.sampled_from(["k", "bounds", "beta", "flat", "edge", "inside"]))
    if kind == "k":
        k = draw(st.sampled_from([0, -1, 2.5, math.nan, math.inf]))
    elif kind == "bounds":
        U, L = draw(st.sampled_from([(U, 0.0), (U, -L), (-U, L), (L, U), (math.inf, L),
                                     (U, math.inf), (math.nan, L), (U, math.nan)]))
    elif kind == "beta":
        beta = draw(st.sampled_from([-0.0, -1.0 - beta, -1, math.nan, math.inf]))
    elif kind == "flat":
        U, beta = L, draw(st.sampled_from([0, 0.0, -0.0]))
    elif kind == "edge":  # int k, U, L and beta at or just past an integral edge
        k, l, m = (draw(st.integers(min_value=1, max_value=30)) for _ in range(3))
        L, U = (l, l + 2 * m) if variant is Variant.MIN else (2 * l, 2 * l + m)
        beta = int(regime_edge(variant, k, U, L)) + draw(st.sampled_from([0, 1]))
    return k, U, L, beta


@st.composite
def _mixed_batch(draw):
    variant = draw(st.sampled_from([Variant.MIN, Variant.MAX]))
    return variant, draw(st.lists(_mixed_cell(variant), min_size=1, max_size=20))


class TestBatchChecks:
    @given(_mixed_batch())
    @settings(max_examples=200, deadline=None)
    def test_array_checks_are_the_scalar_checks(self, batch):
        variant, cells = batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _solve(variant, cells)
        # the columns hold floats, so an int k or beta is named as its float
        assert [_outcome(r) for r in got] == [
            _checked(variant, tuple(map(float, cell))) for cell in cells]

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    @pytest.mark.parametrize("position", range(4), ids=["k", "U", "L", "beta"])
    def test_a_batch_with_a_numeric_string_is_a_type_error(self, variant, position):
        # the columns hold floats only; a cell of Python values enters through
        # a one-cell call, which raises `check_cell`'s own TypeError for a
        # string, of every player kind
        cell = [4, 30.0, 5.0, 1.0]
        cell[position] = str(cell[position])
        with pytest.raises(TypeError) as want:
            check_cell(*cell)
        for kind in PlayerKind:
            with pytest.raises(TypeError) as got:
                player_family(kind, *cell, variant)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    @pytest.mark.parametrize("position", range(4), ids=["k", "U", "L", "beta"])
    def test_a_numeric_string_is_a_type_error(self, variant, position):
        # a float64 column would read '4' as 4.0
        cell = [4, 30.0, 5.0, 1.0]
        cell[position] = str(cell[position])
        solve, family = ((solve_alpha, dtpr_min_thresholds) if variant is Variant.MIN
                         else (solve_omega, dtpr_max_thresholds))
        for fn in (solve, family):
            with pytest.raises(TypeError):
                fn(*cell)


# --- the columnar rail table --------------------------------------------------


@st.composite
def _columns(draw):
    """One `player_families` call: up to 12 cells drawn from a pool, so some
    repeat, the kinds in any order, k 1..40, and each row's beta drawn from
    the values where a rule changes: DTPR's min edge (U-L)/2 exactly, one
    ulp below and past it, and the clip 0.999999 of it; the max edge kL/2
    and past it; 0 at L == U; U within 1e-13 of L, which has no root above
    1; and the failing cells U = inf, L <= 0, a negative or NaN beta."""
    variant = draw(st.sampled_from(Variant))
    k = draw(st.integers(min_value=1, max_value=40))
    kinds = draw(st.lists(st.sampled_from(PlayerKind), min_size=1, unique=True))
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        L = draw(st.floats(min_value=0.01, max_value=100))
        U = L * draw(st.one_of(st.just(1.0), st.just(1 + 1e-13),
                               st.floats(min_value=1, max_value=1e4)))
        pool.append(draw(st.sampled_from([(U, L), (U, L), (U, L), (math.inf, L), (U, 0.0),
                                          (U, -L)])))
    cells = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    betas = []
    for U, L in cells:
        low, high = (U - L) / 2, k * L / 2
        betas.append([draw(st.sampled_from([
            0.0, low * 0.5, high * 0.5, low, math.nextafter(low, 0), math.nextafter(low, math.inf),
            0.999999 * low, high, math.nextafter(high, math.inf), -1.0, math.nan,
        ])) for _ in kinds])
    return variant, k, kinds, cells, betas


#: positive finite floats, the range's ends and the cells where L*U leaves it
_MAGNITUDES = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 0.9e160, 1.1e160,
                     1e300, 1.7976931348623157e308]))


class TestColumnarTable:
    @given(st.lists(st.tuples(_MAGNITUDES, _MAGNITUDES).map(sorted), min_size=1, max_size=8),
           st.integers(min_value=1, max_value=5), st.sampled_from(Variant))
    @settings(max_examples=300, deadline=None)
    def test_constant_and_agnostic_rows_span_the_float_range(self, cells, k, variant):
        # where L*U underflows or overflows, the constant rail is
        # sqrt(L)*sqrt(U), finite and positive; where L*U is a positive
        # normal float it is sqrt(L*U) bit for bit.  A ratio past the float
        # range is inf, and nothing warns.
        kinds = [PlayerKind.CONSTANT_THRESHOLD, PlayerKind.CARBON_AGNOSTIC]
        L, U = np.array(cells).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, ratios, failed = player_families(kinds, U, L, np.zeros((len(cells), 2)), k,
                                                    variant)
            families = [player_family(kind, k, u, l, 0.0, variant)
                        for l, u in cells for kind in kinds]
        assert failed == {}
        for f, family in enumerate(families):
            signed = [family.lower, family.upper] if variant is Variant.MIN else [
                [-x for x in family.upper], [-x for x in family.lower]]
            assert [[x.hex() for x in rail] for rail in table[f, :, :k].tolist()] == [
                [x.hex() for x in rail] for rail in signed]
            assert ratios[f].item().hex() == family.ratio.hex()
        for (l, u), family in zip(cells, families[::2]):
            rail = family.lower[0]
            assert 0 < rail < math.inf and set(family.lower + family.upper) == {rail}
            if 2.2250738585072014e-308 <= l * u < math.inf:
                assert rail.hex() == math.sqrt(l * u).hex()

    @given(_columns())
    @settings(max_examples=150, deadline=None)
    def test_each_row_is_player_family_on_its_cell(self, case):
        # the rails and ratio of every row by `.hex()`, a failed row by its
        # error's type and message with an all-zero row, and column k zero
        variant, k, kinds, cells, betas = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U, L = np.array(cells).T
            table, ratios, failed = player_families(kinds, U, L, np.array(betas), k, variant)
        assert table.shape == (len(cells) * len(kinds), 2, k + 1)
        assert not table[:, :, k].any()
        rows = [(kind, U, L, beta) for (U, L), row in zip(cells, betas)
                for kind, beta in zip(kinds, row)]
        for f, (kind, U, L, beta) in enumerate(rows):
            try:
                family = player_family(kind, k, U, L, beta, variant)
            except OprError as want:
                got = failed.pop(f)
                assert (type(got), str(got)) == (type(want), str(want))
                assert not table[f].any() and ratios[f] == 0
                continue
            lower, upper = family.lower, family.upper
            signed = [lower, upper] if variant is Variant.MIN else [
                [-x for x in upper], [-x for x in lower]]
            assert [[x.hex() for x in rail] for rail in table[f, :, :k].tolist()] == [
                [x.hex() for x in rail] for rail in signed]
            assert ratios[f].item().hex() == family.ratio.hex()
        assert failed == {}
