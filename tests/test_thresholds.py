"""Ratio solvers, threshold families, and their structural identities.

Golden values were frozen from an independent fine-grid scan (step 1e-7,
refined by bisection) run before the solvers were written; the hand-reduced
special cases are noted inline.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratio_reference import max_residual, min_residual
from opr.core import Variant
from opr.errors import DomainError, ParameterError, RegimeError
from opr.thresholds import (
    AsymptoticRegime,
    asymptotic_alpha,
    asymptotic_omega,
    constant_threshold,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    ksearch_thresholds,
    lambert_w,
    max_lower_threshold,
    min_upper_threshold,
    solve_alpha,
    solve_omega,
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

    @pytest.mark.parametrize(
        "U, beta", [(30.0, math.nan), (30.0, math.inf), (math.inf, 1.0)]
    )
    def test_non_finite_parameters_rejected(self, U, beta):
        # NaN slips past any `beta < 0` test, and U = inf past `L <= U`;
        # both used to give alpha = 1 with NaN thresholds
        for solve in (solve_alpha, solve_omega):
            with pytest.raises(ParameterError):
                solve(4, U, 5.0, beta)
        for build in (dtpr_min_thresholds, dtpr_max_thresholds):
            with pytest.raises(ParameterError):
                build(4, U, 5.0, beta)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 2.5])
    def test_non_integer_k_rejected(self, k):
        # `int(k)` used to raise ValueError for NaN and OverflowError for inf
        for solve in (solve_alpha, solve_omega):
            with pytest.raises(ParameterError):
                solve(k, 30.0, 5.0, 1.0)

    def test_bracket_doubles_at_most_200_times(self):
        # k=1, beta=0: omega = sqrt(theta), so theta = 2**401 puts the root
        # at 2**200.5, inside the bracket of the 200th doubling, and
        # theta = 2**402.5 puts it past the last bracket the solver tries
        assert math.log2(solve_omega(1, 2.0**401, 1.0, 0.0)) == 200.5
        with pytest.raises(RegimeError, match="bracket did not close"):
            solve_omega(1, 2.0**402.5, 1.0, 0.0)

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


class TestMinFamily:
    def test_k1_beta0_is_constant_threshold(self):
        fam = dtpr_min_thresholds(1, 100, 1, 0)
        assert fam.lower[0] == pytest.approx(10.0, abs=1e-9)
        assert fam.upper[0] == pytest.approx(10.0, abs=1e-9)
        assert fam.lower[0] == pytest.approx(constant_threshold(100, 1), abs=1e-9)

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


class TestConstantThreshold:
    def test_values(self):
        assert constant_threshold(100, 1) == pytest.approx(10.0)
        assert constant_threshold(4, 4) == pytest.approx(4.0)
        assert constant_threshold(9, 4) == pytest.approx(6.0)

    def test_bad_bounds(self):
        with pytest.raises(ParameterError):
            constant_threshold(1, 2)


class TestLambertW:
    def test_anchors(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)

    @given(st.floats(min_value=-1 / math.e + 1e-9, max_value=1e3))
    @settings(max_examples=300, deadline=None)
    def test_inverse_residual(self, x):
        # 1e3 cap: past |x| ~ 5e3 the absolute 1e-12 target sinks below the
        # ulp of x itself; the asymptotic formulas never get near that
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) < 1e-12

    def test_branch_point(self):
        assert lambert_w(-1 / math.e) == pytest.approx(-1.0, abs=1e-5)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w(-1.0)


class TestAsymptotics:
    def test_alpha_fixed_k_reduces_to_sqrt_theta(self):
        val = asymptotic_alpha(1, 100, 1, 1e-12, AsymptoticRegime.FIXED_K)
        assert val == pytest.approx(10.0, abs=1e-6)

    def test_alpha_fixed_k_golden(self):
        # cross-checked against independent bisection of the defining
        # equation (U-L-2b)/(U(1-1/a) - 2b(1-1/k+1/(k a))) = 1 + 1/a
        val = asymptotic_alpha(10, 30, 5, 3, AsymptoticRegime.FIXED_K)
        assert val == pytest.approx(2.9338959948856487, abs=1e-9)

        def star_resid(a):
            return (30 - 5 - 6) - (30 * (1 - 1 / a) - 6 * (1 - 0.1) - 6 / (10 * a)) * (1 + 1 / a)

        lo, hi = 1.0 + 1e-9, 64.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if star_resid(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert val == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_alpha_large_k_beta0(self):
        theta = 100.0
        expect = 1.0 / (lambert_w((1 / theta - 1) / math.e) + 1)
        assert asymptotic_alpha(5, 100, 1, 0, AsymptoticRegime.LARGE_K) == pytest.approx(
            expect, abs=1e-12
        )

    def test_omega_fixed_k_reduces_to_sqrt_theta(self):
        assert asymptotic_omega(1, 100, 1, 0, AsymptoticRegime.FIXED_K) == pytest.approx(
            10.0, abs=1e-9
        )

    def test_omega_large_k_round_trip(self):
        # with b = 0, theta = e*(w-1)*e^(w-1) + 1 must return w
        for w in (1.5, 2.0, 3.7):
            theta = math.e * (w - 1) * math.exp(w - 1) + 1
            got = asymptotic_omega(4, theta, 1.0, 0.0, AsymptoticRegime.LARGE_K)
            assert got == pytest.approx(w, abs=1e-9)

    def test_omega_large_k_b1(self):
        expect = lambert_w(98 / math.e**2) + 2
        assert asymptotic_omega(3, 100, 1, 0.5, AsymptoticRegime.LARGE_K) == pytest.approx(
            expect, abs=1e-12
        )

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            asymptotic_omega(2, 10, 1, 1.5, AsymptoticRegime.FIXED_K)  # b >= k
        with pytest.raises(ParameterError):
            asymptotic_alpha(2, 10, 1, 5, AsymptoticRegime.FIXED_K)


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
