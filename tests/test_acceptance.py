"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not calibrated later.  Oracles are
implemented inside this module, independent of the package's solvers.
"""

import json
import math
import os
import time
from importlib import resources
from pathlib import Path

import numpy as np

from brute_force import brute_force_optimal
from ratio_reference import max_lower_threshold, min_upper_threshold
from test_adversary import RejectUntilForced
from opr.adversary import adversary_max, adversary_min
from opr.algorithms import hindsight_trace
from opr.core import Instance, Variant, cost_ratio
from opr.experiment import ExperimentConfig, run_experiment
from opr.offline import dp_optimal
from opr.thresholds import (
    PlayerKind,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    solve_alpha,
    solve_omega,
)
from opr.traces import parse_trace, trace_bounds


def report(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] {criterion}" + (f": {detail}" if detail else ""))


# --- criterion 1: k-search reduction -------------------------------------

def _oracle_kmin(k: int, theta: float) -> float:
    """Independent bisection of (1 - 1/theta)/(1 - 1/a) = (1 + 1/(a k))^k."""

    def f(a):
        return (1 - 1 / theta) - (1 - 1 / a) * (1 + 1 / (a * k)) ** k

    lo, hi = 1 + 1e-13, 2.0
    while f(hi) > 0:
        hi *= 2
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_kmax(k: int, theta: float) -> float:
    def f(w):
        return (theta - 1) - (w - 1) * (1 + w / k) ** k

    lo, hi = 1 + 1e-13, 2.0
    while f(hi) > 0:
        hi *= 2
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_ksearch_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 5, 10, 50):
        for theta in (2.0, 10.0, 36.0, 100.0):
            L, U = 1.0, theta
            a = solve_alpha(k, U, L, 0.0)
            w = solve_omega(k, U, L, 0.0)
            worst = max(worst, abs(a - _oracle_kmin(k, theta)))
            worst = max(worst, abs(w - _oracle_kmax(k, theta)))
            if k == 1:
                worst = max(worst, abs(a - math.sqrt(theta)))
                worst = max(worst, abs(w - math.sqrt(theta)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report("criterion-1 k-search reduction", ok, f"worst |diff| {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


# --- criterion 2: balancing identities ------------------------------------

def test_criterion_balancing_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 51))
        L = float(rng.uniform(0.5, 10.0))
        theta = float(rng.uniform(1.05, 100.0))
        U = L * theta
        beta_min = float(rng.uniform(0.01, 0.95)) * (U - L) / 2
        beta_max = float(rng.uniform(0.01, 0.9)) * k * L / 2

        alpha = solve_alpha(k, U, L, beta_min)
        upper = [min_upper_threshold(i, k, U, L, beta_min, alpha) for i in range(1, k + 2)]
        worst = max(worst, abs((upper[-1] - 2 * beta_min) - L))
        for j in range(0, k + 1):
            lhs = math.fsum(upper[:j]) + (k - j) * U + 2 * beta_min
            rhs = alpha * (k * (upper[j] - 2 * beta_min) + 2 * beta_min)
            worst = max(worst, abs(lhs - rhs))

        omega = solve_omega(k, U, L, beta_max)
        lower = [max_lower_threshold(i, k, U, L, beta_max, omega) for i in range(1, k + 2)]
        worst = max(worst, abs((lower[-1] + 2 * beta_max) - U))
        for j in range(0, k + 1):
            lhs = omega * (math.fsum(lower[:j]) + (k - j) * L - 2 * beta_max)
            rhs = k * (lower[j] + 2 * beta_max) - 2 * beta_max
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    report("criterion-2 balancing identities", ok, f"worst |resid| {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


# --- criterion 3: DP correctness ------------------------------------------

def test_criterion_dp_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(1000):
        T = int(rng.integers(1, 13))
        k = int(rng.integers(1, min(T, 4) + 1))
        L = float(rng.uniform(0.5, 5.0))
        U = L * float(rng.uniform(1.0, 20.0))
        beta = float(rng.uniform(0.0, U))
        variant = Variant.MIN if trial % 2 == 0 else Variant.MAX
        prices = tuple(float(p) for p in rng.uniform(L, U, T))
        inst = Instance(k=k, T=T, L=L, U=U, beta=beta, variant=variant, prices=prices)
        _, dp = dp_optimal(inst)
        _, bf = brute_force_optimal(inst)
        worst = max(worst, abs(dp.total - bf.total))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    report("criterion-3 DP vs brute force", ok, f"1000 instances, worst |diff| {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 30.0


# --- criterion 4: upper-bound property -------------------------------------

def _structured_sequences(rng, k, T, L, U, family):
    """Worst-case shapes: floods, probe ladders, alternating blocks."""
    seqs = [
        [L] * T,
        [U] * T,
        [L if t % 2 == 0 else U for t in range(T)],
    ]
    ladder = []
    for lo in family.lower:
        ladder.extend([min(max(lo, L), U), U])
    seqs.append((ladder + [U] * T)[:T])
    smooth = []
    for i, hi in enumerate(family.upper):
        smooth.append(min(max(hi, L), U))
    seqs.append((smooth + [U] * T)[:T])
    mid = float(rng.uniform(L, U))
    seqs.append([mid] * T)
    return seqs


def test_criterion_dtpr_upper_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    checked = {Variant.MIN: 0, Variant.MAX: 0}
    worst_excess = -math.inf
    for variant in (Variant.MIN, Variant.MAX):
        while checked[variant] < 1000:
            k = int(rng.integers(1, 7))
            L = float(rng.uniform(0.5, 8.0))
            theta = float(rng.uniform(1.2, 40.0))
            U = L * theta
            if variant is Variant.MIN:
                beta = float(rng.uniform(0.02, 0.95)) * (U - L) / 2
                family = dtpr_min_thresholds(k, U, L, beta)
            else:
                beta = float(rng.uniform(0.02, 0.9)) * min(k * L, U - L) / 2
                family = dtpr_max_thresholds(k, U, L, beta)
            ratio_bound = family.ratio
            T = int(rng.integers(k, 3 * k + 12))
            seqs = [list(rng.uniform(L, U, T)) for _ in range(4)]
            seqs.extend(_structured_sequences(rng, k, T, L, U, family))
            for prices in seqs:
                prices = tuple(min(max(float(p), L), U) for p in prices)
                inst = Instance(
                    k=k, T=len(prices), L=L, U=U, beta=beta, variant=variant, prices=prices
                )
                _, cost = hindsight_trace(family, inst)
                _, opt = dp_optimal(inst)
                ratio = cost_ratio(cost.total, opt.total, variant)
                worst_excess = max(worst_excess, ratio - ratio_bound)
                checked[variant] += 1
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-6 and elapsed < 60.0
    report(
        "criterion-4 DTPR ratio within theory",
        ok,
        f"{checked[Variant.MIN]}+{checked[Variant.MAX]} sequences, worst excess {worst_excess:.2e}, {elapsed:.1f}s",
    )
    assert worst_excess <= 1e-6
    assert elapsed < 60.0


# --- criterion 5: lower-bound tightness -------------------------------------

#: relative nudge that puts a menu price just past a threshold
_ORACLE_NUDGE = 1e-12


def _oracle_worst_case(variant, k, U, L, beta, resume, stay, horizon):
    """Exact worst-case ratio of a threshold player over all price sequences
    of length ``horizon`` (ALG/OPT on the min side, OPT/ALG on the max side).

    The player is modelled here, not run: with ``a`` units taken and previous
    decision ``q`` it is stepped only while a < k, is forced once the
    remaining units fill the remaining slots, and otherwise accepts iff the
    price is on the good side of ``stay[a]`` (q = 1) or ``resume[a]``
    (q = 0), ties accepting.  Between two consecutive rail values its
    decisions do not change, its objective is affine in the price and the
    optimum is concave (min) or convex (max), so the ratio is quasi-convex in
    each price; the price menu {L, U, every rail value and a nudge either
    side of it} therefore reaches the supremum.

    Dinkelbach iteration: for a guess lam, a DP over (player units, player
    previous decision, optimum units, optimum previous decision) maximizes
    ALG - lam*OPT' (min) or OPT' - lam*ALG (max) over every menu sequence and
    every feasible comparison schedule OPT'; the maximizer's own ratio is the
    next guess, and the iteration stops when no sequence beats the guess.
    """
    minimize = variant is Variant.MIN
    sigma = 1.0 if minimize else -1.0
    menu = {L, U}
    for r in (*resume, *stay):
        for v in (r, r * (1 - _ORACLE_NUDGE) - _ORACLE_NUDGE * L,
                  r * (1 + _ORACLE_NUDGE) + _ORACLE_NUDGE * L):
            menu.add(min(max(v, L), U))
    p = np.array(sorted(menu))
    rail = np.array([[*resume, np.nan], [*stay, np.nan]]).T  # [a, q]
    on_side = (p[:, None, None] <= rail) if minimize else (p[:, None, None] >= rail)
    units = np.arange(k + 1)
    flip = sigma * beta * (np.arange(2)[:, None] != np.arange(2)[None, :])  # [prev, new]
    width = {0: k + 1, 1: k}  # optimum units a slot can start from, per y
    grids = {y: np.meshgrid(units, np.arange(width[y]), indexing="ij") for y in (0, 1)}

    def solve(lam):
        w_alg, w_opt = (1.0, -lam) if minimize else (-lam, 1.0)
        # state [a, q, j, r] (units and previous decision of the player and
        # of OPT'): the value, and the ALG and OPT' totals behind it
        V = np.full((k + 1, 2, k + 1, 2), -np.inf)
        V[0, 0, 0, 0] = 0.0
        A = np.zeros_like(V)
        O = np.zeros_like(V)
        for t in range(1, horizon + 1):
            forced = (k - units - 1) >= (horizon - t)
            accepts = (on_side | forced[None, :, None]) & (units < k)[None, :, None]
            nV = np.full_like(V, -np.inf)
            nA = np.zeros_like(V)
            nO = np.zeros_like(V)
            for x in (0, 1):
                alg_inc = x * p[:, None] + flip[None, :, x]  # [m, q]
                legal = accepts == bool(x)
                for y in (0, 1):
                    opt_inc = y * p[:, None] + flip[None, :, y]  # [m, r]
                    cand = (V[None, :, :, :width[y], :]
                            + (w_alg * alg_inc)[:, None, :, None, None]
                            + (w_opt * opt_inc)[:, None, None, None, :])
                    cand = np.where(legal[:, :, :, None, None], cand, -np.inf)
                    flat = cand.transpose(1, 3, 0, 2, 4).reshape(k + 1, width[y], -1)
                    best = flat.argmax(axis=2)
                    m, q, r = np.unravel_index(best, (len(p), 2, 2))
                    ga, gj = grids[y]
                    val = np.take_along_axis(flat, best[..., None], 2)[..., 0]
                    # target (a + x, x, j + y, y); a = k never accepts
                    nV[x:, x, y:, y] = val[: k + 1 - x]
                    nA[x:, x, y:, y] = (A[ga, q, gj, r] + alg_inc[m, q])[: k + 1 - x]
                    nO[x:, x, y:, y] = (O[ga, q, gj, r] + opt_inc[m, r])[: k + 1 - x]
            V, A, O = nV, nA, nO
        # closing flips back to "off" after slot T
        end = V[k, :, k, :] + sigma * beta * (w_alg * units[:2, None] + w_opt * units[None, :2])
        q, r = np.unravel_index(end.argmax(), (2, 2))
        alg = A[k, q, k, r] + sigma * beta * q
        opt = O[k, q, k, r] + sigma * beta * r
        return (alg, opt) if minimize else (opt, alg)

    lam = 1.0
    for _ in range(100):
        num, den = solve(lam)
        if den <= 0:
            return math.inf  # nonpositive max-side profit: unbounded ratio
        nxt = num / den
        if nxt <= lam * (1 + 1e-14):
            return max(lam, nxt)
        lam = nxt
    raise AssertionError("Dinkelbach iteration did not settle")


def _oracle_rail(kind, k, U, L, variant):
    """A baseline's single threshold rail, from the textbook definitions:
    carbon-agnostic takes the first k prices, the constant rule uses
    sqrt(UL), and k-search uses the reservation prices of k-min search,
    U(1 - (1 - 1/a)(1 + 1/(ka))^(i-1)), or k-max search,
    L(1 + (w - 1)(1 + w/k)^(i-1))."""
    if kind is PlayerKind.CARBON_AGNOSTIC:
        return (U if variant is Variant.MIN else L,) * k
    if kind is PlayerKind.CONSTANT_THRESHOLD:
        return (math.sqrt(U * L),) * k
    if variant is Variant.MIN:
        a = _oracle_kmin(k, U / L)
        return tuple(U * (1 - (1 - 1 / a) * (1 + 1 / (k * a)) ** i) for i in range(k))
    w = _oracle_kmax(k, U / L)
    return tuple(L * (1 + (w - 1) * (1 + w / k) ** i) for i in range(k))


def _oracle_worst_at_two_horizons(kind, variant, k, U, L, beta):
    """The baseline's exact worst case at horizons 3k + 4 and 5k + 10; both
    hold every adversary script (at most 3k slots), and a worst case that
    needs no longer sequence gives the same value at both."""
    rail = _oracle_rail(kind, k, U, L, variant)
    return tuple(
        _oracle_worst_case(variant, k, U, L, beta, rail, rail, horizon)
        for horizon in (3 * k + 4, 5 * k + 10)
    )


def _criterion5_draws():
    rng = np.random.default_rng(55_001)
    for draw in range(50):
        k = int(rng.integers(2, 11))
        L = float(rng.uniform(1.0, 10.0))
        theta = float(rng.uniform(3.0, 40.0))
        U = L * theta
        frac = float(rng.uniform(0.05, 0.35))
        beta_min = frac * (U - L) / 2
        beta_max = frac * min(k * L, U - L) / 2
        yield draw, k, U, L, beta_min, beta_max


def test_worst_case_oracle_matches_closed_forms():
    t0 = time.perf_counter()
    # the double-threshold player's exact worst case is its own alpha/omega
    for k, U, L, beta in ((4, 80.0, 10.0, 6.0), (2, 12.0, 4.0, 1.0)):
        fam = dtpr_min_thresholds(k, U, L, beta)
        w = _oracle_worst_case(Variant.MIN, k, U, L, beta, fam.lower, fam.upper, 2 * k + 4)
        assert abs(w - solve_alpha(k, U, L, beta)) <= 1e-6
        fam = dtpr_max_thresholds(k, U, L, beta)
        w = _oracle_worst_case(Variant.MAX, k, U, L, beta, fam.upper, fam.lower, 2 * k + 4)
        assert abs(w - solve_omega(k, U, L, beta)) <= 1e-6
    # criterion-5 draw 9, constant threshold phi: the worse of "stall at phi,
    # then forced at U" and "fill at phi, then k slots of L"
    _, k, U, L, beta, _ = next(d for d in _criterion5_draws() if d[0] == 9)
    phi = math.sqrt(U * L)
    closed = max((k * U + 2 * beta) / (k * phi + 2 * beta),
                 (k * phi + 2 * k * beta) / (k * L + 2 * beta))
    for w in _oracle_worst_at_two_horizons(PlayerKind.CONSTANT_THRESHOLD, Variant.MIN,
                                           k, U, L, beta):
        assert abs(w - closed) <= 1e-9
    assert abs(closed - 3.27655) <= 1e-5
    # k = 1: the best single threshold scores sqrt((U+2b)/(L+2b)) < alpha
    U, L, beta = 30.0, 5.0, 3.0
    phi = math.sqrt((U + 2 * beta) * (L + 2 * beta)) - 2 * beta
    w = _oracle_worst_case(Variant.MIN, 1, U, L, beta, (phi,), (phi,), 6)
    assert abs(w - math.sqrt((U + 2 * beta) / (L + 2 * beta))) <= 1e-9
    assert w < solve_alpha(1, U, L, beta) - 0.2
    assert time.perf_counter() - t0 < 10.0


def test_criterion_lower_bound_tightness():
    """Executable lower-bound tightness of the adversary.

    The double-threshold and reject-until-forced clauses require the
    adversary to land within 1e-6 of alpha/omega.  The baseline clause
    requires every baseline run to reach alpha/omega - 1e-6, or else to be
    certified below it: the baseline's exact worst case W over all price
    sequences (``_oracle_worst_case``) is itself below the bound, and the
    adversary's ratio is within 1e-6 of W.

    The certificate is needed because this cost model charges both boundary
    flips, and in it a threshold baseline can do better than alpha: on the
    min side, for small k, the constant threshold and k-search have exact
    worst cases below alpha (for k = 1 a single threshold at
    sqrt((U+2b)(L+2b)) - 2b scores sqrt((U+2b)/(L+2b))).  No adversary can
    drive such a player to alpha, so the clause asks for W instead.  Where
    an adversary can reach the bound, it must: the probe script alone, which
    sits on the double-threshold resume rail, leaves grabbing baselines at
    alpha - 2b/(kL + 2b), and the grab/stall scripts built on the player's
    own rail lift them to alpha.
    """
    t0 = time.perf_counter()
    tight_bad: list[str] = []
    baseline_bad: list[str] = []
    at_bound = 0
    certified: list[str] = []

    def check_baseline(kind, variant, draw, k, U, L, beta, bound, r):
        nonlocal at_bound
        if r >= bound - 1e-6:
            at_bound += 1
            return
        where = f"{variant.value} {kind.value} draw {draw}"
        w, w_long = _oracle_worst_at_two_horizons(kind, variant, k, U, L, beta)
        if abs(w - w_long) <= 1e-9 and w < bound - 1e-6 and r >= w - 1e-6:
            certified.append(f"{where} W={w:.6f}")
        else:
            baseline_bad.append(
                f"{where}: ratio {r:.6f} < bound {bound:.6f},"
                f" exact worst case {w:.6f} / {w_long:.6f} at two horizons"
            )

    for draw, k, U, L, beta_min, beta_max in _criterion5_draws():
        alpha = solve_alpha(k, U, L, beta_min)
        omega = solve_omega(k, U, L, beta_max)

        r = adversary_min(PlayerKind.DTPR, k, U, L, beta_min).ratio
        if abs(r - alpha) > 1e-6:
            tight_bad.append(f"min dtpr draw {draw}: {r} vs {alpha}")
        r = adversary_max(PlayerKind.DTPR, k, U, L, beta_max).ratio
        if abs(r - omega) > 1e-6:
            tight_bad.append(f"max dtpr draw {draw}: {r} vs {omega}")
        r = adversary_min(RejectUntilForced, k, U, L, beta_min).ratio
        if abs(r - alpha) > 1e-6:
            tight_bad.append(f"min reject draw {draw}: {r} vs {alpha}")
        r = adversary_max(RejectUntilForced, k, U, L, beta_max).ratio
        if abs(r - omega) > 1e-6:
            tight_bad.append(f"max reject draw {draw}: {r} vs {omega}")

        for kind in (PlayerKind.CARBON_AGNOSTIC, PlayerKind.CONSTANT_THRESHOLD,
                     PlayerKind.KSEARCH):
            r = adversary_min(kind, k, U, L, beta_min).ratio
            check_baseline(kind, Variant.MIN, draw, k, U, L, beta_min, alpha, r)
        for kind in (PlayerKind.CARBON_AGNOSTIC, PlayerKind.CONSTANT_THRESHOLD,
                     PlayerKind.KSEARCH):
            r = adversary_max(kind, k, U, L, beta_max).ratio
            check_baseline(kind, Variant.MAX, draw, k, U, L, beta_max, omega, r)
    elapsed = time.perf_counter() - t0
    ok = not tight_bad and not baseline_bad and elapsed < 30.0
    detail = (
        f"tightness violations {len(tight_bad)}; baseline runs {at_bound} at or above"
        f" the bound, {len(certified)} certified below it ({', '.join(certified)}),"
        f" {len(baseline_bad)} violations; {elapsed:.1f}s"
    )
    report("criterion-5 lower-bound tightness", ok, detail)
    assert not tight_bad, "\n".join(tight_bad[:5])
    assert elapsed < 30.0
    assert not baseline_bad, (
        "baseline runs below the bound that the exact worst case does not"
        " certify: either the adversary misses a script that reaches the"
        " bound, or the baseline's worst case is not below it:\n"
        + "\n".join(baseline_bad[:8])
        + f"\n... {len(baseline_bad)} violations total"
    )


# --- criterion 6: case-study reproduction ----------------------------------

def test_criterion_case_study():
    trace_path = resources.files("opr.data") / "synthetic_intensity.csv"
    ds = parse_trace(str(trace_path))
    bounds = trace_bounds(ds)
    cfg = ExperimentConfig(
        variant=Variant.MIN, T=48, beta_frac=1 / 20, trials=500, seed=42,
        trace_source="data/synthetic_intensity.csv",
    )
    assert cfg.k == math.ceil(48 / 6)
    res1 = run_experiment(cfg, ds)
    res2 = run_experiment(cfg, ds)
    deterministic = json.dumps(res1.to_dict(), sort_keys=True) == json.dumps(
        res2.to_dict(), sort_keys=True
    )
    p95 = {name: res1.summary[name]["p95"] for name in cfg.algs}
    beats_all = all(p95["dtpr"] < p95[n] for n in ("ksearch", "const", "agnostic"))

    reference_checked = "skipped (no real traces supplied)"
    reference_ok = True
    real_dir = os.environ.get("OPR_REAL_TRACE_DIR")
    if real_dir:
        ref = json.loads(
            (resources.files("opr.data") / "regional_bounds_reference.json").read_text()
        )["regions"]
        for region, expect in ref.items():
            path = Path(real_dir) / f"{region}.csv"
            if not path.exists():
                continue
            got = trace_bounds(parse_trace(path))
            if got.L != expect["l"] or got.U != expect["u"]:
                reference_ok = False
            reference_checked = "checked against published bounds"

    ok = beats_all and deterministic and reference_ok
    report(
        "criterion-6 case study",
        ok,
        f"p95 dtpr={p95['dtpr']:.4f} ksearch={p95['ksearch']:.4f} "
        f"const={p95['const']:.4f} agnostic={p95['agnostic']:.4f}; "
        f"deterministic={deterministic}; reference_bounds={reference_checked}",
    )
    assert beats_all
    assert deterministic
    assert reference_ok


# --- criterion 7: sweep sanity ----------------------------------------------

def test_criterion_sweep_sanity():
    from opr.experiment import sweep_ratios

    t0 = time.perf_counter()
    k, U = 10, 30.0
    l_grid = [0.5 + 0.5 * i for i in range(1, 30)]
    beta_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]

    rows_min = sweep_ratios(Variant.MIN, k, U, beta_grid, l_grid)
    by_beta: dict[float, list[tuple[float, object]]] = {}
    for L, beta, ratio in rows_min:
        by_beta.setdefault(beta, []).append((L, ratio))
        if 2 * beta >= U - L:
            assert ratio == "degenerate"
    for beta, cells in by_beta.items():
        numeric = [(L, r) for L, r in sorted(cells) if isinstance(r, float)]
        assert all(a[1] >= b[1] - 1e-12 for a, b in zip(numeric, numeric[1:])), (
            f"alpha not nonincreasing in L at beta={beta}"
        )

    rows_max = sweep_ratios(Variant.MAX, k, U, beta_grid, l_grid)
    by_beta_max: dict[float, list[tuple[float, object]]] = {}
    for L, beta, ratio in rows_max:
        assert (ratio == "inf") == (2 * beta >= k * L)
        by_beta_max.setdefault(beta, []).append((U / L, ratio))
    for beta, cells in by_beta_max.items():
        numeric = [(th, r) for th, r in sorted(cells) if isinstance(r, float)]
        assert all(a[1] <= b[1] + 1e-12 for a, b in zip(numeric, numeric[1:])), (
            f"omega not nondecreasing in theta at beta={beta}"
        )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report("criterion-7 sweep sanity", ok, f"{len(rows_min) + len(rows_max)} cells, {elapsed:.1f}s")
    assert elapsed < 10.0
