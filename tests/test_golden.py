"""Byte-for-byte goldens: the serialized results of fixed-seed experiments,
and the ratio grid of ``opr sweep``.

A performance change must leave every byte of ``results.json`` unchanged.
These digests are sha256 of ``json.dumps(result.to_dict(), sort_keys=True)``
on the shipped traces; they were computed before the offline DP moved from a
loop over the slots to a loop over the units, and must never be regenerated
to make a change pass.  The sweep digests cover the ``repr`` of every cell
of the theory grid; they were computed before the ratio bisection inlined
its residuals.
"""

import hashlib
import json
import math
import random
from importlib import resources

import pytest

from opr.core import Variant
from opr.errors import RegimeError
from opr.experiment import ExperimentConfig, run_experiment, sweep_ratios
from opr.thresholds import solve_alpha, solve_omega
from opr.traces import TraceKind, parse_trace

GOLDENS = [
    # case study, one shared (L, U) across trials
    ("synthetic_intensity.csv", TraceKind.INTENSITY,
     dict(variant=Variant.MIN, T=48, k=8, noise=1.0, trials=200),
     "1ca4bd82bdaffce389c6bad02b43bf3e96298905e4a8f0681f1cd8af9a0df5db"),
    # noise 3: every trial widens and floors its own bounds
    ("synthetic_intensity.csv", TraceKind.INTENSITY,
     dict(variant=Variant.MIN, T=48, k=8, noise=3.0, trials=200),
     "cd01c02195d9b13f2e39350c959f1d3c25207f67e508ef7222303354a963ef84"),
    # long max-side horizon: large DP tables and backtraces
    ("synthetic_carbonfree.csv", TraceKind.CARBON_FREE_PCT,
     dict(variant=Variant.MAX, T=720, k=120, noise=1.0, trials=6),
     "277e0f959f28af65f5534f7daae818396637102eb4789d650fdc0902eb64e036"),
]


@pytest.mark.parametrize(
    "trace, kind, params, digest", GOLDENS, ids=["min-noise1", "min-noise3", "max-T720"]
)
def test_results_bytes_are_unchanged(trace, kind, params, digest):
    ds = parse_trace(str(resources.files("opr.data") / trace), kind)
    cfg = ExperimentConfig(beta_frac=0.05, seed=42, **params)
    blob = json.dumps(run_experiment(cfg, ds).to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# --- ratio solves -----------------------------------------------------------
#
# The bisection in opr.thresholds evaluates the ratio residuals inline.  Its
# roots must be bit-identical to a plain bisection that calls the reference
# residuals, copied here as the reference.


def _ref_min_residual(a, k, U, L, beta):
    lhs = U * (1 - 1 / a) - 2 * beta * (1 - 1 / k) - 2 * beta / (k * a)
    return (U - L - 2 * beta) - lhs * (1 + 1 / (k * a)) ** k


def _ref_max_residual(w, k, U, L, beta):
    lhs = L * (w - 1) - 2 * beta * (1 - 1 / k) - 2 * beta * w / k
    try:
        growth = (1 + w / k) ** k
    except OverflowError:
        return -math.inf if lhs > 0 else math.inf
    return (U - L - 2 * beta) - lhs * growth


def _ref_bisect_ratio(residual):
    lo = 1.0 + 1e-12
    if residual(lo) <= 0:
        raise RegimeError("no root above 1")
    hi = 2.0
    doublings = 0
    while residual(hi) > 0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise RegimeError("bracket did not close")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid


def _outcome(solve, *args):
    try:
        return repr(solve(*args))
    except RegimeError:
        return "RegimeError"


def _ref_solve(variant, k, U, L, beta):
    residual = _ref_min_residual if variant is Variant.MIN else _ref_max_residual
    return _ref_bisect_ratio(lambda x: residual(x, k, U, L, beta))


def _draws(n, seed):
    """k up to 200, theta up to 1e3, beta anywhere below its regime edge."""
    rng = random.Random(seed)
    for i in range(n):
        variant = (Variant.MIN, Variant.MAX)[i % 2]
        k = rng.randint(1, 200)
        L = 10 ** rng.uniform(-2, 3)
        U = L * 10 ** rng.uniform(1e-6, 3)
        edge = (U - L) / 2 if variant is Variant.MIN else k * L / 2
        frac = rng.choice((0.0, rng.random(), 1 - 10 ** -rng.uniform(1, 12)))
        yield variant, k, U, L, edge * frac


def test_solves_match_reference_bisection_bit_for_bit():
    cases = list(_draws(4000, seed=20240))
    # the max-side bracket that overflows (1 + w/k)**k while doubling
    cases.append((Variant.MAX, 120, 71263.04857916338, 6.3901825257597675, 383.4105681346345))
    mismatches = []
    for variant, k, U, L, beta in cases:
        solve = solve_alpha if variant is Variant.MIN else solve_omega
        got = _outcome(solve, k, U, L, beta)
        want = _outcome(_ref_solve, variant, k, U, L, beta)
        if got != want:
            mismatches.append((variant, k, U, L, beta, got, want))
    assert mismatches == []


def _grid(lo, hi, steps):
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


SWEEP_GOLDENS = [
    (Variant.MIN, "3895861c2adf15b3d81280ad50182cdfb6874adf82311e205ae02f53b727e399"),
    (Variant.MAX, "0ccb1352067a37912b44abc34b61bb1fb3f60ae80a22c98f3e953657c58d2e97"),
]


@pytest.mark.parametrize("variant, digest", SWEEP_GOLDENS, ids=["min", "max"])
def test_sweep_bytes_are_unchanged(variant, digest):
    # the theory grid of `opr sweep --k 10 --u 30 --l-min 1 --l-max 10
    # --beta-min 0 --beta-max 5 --steps 50`
    rows = sweep_ratios(variant, 10, 30.0, _grid(0.0, 5.0, 50), _grid(1.0, 10.0, 50))
    blob = "\n".join(",".join(repr(cell) for cell in row) for row in rows)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
