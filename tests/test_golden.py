"""Byte-for-byte goldens: the serialized results of fixed-seed experiments,
the ratio grid of ``opr sweep`` and the adversary's transcripts.

A performance change must leave every byte of ``results.json`` unchanged.
``GOLDENS`` digests are sha256 of the compact
``json.dumps(result.to_dict(), sort_keys=True)`` on the shipped traces, so
they pin the result values; they were computed before the offline DP moved
from a loop over the slots to a loop over the units.  ``FILE_GOLDENS`` are
sha256 of the ``results.json`` and ``cdf.csv`` files that ``opr simulate``
writes for the same configs; they were computed while the CLI still wrote
``results.json`` as ``json.dump(..., indent=2)``.  ``cdf.csv`` is hashed as
written.  ``results.json`` must equal its own compact
``json.dumps(..., sort_keys=True)`` plus a newline, which pins its layout,
and is hashed after a reprint with ``indent=2``, which pins its values and
key order to the old digests.  The sweep digests cover
the ``repr`` of every cell of the theory grid; they were computed before the
ratio bisection inlined its residuals.  The sweep file digests cover the CSV
file ``opr sweep`` writes for that grid; they were computed while it still
wrote one line at a time.  The adversary digests cover the
``repr`` of each transcript.  No digest may be regenerated to make a change
pass.
"""

import hashlib
import json
import random
from importlib import resources

import pytest

import opr.cli
import ratio_reference
from test_adversary import AcceptEveryOther, GreedyAcceptAll, ProbeGrabber, RejectUntilForced
from opr.adversary import adversary_max, adversary_min
from opr.core import Variant
from opr.errors import RegimeError
from opr.experiment import ExperimentConfig, run_experiment, sweep_ratios
from opr.thresholds import PlayerKind, solve_alpha, solve_omega
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


#: (results.json reprinted with indent=2, cdf.csv) sha256 of `opr simulate`
#: for each GOLDENS config
FILE_GOLDENS = [
    ("dd48a7c0a10cc2e9601932a1bcd4e8a2c004be921b86f13da9606cd92222ee5b",
     "706cf86ac392304feff208ddb369f2f0cc0d4593e6d9bc7c9666e8483b7ff626"),
    ("d9883f563817d18dc2a42649fefd84eb23407aaead38fc425633626f9d99c7e9",
     "3dba0db36c1b1f40de3442cb28a49afc4daee59c60e06ad6895164c55d3cc16a"),
    ("30330fb829e01c9e91d4a506fb2b558d4a8feda73fef3addf3208324467fcd4f",
     "6a29a88a7520eca771892c2bb5b684c8457b4937395023331feac17cf777ceb9"),
]


@pytest.mark.parametrize(
    "golden, files", zip(GOLDENS, FILE_GOLDENS), ids=["min-noise1", "min-noise3", "max-T720"]
)
def test_simulate_file_bytes_are_unchanged(golden, files, tmp_path, monkeypatch):
    trace, _, params, _ = golden
    # the bare file name makes the echoed trace_source the same on every machine
    monkeypatch.chdir(resources.files("opr") / "data")
    out, cdf = tmp_path / "results.json", tmp_path / "cdf.csv"
    assert opr.cli.main(
        ["simulate", "--variant", params["variant"].value, "--trace", trace,
         "--t-horizon", str(params["T"]), "--k", str(params["k"]),
         "--noise", str(params["noise"]), "--trials", str(params["trials"]),
         "--beta-frac", "0.05", "--seed", "42", "--out", str(out), "--cdf", str(cdf)]
    ) == 0
    text = out.read_text(encoding="utf-8")
    results = json.loads(text)
    assert text == json.dumps(results, sort_keys=True) + "\n"
    indented = json.dumps(results, indent=2, sort_keys=True) + "\n"
    got = (hashlib.sha256(indented.encode()).hexdigest(),
           hashlib.sha256(cdf.read_bytes()).hexdigest())
    assert got == files


# --- ratio solves -----------------------------------------------------------
#
# The bisection in opr.thresholds evaluates the ratio residuals inline.  Its
# roots must be bit-identical to a plain bisection that calls the reference
# residuals of ``tests/ratio_reference.py``.


def _outcome(solve, *args):
    try:
        return repr(solve(*args))
    except RegimeError:
        return "RegimeError"


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
        want = _outcome(ratio_reference.solve, variant, k, U, L, beta)
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


#: sha256 of the file `opr sweep` writes for the theory grid: header, then
#: one `L,beta,ratio` line per cell with each value's repr
SWEEP_FILE_GOLDENS = [
    ("min", "d69823b6d018a4684333631fdb6fe9e790f6d9d1e88aba911969b5b814950cf7"),
    ("max", "6ff49573b43be8ae91b2ef1e1036ecf36f9eb4ecd11604206f48c148ee3b9ec6"),
]


@pytest.mark.parametrize("variant, digest", SWEEP_FILE_GOLDENS, ids=["min", "max"])
def test_sweep_file_bytes_are_unchanged(variant, digest, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert opr.cli.main(
        ["sweep", "--variant", variant, "--k", "10", "--u", "30", "--l-min", "1.0",
         "--l-max", "10", "--beta-min", "0", "--beta-max", "5", "--steps", "50",
         "--out", str(out)]
    ) == 0
    assert capsys.readouterr().out == f"wrote 2500 grid rows to {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# --- adversary transcripts --------------------------------------------------
#
# The sha256 of the ``repr`` of each transcript's prices, decisions, both
# costs and ratio.  The shipped players run at theory's configuration
# (``opr adversary --k 40 --u 30 --l 5 --beta 3``, four kinds, both
# variants); the black-box players of ``tests/test_adversary.py`` at k=4.
# They were computed while the shipped players still played a whole
# sequence through their own loop.

ADVERSARY_GOLDENS = [
    ("min", PlayerKind.DTPR, 40, "22683e772b4ced318691827ff3e0a0b67c0cd9895373a08fa77673c64cd45937"),
    ("max", PlayerKind.DTPR, 40, "aa10126d820ace293e47129275070fc9cd1b8c6d580e7343089935bc1c02a5bd"),
    ("min", PlayerKind.KSEARCH, 40, "76c019753ee2654258a3a7e82632680ad4057ae3485cb4661c2c3979f76a3cdb"),
    ("max", PlayerKind.KSEARCH, 40, "3d09cf39dc8f4f0d5e85dfa1df1987e6056f751855d1ae20298d110e8b0237c6"),
    ("min", PlayerKind.CONSTANT_THRESHOLD, 40, "60e4c3b3ebad0c1a33e05d1e8492c4587146a7886dc5e472016838f172ac7a3c"),
    ("max", PlayerKind.CONSTANT_THRESHOLD, 40, "3b6c5f5efa73e277e87113319735fb6935cc919ecfb96e5911baffbf406d3027"),
    ("min", PlayerKind.CARBON_AGNOSTIC, 40, "46a036381f4bb2d5f2807166db355da51615e0b92c0a34efb71ff799e475751a"),
    ("max", PlayerKind.CARBON_AGNOSTIC, 40, "5c756feb4b00cab913cf0fedc77ed7b33a9110d09504a605b29b81fd4249b0de"),
    ("min", GreedyAcceptAll, 4, "11d02039ddb7fb9b08e5c1bffe80b500ae639c00177fbebe5f071c7ddc37804e"),
    ("max", GreedyAcceptAll, 4, "670be73a9b88a49f9d914e7d5e2725ebcda95fd0b5b6e23e06af8501f79a9a27"),
    ("min", AcceptEveryOther, 4, "556bbbcee9b86d992afbc7b88d353989891a5cf7eef2e60ce6cefcc951176a8d"),
    ("max", AcceptEveryOther, 4, "e36a6238406aef3b99efc3d03e4467b526b7d1d99f31d02094ff84196a6d98bc"),
    ("min", ProbeGrabber, 4, "1bf17ac414b275cdbf0efcf3dc256883777769d2c0276fc6bad995c86b1d26e4"),
    ("max", ProbeGrabber, 4, "670be73a9b88a49f9d914e7d5e2725ebcda95fd0b5b6e23e06af8501f79a9a27"),
    ("min", RejectUntilForced, 4, "48ea65fcce7279d2bac7b90ace66e48a9f2e0a2d3b364019a036a9627e0b7a62"),
    ("max", RejectUntilForced, 4, "b305fa924f4afcd7c4bdf586490c2785658a06ab710f999d5bee6a6b1e1778ee"),
]


@pytest.mark.parametrize(
    "variant, player, k, digest", ADVERSARY_GOLDENS,
    ids=[f"{v}-{getattr(p, 'value', None) or p.__name__}" for v, p, _, _ in ADVERSARY_GOLDENS],
)
def test_adversary_transcripts_are_unchanged(variant, player, k, digest):
    run = adversary_min if variant == "min" else adversary_max
    tr = run(player, k, 30.0, 5.0, 3.0)
    blob = repr((tr.prices, tr.alg_schedule.decisions, tr.alg_cost, tr.opt_cost, tr.ratio))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
