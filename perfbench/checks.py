"""Output checks for the benchmark's `opr` invocations.

Each check reads what an invocation wrote (its output files and captured
standard output) and raises `CheckError` on anything wrong.  The digests
cover numeric results only, never whole-file bytes, so new fields in the
outputs do not change them.  The reference computations here (offline DP,
ratio equations, trace noise) are written independently of `src/opr`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


class CheckError(Exception):
    """An invocation's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- reference computations ---------------------------------------------------


def min_residual(a: float, k: int, U: float, L: float, beta: float) -> float:
    """Min-variant ratio equation, positive below its root alpha."""
    lhs = U * (1 - 1 / a) - 2 * beta * (1 - 1 / k) - 2 * beta / (k * a)
    return (U - L - 2 * beta) - lhs * (1 + 1 / (k * a)) ** k


def max_residual(w: float, k: int, U: float, L: float, beta: float) -> float:
    """Max-variant ratio equation, positive below its root omega."""
    lhs = L * (w - 1) - 2 * beta * (1 - 1 / k) - 2 * beta * w / k
    return (U - L - 2 * beta) - lhs * (1 + w / k) ** k


def solve_ratio(variant: str, k: int, U: float, L: float, beta: float) -> float:
    """Root of the variant's ratio equation by bisection to a fixed point."""
    residual = min_residual if variant == "min" else max_residual
    lo, hi = 1.0 + 1e-12, 2.0
    while residual(hi, k, U, L, beta) > 0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if residual(mid, k, U, L, beta) > 0:
            lo = mid
        else:
            hi = mid


def offline_opt(prices, k: int, beta: float, maximize: bool) -> float:
    """Exact offline objective: pick exactly k slots, pay beta per on/off
    flip with the boundaries before slot 1 and after slot T off."""
    sign = -1.0 if maximize else 1.0
    inf = math.inf
    off = [0.0] + [inf] * k  # best cost with j units used, last slot off
    on = [inf] * (k + 1)  # ... last slot on
    for price in prices:
        c = sign * price
        new_off = [min(off[j], on[j] + beta) for j in range(k + 1)]
        new_on = [inf] + [min(on[j - 1], off[j - 1] + beta) + c for j in range(1, k + 1)]
        off, on = new_off, new_on
    return sign * min(off[k], on[k] + beta)


def read_trace_values(path: Path) -> list[float]:
    values = []
    with open(path, encoding="utf-8") as fh:
        rows = (line.strip() for line in fh)
        rows = [r for r in rows if r and not r.startswith("#")]
    _require(rows[0].lower().replace(" ", "") == "timestamp,value", f"{path}: bad header")
    for row in rows[1:]:
        values.append(float(row.split(",")[1]))
    return values


def trial_prices(values, offset: int, T: int, noise: float, cap_100: bool) -> list[float]:
    """A trial's instance prices: the segment at `offset`, deviations from
    its mean scaled by `noise`, cut at 0 (and 100 for carbon-free shares),
    with zeros lifted to the smallest positive price."""
    seg = values[offset : offset + T]
    mu = math.fsum(seg) / len(seg)
    noised = [min(max(mu + noise * (v - mu), 0.0), 100.0 if cap_100 else math.inf) for v in seg]
    floor = min(v for v in noised if v > 0)
    return [v if v > 0 else floor for v in noised]


# -- simulate -----------------------------------------------------------------


def simulate_digest(results: dict) -> str:
    """Per-trial opt_total and each alg's total/switches/ratio, the summary
    and the CDF, in file order."""

    def lines():
        for rec in results["trials"]:
            yield f"trial {rec['trial']} opt {rec['opt_total']!r}"
            for name in sorted(rec["algs"]):
                a = rec["algs"][name]
                yield f"  {name} {a['total']!r} {a['switches']} {a['ratio']!r}"
        for name in sorted(results["summary"]):
            s = results["summary"][name]
            yield f"summary {name} {s['mean']!r} {s['p95']!r} {s['max']!r}"
        for name in sorted(results["cdf"]):
            for ratio, cum in results["cdf"][name]:
                yield f"cdf {name} {ratio!r} {cum!r}"

    return _sha(lines())


def check_simulate(results: dict, spec: dict, trace_path: Path) -> None:
    """Ratios against OPT and the paper's bounds, summary and CDF against the
    trials, and OPT itself against an independent DP on a few trials."""
    variant, k, T = spec["variant"], spec["k"], spec["T"]
    algs, n = spec["algs"], spec["trials"]
    trials = results["trials"]
    _require(len(trials) == n, f"expected {n} trials, got {len(trials)}")
    values = read_trace_values(trace_path)
    beta = spec["beta_frac"] * max(values)
    bound_cache: dict[tuple, float] = {}
    for rec in trials:
        opt = rec["opt_total"]
        _require(sorted(rec["algs"]) == sorted(algs), f"trial {rec['trial']}: algs differ")
        for name in algs:
            a = rec["algs"][name]
            ratio = a["ratio"]
            where = f"trial {rec['trial']} {name}"
            _require(ratio >= 1 - 1e-9, f"{where}: ratio {ratio} below 1")
            expect = a["total"] / opt if variant == "min" else opt / a["total"]
            _require(math.isclose(ratio, expect, rel_tol=1e-12), f"{where}: ratio != ALG/OPT")
            if name == "dtpr" and not a["beta_clipped"]:
                key = (rec["instance_u"], rec["instance_l"])
                if key not in bound_cache:
                    bound_cache[key] = solve_ratio(variant, k, key[0], key[1], beta)
                bound = bound_cache[key]
                _require(
                    ratio <= bound * (1 + 1e-9),
                    f"{where}: ratio {ratio} above its bound {bound}",
                )
    for name in algs:
        ratios = sorted(rec["algs"][name]["ratio"] for rec in trials)
        s = results["summary"][name]
        _require(s["mean"] == math.fsum(ratios) / n, f"summary {name}: mean")
        _require(s["p95"] == ratios[math.ceil(0.95 * n) - 1], f"summary {name}: p95")
        _require(s["max"] == ratios[-1], f"summary {name}: max")
        cdf = [(r, (i + 1) / n) for i, r in enumerate(ratios)]
        _require([tuple(p) for p in results["cdf"][name]] == cdf, f"cdf {name}")
    # an independent O(T*k) DP in pure Python; ~100k cells of it per check
    n_opt = max(2, min(n, 100_000 // (T * (k + 1))))
    for idx in sorted({round(i * (n - 1) / max(1, n_opt - 1)) for i in range(n_opt)}):
        rec = trials[idx]
        prices = trial_prices(values, rec["offset"], T, spec["noise"], variant == "max")
        opt = offline_opt(prices, k, beta, maximize=variant == "max")
        _require(
            math.isclose(rec["opt_total"], opt, rel_tol=1e-9),
            f"trial {idx}: opt_total {rec['opt_total']} != reference DP {opt}",
        )


# -- sweep --------------------------------------------------------------------


def _sweep_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_digest(path: Path) -> str:
    return _sha(f"{r['L']} {r['beta']} {r['ratio']}" for r in _sweep_rows(path))


def check_sweep(path: Path, spec: dict) -> None:
    """Every cell is either the regime's sentinel or a root of its ratio
    equation, to a relative 1e-12."""
    variant, k, U = spec["variant"], spec["k"], spec["U"]
    rows = _sweep_rows(path)
    _require(len(rows) == spec["steps"] ** 2, f"sweep rows {len(rows)} != steps^2")
    residual = min_residual if variant == "min" else max_residual
    for row in rows:
        L, beta = float(row["L"]), float(row["beta"])
        out_of_regime = 2 * beta >= (U - L if variant == "min" else k * L)
        sentinel = "degenerate" if variant == "min" else "inf"
        where = f"sweep {variant} L={L} beta={beta}"
        if out_of_regime:
            _require(row["ratio"] == sentinel, f"{where}: expected {sentinel}")
            continue
        r = float(row["ratio"])
        _require(
            residual(r * (1 - 1e-12), k, U, L, beta) > 0 >= residual(r * (1 + 1e-12), k, U, L, beta),
            f"{where}: {r} is not the root of the ratio equation",
        )


# -- adversary ----------------------------------------------------------------


def _adversary_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def adversary_digest(stdout: str, dump: Path) -> str:
    """The reported figures and the realized sequence (not output paths)."""
    fields = _adversary_fields(stdout)
    figures = [f"{k}: {v}" for k, v in sorted(fields.items()) if not k.startswith("wrote")]
    return _sha([*figures, dump.read_text(encoding="utf-8")])


def check_adversary(stdout: str, dump: Path, spec: dict) -> None:
    """Invariants, not a digest: the transcript is meant to change as the
    adversary improves.  DTPR must land within 1e-6 of its alpha/omega and
    every ratio must be >= 1."""
    fields = _adversary_fields(stdout)
    variant, k, beta = spec["variant"], spec["k"], spec["beta"]
    bound_name = "alpha" if variant == "min" else "omega"
    ratio = float(fields["ratio"])
    bound = float(fields[f"theoretical {bound_name}"])
    alg_total = float(fields["alg total"])
    opt_total = float(fields["opt total"])
    slots = int(fields["realized slots"])
    where = f"adversary {variant} {spec['alg']}"
    _require(ratio >= 1 - 1e-9, f"{where}: ratio {ratio} below 1")
    if spec["alg"] == "dtpr":
        _require(abs(ratio - bound) <= 1e-6, f"{where}: ratio {ratio} not within 1e-6 of {bound}")
    expect = alg_total / opt_total if variant == "min" else opt_total / alg_total
    _require(math.isclose(ratio, expect, rel_tol=1e-6), f"{where}: ratio != ALG/OPT ({expect})")
    with open(dump, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == slots, f"{where}: dump has {len(rows)} rows, stdout says {slots}")
    decisions = [int(r["decision"]) for r in rows]
    _require(sum(decisions) == k, f"{where}: accepted {sum(decisions)} of k={k}")
    flips = sum(a != b for a, b in zip([0] + decisions, decisions + [0]))
    accepted = math.fsum(float(r["price"]) for r, x in zip(rows, decisions) if x)
    total = accepted + beta * flips if variant == "min" else accepted - beta * flips
    _require(abs(total - alg_total) <= 1e-6, f"{where}: dump totals {total}, stdout {alg_total}")


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
