"""Trace-driven experiment pipeline: sample, noise, run, compare to OPT.

Each trial samples a contiguous T-hour segment from the trace, amplifies its
deviations by the noise factor, bounds its prices, runs every requested
algorithm, and computes the exact DP optimum once.  Trial i derives its RNG
seed purely from (master seed, i), so removing an algorithm from the list
never changes any other algorithm's recorded ratios, and a fixed master seed
reproduces results byte for byte.

Instance bounds per trial: the algorithms require prices inside [L, U], but
a noised segment can spill past the trace-wide bounds (and truncation can
push values to 0, below any positive L).  We widen U to the segment maximum,
keep the trace-wide L floored at the segment minimum, and lift truncated
zeros to the smallest positive segment value; every adjustment is recorded
in the trial record rather than silently applied.

A run goes in lane passes: `sample_pass` samples a pass of trials into one
(n, T) price array, OPT is solved for every row, every (trial, algorithm)
lane is played in one `play_lanes` call, and the records are completed in
trial order.
Threshold families depend on a trial only through its (L, U), so a pass
keeps one memo per algorithm: the last (L, U), the row of the pass's rail
table that holds its rails, and its clipped flag.  The rails are built only
when consecutive trials change (L, U); the records are the same as if every
trial built its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithms import PlayerKind, play_lanes, player_family
from .core import CostBreakdown, Variant, cost_ratio, lane_flips, lane_total
from .errors import OprError, ParameterError
from .offline import dp_decisions
from .thresholds import check_k, solve_alpha, solve_omega
from .traces import (
    TraceBounds,
    TraceDataset,
    noise_rows,
    sample_segment_with_offset,
    trace_bounds,
)

#: clip factor applied to (U-L)/2 when the true beta leaves the min regime
_BETA_CLIP = 0.999999

#: byte budget of one lane pass's arrays; the offline DP keeps its own budget
#: inside each pass
_PASS_BYTES = 2 * 1024 * 1024

#: short algorithm names used in configs, result files, and the CLI
ALG_NAMES = tuple(kind.value for kind in PlayerKind)


def resolve_player_kind(name: str) -> PlayerKind:
    if isinstance(name, str):
        try:
            return PlayerKind(name)
        except ValueError:
            pass
    raise ParameterError(f"unknown algorithm {name!r}; choose from {ALG_NAMES}")


def default_k(T: int) -> int:
    """Job-length default: ceil(T/6)."""
    return math.ceil(T / 6)


def derive_seed(master: int, trial: int) -> int:
    """Stable 63-bit splitmix-style hash of (master, trial)."""
    x = (master * 0x9E3779B97F4A7C15 + trial + 1) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class ExperimentConfig:
    variant: Variant
    T: int = 48
    k: int | None = None  # None -> ceil(T/6)
    beta: float | None = None  # absolute, exclusive with beta_frac
    beta_frac: float | None = None  # fraction of the trace-wide U
    noise: float = 1.0
    trials: int = 1
    seed: int = 0
    algs: tuple[str, ...] = ALG_NAMES
    trace_source: str = ""  # echo only; data is passed separately

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.T < 1:
            raise ParameterError(f"T must be >= 1, got {self.T}")
        k = self.resolved_k()
        if not (1 <= k <= self.T):
            raise ParameterError(f"need 1 <= k <= T, got k={k}, T={self.T}")
        if (self.beta is None) == (self.beta_frac is None):
            raise ParameterError("give exactly one of beta (absolute) or beta_frac")
        if self.beta is not None and not (0 <= self.beta < math.inf):
            raise ParameterError(f"beta must be finite and >= 0, got {self.beta}")
        if self.beta_frac is not None and not (0 <= self.beta_frac < math.inf):
            raise ParameterError(f"beta_frac must be finite and >= 0, got {self.beta_frac}")
        if not (1 <= self.noise < math.inf):
            raise ParameterError(f"noise factor must be finite and >= 1, got {self.noise}")
        if not self.algs:
            raise ParameterError("algs must name at least one algorithm")
        if len(set(self.algs)) != len(self.algs):
            raise ParameterError(f"algs must not repeat a name, got {list(self.algs)}")
        for name in self.algs:
            resolve_player_kind(name)

    def resolved_k(self) -> int:
        return self.k if self.k is not None else default_k(self.T)


@dataclass(frozen=True)
class ExperimentResult:
    config: dict
    bounds: TraceBounds
    trials: tuple[dict, ...]
    summary: dict[str, dict]
    cdf: dict[str, tuple[tuple[float, float], ...]]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "trace_bounds": {"l": self.bounds.L, "u": self.bounds.U},
            "trials": list(self.trials),
            "summary": self.summary,
            "cdf": {name: [list(pt) for pt in pts] for name, pts in self.cdf.items()},
        }


def empirical_cr(alg: CostBreakdown, opt: CostBreakdown, variant: Variant) -> float:
    """ALG/OPT for min, OPT/ALG for max; both >= 1 when OPT is exact."""
    return cost_ratio(alg.total, opt.total, variant)


def summarize(ratios: Sequence[float]) -> tuple[float, float, float, tuple[tuple[float, float], ...]]:
    """(mean, p95, max, CDF points).

    p95 is the nearest-rank ceil(0.95 n)-th order statistic; the CDF is the
    sorted (ratio, rank/n) step function, ending at cumulative probability 1.
    """
    if not ratios:
        raise ParameterError("cannot summarize an empty ratio list")
    n = len(ratios)
    ordered = sorted(ratios)
    rank = math.ceil(0.95 * n)
    p95 = ordered[rank - 1]
    cdf = tuple((v, (i + 1) / n) for i, v in enumerate(ordered))
    return math.fsum(ordered) / n, p95, ordered[-1], cdf


def _trial_rails(
    kind: PlayerKind, k: int, L: float, U: float, beta: float, variant: Variant
) -> tuple[tuple[float, ...], tuple[float, ...], bool]:
    """A kind's (lower, upper) rails at (L, U), and whether beta was clipped
    for them.

    When beta >= (U-L)/2, the min algorithm degenerates to one contiguous
    block; DTPR's min thresholds are then built from a clipped beta while the
    instance still charges the true one.
    """
    clipped = (
        kind is PlayerKind.DTPR
        and variant is Variant.MIN
        and not (U > L and beta < (U - L) / 2)
    )
    family = player_family(
        kind, k, U, L, _BETA_CLIP * (U - L) / 2 if clipped else beta, variant
    )
    return family.lower, family.upper, clipped


def pass_len(T: int, k: int, m: int) -> int:
    """How many trials one lane pass of m algorithms holds within
    `_PASS_BYTES` (at least one).

    A trial costs its float64 price row and int8 OPT row, and each of its m
    lanes at most one rail row of 2(k+1) float64 values and two bytes a slot
    of decisions (`play_lanes`'s booleans and the bytes they are scored
    from).
    """
    return max(1, _PASS_BYTES // (9 * T + m * (16 * (k + 1) + 2 * T)))


def sample_pass(
    cfg: ExperimentConfig, ds: TraceDataset, bounds: TraceBounds, start: int, prices: np.ndarray
) -> tuple[list[dict], tuple[int, OprError] | None]:
    """Sample trials [start, start + len(prices)) into the rows of ``prices``:
    each trial's window, noised, its zeros lifted to the row's smallest
    positive value.

    Returns the records so far of the trials before the first whose prices
    admit no instance (all zeros, or U overflowing to inf), and that trial
    with its error, or None.  Every other instance check holds by
    construction: L <= every price <= U.
    """
    T, values, means, records = cfg.T, np.fromiter(ds.values, float, len(ds)), [], []
    for row, trial in enumerate(range(start, start + len(prices))):
        seed = derive_seed(cfg.seed, trial)
        segment, offset = sample_segment_with_offset(ds, T, seed)
        prices[row] = values[offset : offset + T]
        means.append(math.fsum(segment) / T)
        records.append(dict(trial=trial, seed=seed, offset=offset))
    noise_rows(prices, means, cfg.noise, ds.kind)
    highs, zeros = prices.max(axis=1), prices <= 0
    np.copyto(prices, math.inf, where=zeros)
    lows = prices.min(axis=1)
    np.copyto(prices, lows[:, None], where=zeros)
    # Python's min and max keep the trace-wide bound objects on most rows
    L = [min(bounds.L, lo) for lo in lows.tolist()]
    U = [max(bounds.U, hi) for hi in highs.tolist()]
    failure = None
    bad = np.flatnonzero((highs <= 0) | (highs == math.inf)).tolist()
    if bad:
        row = bad[0]
        if U[row] == math.inf:
            exc = ParameterError(f"need 0 < L <= U < inf, got L={L[row]}, U={U[row]}")
        else:
            exc = OprError("noised segment is identically zero; instance undefined")
        failure, records[row:] = (start + row, exc), []
    for record, l, u, f in zip(records, L, U, np.count_nonzero(zeros, axis=1).tolist()):
        record.update(instance_l=l, instance_u=u, bounds_widened=l < bounds.L or u > bounds.U,
                      floored_values=f)
    return records, failure


def _complete_record(
    record: dict,
    prices: list[float],
    opt: tuple[bytes, int],
    lanes: list[tuple[bytes, int, bool]],
    names: Sequence[str],
    beta: float,
    variant: Variant,
) -> dict:
    """A trial's last phase: its OPT total, then the total, switches, ratio
    and clipped flag of each algorithm in ``names`` order.  ``opt`` and each
    of ``lanes`` hold the decision bytes and flip count of one schedule; a
    lane also holds its clipped flag."""
    opt_total = lane_total(prices, *opt, beta, variant)
    record.update(opt_total=opt_total, algs={})
    for name, (decisions, flips, clipped) in zip(names, lanes):
        total = lane_total(prices, decisions, flips, beta, variant)
        record["algs"][name] = {
            "total": total,
            "switches": flips,
            "ratio": cost_ratio(total, opt_total, variant),
            "beta_clipped": clipped,
        }
    return record


def _run_trials(
    cfg: ExperimentConfig,
    ds: TraceDataset,
    bounds: TraceBounds,
    beta_abs: float,
    kinds: Sequence[PlayerKind],
    start: int,
    stop: int,
) -> list[dict]:
    """The records of trials [start, stop), from one lane pass.

    `sample_pass` samples the trials into the rows of one price array, and
    each trial's algorithms' rails go into its lanes; OPT is solved for every
    row and every lane is played in one `play_lanes` call.  Sampling and rail
    building stop at the first error, which is raised as ``trial i: ...``
    once every trial before it, and every algorithm before it in its trial,
    is scored.  A T longer than the trace or an infinite beta fails first,
    naming no trial.
    """
    T, k, variant, m = cfg.T, cfg.resolved_k(), cfg.variant, len(kinds)
    if T > len(ds):
        raise ParameterError(f"segment length {T} exceeds trace length {len(ds)}")
    if not (0 <= beta_abs < math.inf):
        raise ParameterError(f"beta must be finite and nonnegative, got {beta_abs}")
    prices = np.empty((stop - start, T))
    records, failure = sample_pass(cfg, ds, bounds, start, prices)
    # each rail pair built, copied once; `lane_rows` says which row each
    # lane plays.  Lanes past a failure play row 0, which exists even when
    # never written, and are never scored.
    table = np.zeros((m * len(records), 2, k + 1))
    lane_rows = np.zeros((len(records), m), dtype=np.intp)
    clipped, used = [], 0
    memo = [(None, 0, False)] * m  # each kind's last (L, U), its row, its clipped flag
    for row, record in enumerate(records):
        L, U = record["instance_l"], record["instance_u"]
        try:
            for a, kind in enumerate(kinds):
                if memo[a][0] != (L, U):
                    rails = _trial_rails(kind, k, L, U, beta_abs, variant)
                    table[used, :, :k] = rails[:2]
                    memo[a], used = ((L, U), used, rails[2]), used + 1
                lane_rows[row, a] = memo[a][1]
                clipped.append(memo[a][2])
        except OprError as exc:
            failure = record["trial"], exc
            del records[row + 1 :]
            break
    n = len(records)
    if n:
        opt_rows = dp_decisions(prices[:n], k, float(beta_abs), variant)
        alg_rows = play_lanes(prices[:n], table[: max(used, 1)], lane_rows[:n], variant)
        opt_flips, alg_flips = lane_flips(opt_rows).tolist(), lane_flips(alg_rows).tolist()
        opt_bytes, alg_bytes = opt_rows.tobytes(), alg_rows.tobytes()
    names = [kind.value for kind in kinds]
    for i, record in enumerate(records):
        opt = opt_bytes[i * T : (i + 1) * T], opt_flips[i]
        lanes = [
            (alg_bytes[(i * m + a) * T : (i * m + a + 1) * T], alg_flips[i][a], clipped[i * m + a])
            for a in range(min(m, len(clipped) - i * m))
        ]
        try:
            _complete_record(record, prices[i].tolist(), opt, lanes, names, beta_abs, variant)
        except OprError as exc:
            raise type(exc)(f"trial {record['trial']}: {exc}") from exc
    if failure is not None:
        trial, exc = failure
        raise type(exc)(f"trial {trial}: {exc}") from exc
    return records


def run_trial(
    cfg: ExperimentConfig,
    ds: TraceDataset,
    bounds: TraceBounds,
    trial: int,
    beta_abs: float,
    kinds: Sequence[PlayerKind],
) -> dict:
    """One trial's record, by `run_experiment`'s lane pass at one trial.
    ``kinds`` run under their names ``kind.value``."""
    return _run_trials(cfg, ds, bounds, beta_abs, kinds, trial, trial + 1)[0]


def run_experiment(cfg: ExperimentConfig, ds: TraceDataset) -> ExperimentResult:
    """Run all trials in lane passes of `pass_len` trials; the first failing
    trial aborts the run with its index, as if run one by one."""
    bounds = trace_bounds(ds)
    beta_abs = cfg.beta if cfg.beta is not None else cfg.beta_frac * bounds.U
    records = []
    kinds = [resolve_player_kind(name) for name in cfg.algs]
    step = pass_len(cfg.T, cfg.resolved_k(), len(kinds))
    for start in range(0, cfg.trials, step):
        stop = min(start + step, cfg.trials)
        records += _run_trials(cfg, ds, bounds, beta_abs, kinds, start, stop)
    summary: dict[str, dict] = {}
    cdf: dict[str, tuple[tuple[float, float], ...]] = {}
    for name in cfg.algs:
        ratios = [rec["algs"][name]["ratio"] for rec in records]
        for rec, ratio in zip(records, ratios):
            if ratio < 1 - 1e-9:
                raise OprError(
                    f"trial {rec['trial']}: {name} ratio {ratio} below 1; OPT is exact, "
                    "this indicates a defect"
                )
        mean, p95, worst, points = summarize(ratios)
        summary[name] = {"mean": mean, "p95": p95, "max": worst}
        cdf[name] = points
    config_echo = {
        "variant": cfg.variant.value,
        "t_horizon": cfg.T,
        "k": cfg.resolved_k(),
        "beta": beta_abs,
        "noise": cfg.noise,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "algs": list(cfg.algs),
        "trace_source": cfg.trace_source,
        "trace_kind": ds.kind.value,
        "region": ds.region,
    }
    return ExperimentResult(
        config=config_echo,
        bounds=bounds,
        trials=tuple(records),
        summary=summary,
        cdf=cdf,
    )


def sweep_ratios(
    variant: Variant, k: int, U: float, beta_grid: Sequence[float], l_grid: Sequence[float]
) -> list[tuple[float, float, float | str]]:
    """Ratio over an (L, beta) grid; out-of-regime cells emit sentinels.

    Min cells with 2*beta >= U - L degenerate to a single contiguous block
    and emit ``degenerate``; max cells with 2*beta >= kL have unbounded
    ratio and emit ``inf``.  A k or U that no cell could use fails before
    any cell is built.
    """
    check_k(k)
    if not (0 < U < math.inf):
        raise ParameterError(f"need 0 < U < inf, got U={U}")
    rows: list[tuple[float, float, float | str]] = []
    for L in l_grid:
        if not (0 < L <= U):
            raise ParameterError(f"grid L={L} outside (0, U={U}]")
        for beta in beta_grid:
            if beta < 0:
                raise ParameterError(f"grid beta={beta} negative")
            if variant is Variant.MIN:
                cell = "degenerate" if 2 * beta >= U - L else solve_alpha(k, U, L, beta)
            else:
                cell = "inf" if 2 * beta >= k * L else solve_omega(k, U, L, beta)
            rows.append((L, beta, cell))
    return rows
