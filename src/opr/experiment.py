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

A run goes in lane passes of `pass_len` trials, each one `_run_trials` call
on one (n, T) price array, negated in place on a max pass (see `core`).
Families depend on a trial only through its (L, U), so a pass builds each
once, from float64 columns of its distinct (L, U) checked and solved as
arrays; the records are the same as if every trial built its own.  One
(n, m) mask decides a pass's failures, and each record is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithms import play_lanes
from .core import Variant, check_k, check_variant, cost_ratio, lane_totals
from .errors import OprError, ParameterError
from .offline import dp_decisions
from .thresholds import (ALG_NAMES, PlayerKind, player_families, regime_edge,
                         resolve_player_kind, solve_ratios)
from .traces import TraceBounds, TraceDataset, noise_rows, trace_bounds

#: clip factor applied to the min `regime_edge` when the true beta reaches it
_BETA_CLIP = 0.999999

#: byte budget of one lane pass's arrays; the offline DP keeps its own budget
#: inside each pass
_PASS_BYTES = 2 * 1024 * 1024

@dataclass(frozen=True)
class ExperimentConfig:
    variant: Variant
    T: int = 48
    k: int | None = None  # the job length; None is stored as ceil(T/6)
    beta: float | None = None  # absolute, exclusive with beta_frac
    beta_frac: float | None = None  # fraction of the trace-wide U
    noise: float = 1.0
    trials: int = 1
    seed: int = 0
    algs: tuple[str, ...] = ALG_NAMES
    trace_source: str = ""  # echo only; data is passed separately

    def __post_init__(self) -> None:
        check_variant(self.variant)
        for name in ("trials", "T"):
            value = getattr(self, name)
            if value < 1:
                raise ParameterError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, check_k(value, name))
        k = math.ceil(self.T / 6) if self.k is None else self.k
        if not (1 <= k <= self.T):
            raise ParameterError(f"need 1 <= k <= T, got k={k}, T={self.T}")
        object.__setattr__(self, "k", check_k(k))
        # 0 and negative seeds are valid; NaN and inf fail the test
        if self.seed % 1 != 0:
            raise ParameterError(f"seed must be an integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
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
            "trials": self.trials,
            "summary": self.summary,
            "cdf": self.cdf,
        }


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
) -> tuple[tuple[list, ...], tuple[int, OprError] | None]:
    """Sample trials [start, start + len(prices)) into the rows of ``prices``:
    each trial's window, noised, its zeros lifted to the row's smallest
    positive value.

    Trial i's seed is a 63-bit splitmix hash of (master seed, i), and its
    window starts at the seed modulo the number of windows.  Returns the
    columns seed, offset, instance L and U, and floored count of the trials
    before the first whose prices admit no instance (all zeros, or U
    overflowing to inf), and that trial with its error, or None.  Every
    other instance check holds by construction: L <= every price <= U.
    """
    T, n = cfg.T, len(prices)
    # uint64 array ops wrap silently, where a numpy scalar would warn; the
    # master's product is reduced mod 2**64 in Python ints first
    seeds = np.arange(n, dtype=np.uint64) + (
        (cfg.seed * 0x9E3779B97F4A7C15 + start + 1) & 0xFFFFFFFFFFFFFFFF)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        seeds ^= seeds >> shift
        seeds *= factor
    seeds = (seeds ^ (seeds >> 31)) & 0x7FFFFFFFFFFFFFFF
    offsets, values = (seeds % (len(ds) - T + 1)).tolist(), np.fromiter(ds.values, float, len(ds))
    for row, offset in enumerate(offsets):
        prices[row] = values[offset : offset + T]
    noise_rows(prices, [math.fsum(ds.values[o : o + T]) / T for o in offsets], cfg.noise, ds.kind)
    highs, zeros = prices.max(axis=1), prices <= 0
    np.copyto(prices, math.inf, where=zeros)
    lows = prices.min(axis=1)
    np.copyto(prices, lows[:, None], where=zeros)
    # Python's min and max keep the trace-wide bound objects on most rows
    L = [min(bounds.L, lo) for lo in lows.tolist()]
    U = [max(bounds.U, hi) for hi in highs.tolist()]
    failure, bad = None, np.flatnonzero((highs <= 0) | (highs == math.inf)).tolist()
    if bad:
        row = n = bad[0]  # the columns stop before it
        if U[row] == math.inf:
            exc = ParameterError(f"need 0 < L <= U < inf, got L={L[row]}, U={U[row]}")
        else:
            exc = OprError("noised segment is identically zero; instance undefined")
        failure = (start + row, exc)
    columns = seeds.tolist(), offsets, L, U, np.count_nonzero(zeros, axis=1).tolist()
    return tuple(column[:n] for column in columns), failure


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

    `sample_pass` samples the trials into the rows of one price array and
    their columns.  The distinct (L, U) become float64 columns, with a (D, m)
    beta clipped by array ops, that one `player_families` call turns into one
    rail table; each lane is pointed at its row.  OPT is solved for every
    row, every lane is played in one `play_lanes` call, and two `lane_totals`
    calls price them all.  One (n, m) division gives every ratio and one mask
    flags every failing lane; its first, row-major, raises as ``trial i: ...``
    its family's error, a total that overflows, `cost_ratio`'s own or a ratio
    below 1 (a defect: OPT is exact), in that order.  Else a sampling error
    raises, or every record is written once.  A T longer than the trace, a
    beta that is infinite or overflows OPT, or a lane off k or whose sum
    overflows fails first; the last two name their trial.
    """
    T, k, variant, m = cfg.T, cfg.k, cfg.variant, len(kinds)
    if T > len(ds):
        raise ParameterError(f"segment length {T} exceeds trace length {len(ds)}")
    if not (0 <= beta_abs < math.inf):
        raise ParameterError(f"beta must be finite and nonnegative, got {beta_abs}")
    prices = np.empty((stop - start, T))
    (seeds, offsets, Ls, Us, floored), failure = sample_pass(cfg, ds, bounds, start, prices)
    # each distinct (L, U) is a cell with a table row per kind; `lane_rows` holds each lane's row
    seen: dict[tuple[float, float], int] = {}
    group = [seen.setdefault(cell, len(seen)) for cell in zip(Ls, Us)]
    lane_rows = np.array(group, dtype=np.intp).reshape(-1, 1) * m + np.arange(m)
    L, U = np.array(list(seen), dtype=float).reshape(-1, 2).T
    # past the min regime edge the min algorithm degenerates to one contiguous block; DTPR's
    # min rails are then built from a clipped beta while the instance still charges the true one
    edge = regime_edge(Variant.MIN, k, U, L)[:, None]
    clips = (beta_abs >= edge) & np.array(
        [kind is PlayerKind.DTPR and variant is Variant.MIN for kind in kinds], bool)
    beta = np.where(clips, _BETA_CLIP * edge, float(beta_abs))
    table, _, failed = player_families(kinds, U, L, beta, k, variant)
    del seen, group, L, U, edge, beta  # freed before the DP and the players run
    n, names = len(seeds), [kind.value for kind in kinds]
    prices = prices[:n]
    if maximize := variant is Variant.MAX:
        np.negative(prices, out=prices)
    opt_rows = dp_decisions(prices, k, float(beta_abs))
    alg_rows = play_lanes(prices, table, lane_rows)
    _, _, opt_totals, _ = lane_totals(prices, opt_rows[:, None], k, beta_abs,
                                      lambda i, a: f"trial {start + i}: OPT")
    _, _, totals, flips = lane_totals(prices, alg_rows, k, beta_abs,
                                      lambda i, a: f"trial {start + i}: {names[a]}")
    del table  # freed before the records are written
    if maximize:  # 0.0 - t, so that a zero profit stays +0.0
        opt_totals, totals = ([0.0 - t for t in part] for part in (opt_totals, totals))
    alg, opt = np.array(totals).reshape(n, m), np.array(opt_totals).reshape(n, 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = opt / alg if maximize else alg / opt  # `cost_ratio`'s quotient, bit for bit
    dead = np.zeros(clips.size, bool)
    dead[list(failed)] = True
    bad = (dead[lane_rows] | (np.abs(alg) == math.inf) | ((alg if maximize else opt) <= 0)
           | (ratios < 1 - 1e-9))
    for j in np.flatnonzero(bad)[:1].tolist():
        (i, a), total = divmod(j, m), totals[j]
        try:
            if (error := failed.get(lane_rows[i, a].item())) is not None:
                raise error
            if abs(total) == math.inf:
                raise ParameterError(f"{names[a]} total {total} overflows")
            # `cost_ratio` raises on a nonpositive denominator; else the flag is a defect
            raise OprError(f"{names[a]} ratio {cost_ratio(total, opt_totals[i], variant)} "
                           "below 1; OPT is exact, this indicates a defect")
        except OprError as exc:
            raise type(exc)(f"trial {start + i}: {exc}") from exc
    if failure is not None:
        trial, exc = failure
        raise type(exc)(f"trial {trial}: {exc}") from exc
    clipped, ratios = clips.ravel()[lane_rows.ravel()].tolist(), ratios.ravel().tolist()
    # lane j = i*m + a of each flat list is trial i's algorithm a
    return [{"trial": start + i, "seed": seed, "offset": offset, "instance_l": l,
             "instance_u": u, "bounds_widened": l < bounds.L or u > bounds.U,
             "floored_values": f, "opt_total": opt_totals[i],
             "algs": {name: {"total": totals[j], "switches": flips[j], "ratio": ratios[j],
                             "beta_clipped": clipped[j]} for j, name in enumerate(names, i * m)}}
            for i, (seed, offset, l, u, f) in enumerate(zip(seeds, offsets, Ls, Us, floored))]


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
    """Summarize all trials, run in lane passes of `pass_len` trials whose
    `_run_trials` decides every failure: the first failing trial aborts the
    run with its index, as if run one by one."""
    bounds = trace_bounds(ds)
    beta_abs = cfg.beta if cfg.beta is not None else cfg.beta_frac * bounds.U
    records = []
    kinds = [resolve_player_kind(name) for name in cfg.algs]
    step = pass_len(cfg.T, cfg.k, len(kinds))
    for start in range(0, cfg.trials, step):
        stop = min(start + step, cfg.trials)
        records += _run_trials(cfg, ds, bounds, beta_abs, kinds, start, stop)
    summary: dict[str, dict] = {}
    cdf: dict[str, tuple[tuple[float, float], ...]] = {}
    for name in cfg.algs:
        mean, p95, worst, points = summarize([rec["algs"][name]["ratio"] for rec in records])
        summary[name] = {"mean": mean, "p95": p95, "max": worst}
        cdf[name] = points
    config_echo = {
        "variant": cfg.variant.value,
        "t_horizon": cfg.T,
        "k": cfg.k,
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

    Cells with beta at or past their `regime_edge` emit ``degenerate`` on
    the min side, where the player buys one contiguous block, and ``inf`` on
    the max side, where the ratio is unbounded.  The k, the U, the first
    L, every beta, and then the other L's in grid order are checked before
    any cell is solved; the others, one mask over the grid's columns, are
    solved in one `solve_ratios` call, and the first that fails raises.
    """
    check_k(k)
    if not (0 < U < math.inf):
        raise ParameterError(f"need 0 < U < inf, got U={U}")
    negative = next((beta for beta in beta_grid if beta < 0), None)
    for L in l_grid:
        if not (0 < L <= U):
            raise ParameterError(f"grid L={L} outside (0, U={U}]")
        if negative is not None:  # raised after the first L's own check
            raise ParameterError(f"grid beta={negative} negative")
    sentinel = "degenerate" if variant is Variant.MIN else "inf"
    Ls = np.repeat(np.array(l_grid, dtype=float), len(beta_grid))
    betas = np.tile(np.array(beta_grid, dtype=float), len(l_grid))
    live = ~(betas >= regime_edge(variant, k, U, Ls))
    n = np.count_nonzero(live)
    found, errors = solve_ratios(variant, np.full(n, float(k)), np.full(n, float(U)),
                                 Ls[live], betas[live])
    if errors:
        raise errors[min(errors)]
    ratios, regime = iter(found.tolist()), iter(live.tolist())
    return [(L, beta, next(ratios) if next(regime) else sentinel)
            for L in l_grid for beta in beta_grid]
