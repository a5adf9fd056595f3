"""A per-trial reference for `opr simulate`, independent of its lane passes.

`run_experiment` samples a pass of trials into one price array, solves OPT
for every row with the lane DP and plays every (trial, algorithm) lane in
one `play_lanes` call.  This module builds the same records one trial at a
time from the one-row parts: the scalar `derive_seed` below,
`sample_segment_with_offset`, the noise, floor and widen rules of
`opr.experiment`'s module docstring written out here, an `Instance`, each
player's `player_family` stepped by `run_online`, and OPT by the exhaustive
`brute_force_optimal`.  No user path of ``opr`` needs it.
"""

import math

from brute_force import brute_force_optimal

from opr.algorithms import run_online
from opr.core import Instance, Variant, cost_ratio, evaluate_schedule
from opr.errors import OprError, ParameterError
from opr.experiment import ExperimentConfig
from opr.thresholds import PlayerKind, player_family
from opr.traces import (TraceBounds, TraceDataset, TraceKind, sample_segment_with_offset,
                        trace_bounds)

#: past the min regime edge (U - L)/2, DTPR plays the rails of this
#: fraction of the edge while the instance charges the true beta
BETA_CLIP = 0.999999


def derive_seed(master: int, trial: int) -> int:
    """Trial ``trial``'s seed: a stable 63-bit splitmix hash of (master,
    trial), in Python ints; `sample_pass` computes it in uint64 arrays."""
    x = (master * 0x9E3779B97F4A7C15 + trial + 1) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0x7FFFFFFFFFFFFFFF


def reference_sample(
    cfg: ExperimentConfig, ds: TraceDataset, bounds: TraceBounds, trial: int
) -> tuple[list[float], dict]:
    """Trial ``trial``'s prices and the sampling fields of its record, as
    `sample_pass` writes them; a segment that admits no instance raises."""
    seed = derive_seed(cfg.seed, trial)
    segment, offset = sample_segment_with_offset(ds, cfg.T, seed)
    # noise: deviations from the segment mean amplified, truncated below at
    # 0, and carbon-free percentages capped at 100
    mean = math.fsum(segment) / cfg.T
    cap = 100.0 if ds.kind is TraceKind.CARBON_FREE_PCT else math.inf
    noised = [min(max(mean + cfg.noise * (v - mean), 0.0), cap) for v in segment]
    high = max(noised)
    if high <= 0:
        raise OprError("noised segment is identically zero; instance undefined")
    # floor: a value truncated to 0 is lifted to the smallest positive one
    low = min(p for p in noised if p > 0)
    # widen: the trace-wide bounds, stretched to hold every price
    L, U = min(bounds.L, low), max(bounds.U, high)
    if U == math.inf:
        raise ParameterError(f"need 0 < L <= U < inf, got L={L}, U={U}")
    return [p if p > 0 else low for p in noised], {
        "trial": trial, "seed": seed, "offset": offset, "instance_l": L, "instance_u": U,
        "bounds_widened": L < bounds.L or U > bounds.U,
        "floored_values": sum(p <= 0 for p in noised)}


def reference_record(
    cfg: ExperimentConfig, ds: TraceDataset, bounds: TraceBounds, trial: int, beta: float
) -> dict:
    """Trial ``trial``'s record, as `run_experiment` writes it."""
    k, variant = cfg.k, cfg.variant
    prices, record = reference_sample(cfg, ds, bounds, trial)
    L, U = record["instance_l"], record["instance_u"]
    inst = Instance(k=k, T=cfg.T, L=L, U=U, beta=beta, variant=variant, prices=prices)
    _, opt = brute_force_optimal(inst)
    algs = {}
    for name in cfg.algs:
        kind, edge = PlayerKind(name), (U - L) / 2
        clipped = kind is PlayerKind.DTPR and variant is Variant.MIN and beta >= edge
        family = player_family(kind, k, U, L, BETA_CLIP * edge if clipped else beta, variant)
        alg = evaluate_schedule(inst, run_online(family, inst))
        algs[name] = {"total": alg.total, "switches": alg.num_switches,
                      "ratio": cost_ratio(alg.total, opt.total, variant), "beta_clipped": clipped}
    record.update(opt_total=opt.total, algs=algs)
    return record


def reference_records(cfg: ExperimentConfig, ds: TraceDataset) -> list[dict]:
    """Every trial's record of `run_experiment(cfg, ds)`, one trial at a
    time; the first failing trial raises its error as ``trial i: ...``."""
    bounds = trace_bounds(ds)
    beta = cfg.beta if cfg.beta is not None else cfg.beta_frac * bounds.U
    records = []
    for trial in range(cfg.trials):
        try:
            records.append(reference_record(cfg, ds, bounds, trial, beta))
        except OprError as exc:
            raise type(exc)(f"trial {trial}: {exc}") from exc
    return records
