"""Command-line surface: solve, sweep, simulate, adversary.

Exit codes: 0 success, 2 parameter/regime error, 3 input-data error.
"""

from __future__ import annotations

import argparse
import json  # noqa: F401  (perfbench/tracer.py resolves its `cli:json.dump` target here)
import math
import sys
from pathlib import Path

from .adversary import adversary_max, adversary_min
from .algorithms import PlayerKind, player_family
from .core import Variant
from .errors import OprError, ParameterError, TraceError
from .experiment import (
    ALG_NAMES,
    ExperimentConfig,
    resolve_player_kind,
    run_experiment,
    sweep_ratios,
)
from .jsonout import write_json
from .traces import TraceKind, parse_trace, synthetic_diurnal

_EXIT_PARAM = 2
_EXIT_DATA = 3


def _parse_synthetic_spec(spec: str) -> dict:
    """Parse 'period=24,amp=80,mean=250,seed=0[,hours=2160,jitter=0.1]'."""
    out: dict[str, float] = {}
    for field in spec.split(","):
        field = field.strip()
        if not field:
            continue
        if "=" not in field:
            raise ParameterError(f"bad synthetic field {field!r}, expected key=value")
        key, raw = field.split("=", 1)
        key = key.strip().lower()
        if key not in ("period", "amp", "mean", "seed", "hours", "jitter"):
            raise ParameterError(f"unknown synthetic key {key!r}")
        try:
            value = float(raw)
        except ValueError:
            raise ParameterError(f"synthetic {key} must be a number, got {raw.strip()!r}") from None
        if not math.isfinite(value):
            raise ParameterError(f"synthetic {key} must be finite, got {value}")
        if key in ("hours", "seed") and not (value.is_integer() and value >= 0):
            raise ParameterError(f"synthetic {key} must be a nonnegative integer, got {value}")
        out[key] = value
    return out


def _check_out_paths(*paths: str | None, reads: str | None = None) -> None:
    """Before any work: each output path must name a file in an existing
    directory, and no two of the outputs and the input `reads` may resolve
    to the same file."""
    seen = {Path(reads).resolve(): f"the input {reads}"} if reads else {}
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"no directory to write {path} into")
        if Path(path).is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ParameterError(f"cannot write {path}: it is the same file as {seen[resolved]}")
        seen[resolved] = path


def _cmd_solve(args) -> int:
    variant = Variant(args.variant)
    family = player_family(PlayerKind.DTPR, args.k, args.u, args.l, args.beta, variant)
    if args.json:
        payload = {"variant": variant.value, "k": args.k, "u": args.u, "l": args.l,
                   "beta": args.beta, "ratio": family.ratio, "lower": list(family.lower),
                   "upper": list(family.upper)}
        write_json(payload, sys.stdout.write)
        print()
    else:
        name = "alpha" if variant is Variant.MIN else "omega"
        print(f"{name} = {family.ratio:.12g}")
        print(f"{'i':>4} {'lower':>16} {'upper':>16}")
        for i, (lo, hi) in enumerate(zip(family.lower, family.upper), start=1):
            print(f"{i:>4} {lo:>16.8f} {hi:>16.8f}")
    return 0


def _cmd_sweep(args) -> int:
    variant = Variant(args.variant)
    if args.steps < 2:
        raise ParameterError(f"--steps must be >= 2, got {args.steps}")
    grids = {}
    for name in ("l", "beta"):
        lo, hi = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
        for flag, value in ((f"--{name}-min", lo), (f"--{name}-max", hi)):
            if not math.isfinite(value):
                raise ParameterError(f"{flag} must be finite, got {value}")
        grids[name] = [lo + (hi - lo) * i / (args.steps - 1) for i in range(args.steps)]
    _check_out_paths(args.out)
    rows = sweep_ratios(variant, args.k, args.u, grids["beta"], grids["l"])
    out = Path(args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("L,beta,ratio\n")
        for L, beta, ratio in rows:
            val = ratio if isinstance(ratio, str) else repr(ratio)
            fh.write(f"{L!r},{beta!r},{val}\n")
    print(f"wrote {len(rows)} grid rows to {out}")
    return 0


def _load_dataset(args, variant: Variant):
    kind = TraceKind.INTENSITY if variant is Variant.MIN else TraceKind.CARBON_FREE_PCT
    if args.trace:
        return parse_trace(args.trace, kind), f"file:{args.trace}"
    spec = _parse_synthetic_spec(args.synthetic)
    defaults = {"mean": 250.0, "amp": 100.0} if kind is TraceKind.INTENSITY else {
        "mean": 55.0,
        "amp": 25.0,
    }
    ds = synthetic_diurnal(
        hours=int(spec.get("hours", 2160)),
        period=spec.get("period", 24.0),
        amp=spec.get("amp", defaults["amp"]),
        mean=spec.get("mean", defaults["mean"]),
        seed=int(spec.get("seed", 0)),
        jitter=spec.get("jitter", 0.1),
        kind=kind,
    )
    return ds, f"synthetic:{args.synthetic}"


def _cmd_simulate(args) -> int:
    variant = Variant(args.variant)
    ds, source = _load_dataset(args, variant)
    algs = tuple(name.strip() for name in args.algs.split(",") if name.strip())
    cfg = ExperimentConfig(
        variant=variant,
        T=args.t_horizon,
        k=args.k,
        beta=args.beta,
        beta_frac=args.beta_frac,
        noise=args.noise,
        trials=args.trials,
        seed=args.seed,
        algs=algs,
        trace_source=source,
    )
    _check_out_paths(args.out, args.cdf, reads=args.trace)
    result = run_experiment(cfg, ds)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        write_json(result.to_dict(), fh.write)
        fh.write("\n")
    print(f"wrote results for {cfg.trials} trials to {out}")
    if args.cdf:
        with open(args.cdf, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("algorithm,ratio,cum_prob\n")
            for name in algs:
                for ratio, cum in result.cdf[name]:
                    fh.write(f"{name},{ratio!r},{cum!r}\n")
        print(f"wrote CDF points to {args.cdf}")
    for name in algs:
        s = result.summary[name]
        print(
            f"{name:>9}: mean {s['mean']:.4f}  p95 {s['p95']:.4f}  max {s['max']:.4f}"
        )
    return 0


def _cmd_adversary(args) -> int:
    variant = Variant(args.variant)
    kind = resolve_player_kind(args.alg)
    _check_out_paths(args.dump_sequence)
    adversary, bound_name = ((adversary_min, "alpha") if variant is Variant.MIN
                             else (adversary_max, "omega"))
    transcript = adversary(kind, args.k, args.u, args.l, args.beta)
    print(f"player          : {kind.value}")
    print(f"realized slots  : {len(transcript.prices)}")
    print(f"alg total       : {transcript.alg_cost.total:.6f}")
    print(f"opt total       : {transcript.opt_cost.total:.6f}")
    print(f"ratio           : {transcript.ratio:.9f}")
    print(f"theoretical {bound_name}: {transcript.bound:.9f}")
    if args.dump_sequence:
        with open(args.dump_sequence, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,price,decision\n")
            for t, (price, x) in enumerate(
                zip(transcript.prices, transcript.alg_schedule.decisions), start=1
            ):
                fh.write(f"{t},{price!r},{x}\n")
        print(f"wrote realized sequence to {args.dump_sequence}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opr",
        description="Online pause-and-resume workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="competitive ratio and threshold table")
    p_solve.add_argument("--variant", required=True, choices=("min", "max"))
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--u", type=float, required=True)
    p_solve.add_argument("--l", type=float, required=True)
    p_solve.add_argument("--beta", type=float, required=True)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="ratio grid over (L, beta)")
    p_sweep.add_argument("--variant", required=True, choices=("min", "max"))
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--u", type=float, required=True)
    p_sweep.add_argument("--l-min", type=float, required=True)
    p_sweep.add_argument("--l-max", type=float, required=True)
    p_sweep.add_argument("--beta-min", type=float, required=True)
    p_sweep.add_argument("--beta-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="trace-driven experiment batch")
    p_sim.add_argument("--variant", required=True, choices=("min", "max"))
    src = p_sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace CSV path")
    src.add_argument("--synthetic", help="period=24,amp=…,mean=…,seed=…[,hours=…]")
    p_sim.add_argument("--t-horizon", type=int, default=48)
    p_sim.add_argument("--k", type=int, default=None, help="default: ceil(T/6)")
    beta_group = p_sim.add_mutually_exclusive_group(required=True)
    beta_group.add_argument("--beta", type=float, default=None, help="absolute switching cost")
    beta_group.add_argument(
        "--beta-frac", type=float, default=None, help="switching cost as a fraction of trace U"
    )
    p_sim.add_argument("--noise", type=float, default=1.0)
    p_sim.add_argument("--trials", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--algs", default=",".join(ALG_NAMES))
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--cdf", default=None, help="optional CDF csv path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_adv = sub.add_parser("adversary", help="run the lower-bound adversary on a player")
    p_adv.add_argument("--variant", required=True, choices=("min", "max"))
    p_adv.add_argument("--k", type=int, required=True)
    p_adv.add_argument("--u", type=float, required=True)
    p_adv.add_argument("--l", type=float, required=True)
    p_adv.add_argument("--beta", type=float, required=True)
    p_adv.add_argument("--alg", required=True, help=f"one of {ALG_NAMES}")
    p_adv.add_argument("--dump-sequence", default=None)
    p_adv.set_defaults(func=_cmd_adversary)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except OprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
