"""Command-line surface: solve, sweep, simulate, adversary.

Exit codes: 0 success, 1 the reader closed stdout early, 2 parameter/regime
error or a size that cannot be allocated, 3 input-data error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .adversary import adversary_max, adversary_min
from .core import Variant
from .errors import OprError, ParameterError, TraceError
from .experiment import ExperimentConfig, run_experiment, sweep_ratios
from .thresholds import ALG_NAMES, PlayerKind, player_family, resolve_player_kind
from .traces import TraceKind, parse_trace, synthetic_diurnal

_EXIT_PARAM = 2
_EXIT_DATA = 3
#: list items per write: the most text held at once is 32 trial records
_BLOCK = 32
_encode = json.JSONEncoder(sort_keys=True).encode
_encode_key = json.encoder.encode_basestring_ascii


def _write_json(o, write) -> None:
    """Write `o` through `write` as `json.dumps(o, sort_keys=True)` prints it.

    Dicts are walked in sorted key order, and a list or tuple goes out
    `_BLOCK` items a call, each block printed by the C encoder; so the text
    is never held whole.  A walked dict's keys must be `str` (`TypeError`
    otherwise), where `json.dumps` would print an int key as a string.
    """
    if type(o) is dict:
        write("{")
        for i, (key, value) in enumerate(sorted(o.items())):
            write((", " if i else "") + _encode_key(key) + ": ")
            _write_json(value, write)
        write("}")
    elif type(o) in (list, tuple):
        write("[")
        for start in range(0, len(o), _BLOCK):
            if start:
                write(", ")
            write(_encode(o[start:start + _BLOCK])[1:-1])
        write("]")
    else:
        write(_encode(o))


def _parse_synthetic_spec(spec: str) -> dict:
    """Parse 'period=24,amp=80,mean=250,seed=0[,hours=2160,jitter=0.1]', each key
    at most once, into `synthetic_diurnal`'s keywords."""
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
        if key in out:
            raise ParameterError(f"synthetic {key} given twice")
        try:
            value = float(raw)
        except ValueError:
            raise ParameterError(f"synthetic {key} must be a number, got {raw.strip()!r}") from None
        if not math.isfinite(value):
            raise ParameterError(f"synthetic {key} must be finite, got {value}")
        if key in ("hours", "seed") and not (value.is_integer() and value >= 0):
            raise ParameterError(f"synthetic {key} must be a nonnegative integer, got {value}")
        out[key] = int(value) if key in ("hours", "seed") else value
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
        print(json.dumps(payload, indent=2, sort_keys=True))
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
    # rows run L-major; a row of one L is one write (a float formats as its repr)
    betas, n = [f",{beta!r}," for beta in grids["beta"]], len(grids["beta"])
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("L,beta,ratio\n")
        for start, L in zip(range(0, len(rows), n), map(repr, grids["l"])):
            fh.write("".join([f"{L}{b}{c}\n" for b, (_, _, c) in zip(betas, rows[start:start + n])]))
    print(f"wrote {len(rows)} grid rows to {out}")
    return 0


def _load_dataset(args, variant: Variant):
    kind = TraceKind.INTENSITY if variant is Variant.MIN else TraceKind.CARBON_FREE_PCT
    if args.trace:
        return parse_trace(args.trace, kind), f"file:{args.trace}"
    # unset keys take synthetic_diurnal's defaults, but 2160 hours and carbon-free 55 +/- 25
    own = {"hours": 2160, **({} if variant is Variant.MIN else {"mean": 55.0, "amp": 25.0})}
    ds = synthetic_diurnal(**{**own, **_parse_synthetic_spec(args.synthetic)}, kind=kind)
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
        _write_json(result.to_dict(), fh.write)
        fh.write("\n")
    print(f"wrote results for {cfg.trials} trials to {out}")
    if args.cdf:
        with open(args.cdf, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("algorithm,ratio,cum_prob\n")
            for name in algs:  # one write per algorithm
                fh.write("".join([f"{name},{r!r},{cum!r}\n" for r, cum in result.cdf[name]]))
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
        # one write, each distinct price formatted once (all lie in [L, U], L > 0: no -0.0)
        text = {price: repr(price) for price in set(transcript.prices)}
        rows = enumerate(zip(transcript.prices, transcript.alg_schedule.decisions), start=1)
        with open(args.dump_sequence, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,price,decision\n" + "".join([f"{t},{text[p]},{x}\n" for t, (p, x) in rows]))
        print(f"wrote realized sequence to {args.dump_sequence}")
    return 0


REQUIRED = object()  # the default of an option that must be given
_VARIANT = ("--variant", ("min", "max"), REQUIRED)
_CELL = (("--k", int, REQUIRED), ("--u", float, REQUIRED), ("--l", float, REQUIRED),
         ("--beta", float, REQUIRED))


class Command(NamedTuple):
    run: Callable[[SimpleNamespace], int]
    help: str
    #: (flag, converter, default); a converter is int, float, str, a tuple of
    #: choices, or bool for a switch, and a default is a value or REQUIRED
    options: tuple[tuple[str, object, object], ...]
    one_of: tuple[tuple[str, str], ...] = ()  # flag pairs given exactly once


COMMANDS = {
    "solve": Command(_cmd_solve, "competitive ratio and threshold table",
                     (_VARIANT, *_CELL, ("--json", bool, False))),
    "sweep": Command(_cmd_sweep, "ratio grid over (L, beta)", (
        _VARIANT, *_CELL[:2], ("--l-min", float, REQUIRED), ("--l-max", float, REQUIRED),
        ("--beta-min", float, REQUIRED), ("--beta-max", float, REQUIRED),
        ("--steps", int, REQUIRED), ("--out", str, REQUIRED))),
    "simulate": Command(_cmd_simulate, "trace-driven experiment batch", (
        _VARIANT, ("--trace", str, None), ("--synthetic", str, None), ("--t-horizon", int, 48),
        ("--k", int, None), ("--beta", float, None), ("--beta-frac", float, None),
        ("--noise", float, 1.0), ("--trials", int, 1), ("--seed", int, 0),
        ("--algs", str, ",".join(ALG_NAMES)), ("--out", str, REQUIRED), ("--cdf", str, None)),
        one_of=(("--trace", "--synthetic"), ("--beta", "--beta-frac"))),
    "adversary": Command(_cmd_adversary, "run the lower-bound adversary on a player", (
        _VARIANT, *_CELL, ("--alg", str, REQUIRED), ("--dump-sequence", str, None))),
}


def _cmd_help(args) -> int:
    """Print the options of `args.command`, or of every command, from the table."""
    print(f"usage: opr {args.command or 'COMMAND'} [--flag VALUE | --flag=VALUE] ...  "
          "(full names, each flag once)")
    for name in [args.command] if args.command else COMMANDS:
        cmd = COMMANDS[name]
        print(f"\nopr {name}: {cmd.help}")
        for flag, conv, default in cmd.options:
            pair = next((" ".join(p) for p in cmd.one_of if flag in p), None)
            kind = "|".join(conv) if isinstance(conv, tuple) else conv.__name__
            note = (f"exactly one of {pair}" if pair else "required" if default is REQUIRED
                    else "" if default is None or conv is bool else f"default {default}")
            print(f"  {flag:<16}{'switch' if conv is bool else kind:<9}{note}".rstrip())
    return 0


def _convert(flag: str, conv, value: str):
    """`value` as its option's type: one of a tuple's choices, or `conv(value)`."""
    if isinstance(conv, tuple):
        if value not in conv:
            raise ParameterError(f"{flag} must be one of {', '.join(conv)}, got {value!r}")
        return value
    try:
        return conv(value)
    except ValueError:
        raise ParameterError(f"{flag}: invalid {conv.__name__} value {value!r}") from None


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """One pass over argv against the table: the command's handler as `func`,
    and each option under the attribute name argparse gave it."""
    if argv and argv[0] in ("-h", "--help"):
        return SimpleNamespace(command=None, func=_cmd_help)
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ParameterError(f"{what}; choose from {', '.join(COMMANDS)}")
    name, tokens = argv[0], iter(argv[1:])
    cmd = COMMANDS[name]
    convs = {flag: conv for flag, conv, _ in cmd.options}
    given = {}
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(command=name, func=_cmd_help)
        flag, eq, value = token.partition("=")
        if flag not in convs:
            raise ParameterError(f"{name}: unknown flag {flag!r}")
        if flag in given:
            raise ParameterError(f"{flag} given twice")
        conv = convs[flag]
        if conv is bool:
            if eq:
                raise ParameterError(f"{flag} takes no value")
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ParameterError(f"{flag} needs a value")
        given[flag] = _convert(flag, conv, value)
    for pair in cmd.one_of:
        if sum(flag in given for flag in pair) != 1:
            raise ParameterError(f"{name}: give exactly one of {' '.join(pair)}")
    args = SimpleNamespace(command=name, func=cmd.run)
    for flag, _, default in cmd.options:
        if flag not in given and default is REQUIRED:
            raise ParameterError(f"{name}: {flag} is required")
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except BrokenPipeError:  # the reader left: exit quietly, and flush into devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except (OprError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
