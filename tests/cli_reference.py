"""The argparse parser `opr.cli` used before its option table.

A test-only reference, like ``tests/ratio_reference.py``:
``tests/test_cli.py`` parses drawn command lines with both and requires the
same namespace, apart from the handler in ``func``.
"""

import argparse

from opr.cli import _cmd_adversary, _cmd_simulate, _cmd_solve, _cmd_sweep
from opr.thresholds import ALG_NAMES


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
