"""Benchmark of whole `opr` invocations, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload case-min [--seed 42] [--seconds 30] [--trace 0|1]

A pass runs a workload's `opr` invocations, each in a fresh interpreter
(`child.py`) with its outputs in a temporary directory, one process at a
time.  Every real `opr` call is a new process, so nothing cached in one pass
can help the next.  Passes repeat while a typical pass still ends within
`--seconds`.  Every pass must reproduce the first pass's output digests,
and the first pass's outputs get the full correctness check once timing
ends.

Every time is scaled to a reference machine speed: `child.py` times a fixed
calibration workload around each invocation, and a time counts as
`time * CALIB_REF_S / calibration time` of its own process.  Load from
other tenants of a shared machine moves both alike, so the ratio holds
still where raw seconds drift by a third over minutes.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
passes with passes traced by `tracer.py` and prints the per-layer metrics,
including the tracing overhead; the spans are written to
`.perfbench-work/spans-<workload>-seed<seed>.jsonl` when the run ends.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, counting passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata, util
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
TRACE_MIN = "src/opr/data/synthetic_intensity.csv"
TRACE_MAX = "src/opr/data/synthetic_carbonfree.csv"
ALGS = ("dtpr", "ksearch", "const", "agnostic")
#: seconds one `opr` invocation may take before its pass counts as failed
INVOCATION_TIMEOUT_S = 120
#: the calibration time, before and after one invocation together, of the
#: machine whose seconds the timings are given in (about that of a 2-vCPU
#: cloud VM running CPython 3.11)
CALIB_REF_S = 0.05
#: import-only processes per untraced pass, for more `setup_s` samples
SETUP_PROBES = 2


@dataclass(frozen=True)
class Invocation:
    """One `opr` command line; `{out}` in `argv` is the pass's output dir."""

    name: str
    kind: str  # "simulate" | "sweep" | "adversary"
    argv: tuple[str, ...]
    spec: dict  # what the output checks need to know about the invocation


def _simulate(variant, trace, T, k, trials, noise, seed) -> Invocation:
    spec = dict(variant=variant, trace=trace, T=T, k=k, trials=trials, noise=noise,
                beta_frac=0.05, algs=ALGS)
    argv = ("simulate", "--variant", variant, "--trace", trace, "--t-horizon", str(T),
            "--k", str(k), "--beta-frac", "0.05", "--noise", repr(noise),
            "--trials", str(trials), "--seed", str(seed), "--algs", ",".join(ALGS),
            "--out", "{out}/results.json")
    return Invocation("results.json", "simulate", argv, spec)


def _theory(seed: int, toy: bool) -> list[Invocation]:
    steps, k_adv = (4, 6) if toy else (50, 40)
    # seed 42 sweeps L over [1, 10]; other seeds raise the grid's lowest L
    # by (seed - 42) mod 50 hundredths, so each cell is a new bisection
    l_min = 1.0 + 0.01 * ((seed - 42) % 50)
    out = []
    for variant in ("min", "max"):
        argv = ("sweep", "--variant", variant, "--k", "10", "--u", "30",
                "--l-min", repr(l_min), "--l-max", "10", "--beta-min", "0",
                "--beta-max", "5", "--steps", str(steps), "--out", f"{{out}}/sweep-{variant}.csv")
        out.append(Invocation(f"sweep-{variant}.csv", "sweep", argv,
                              dict(variant=variant, k=10, U=30.0, steps=steps)))
    for variant in ("min", "max"):
        for alg in ALGS:
            name = f"adversary-{variant}-{alg}.csv"
            argv = ("adversary", "--variant", variant, "--k", str(k_adv), "--u", "30",
                    "--l", "5", "--beta", "3", "--alg", alg,
                    "--dump-sequence", f"{{out}}/{name}")
            out.append(Invocation(name, "adversary", argv,
                                  dict(variant=variant, k=k_adv, beta=3.0, alg=alg)))
    return out


def build_workload(name: str, seed: int, toy: bool) -> list[Invocation]:
    """The workload's invocations; `toy` shrinks them for the smoke check."""
    if name == "case-min":
        return [_simulate("min", TRACE_MIN, 48, 8, 5 if toy else 500, 1.0, seed)]
    if name == "volatile-min":
        return [_simulate("min", TRACE_MIN, 48, 8, 5 if toy else 500, 3.0, seed)]
    if name == "long-max":
        T, k, trials = (72, 12, 3) if toy else (720, 120, 50)
        return [_simulate("max", TRACE_MAX, T, k, trials, 1.0, seed)]
    if name == "theory":
        return _theory(seed, toy)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("case-min", "volatile-min", "long-max", "theory")

#: per-layer count metrics; each must repeat exactly from pass to pass
COUNT_METRICS = (
    "offline.dp_calls", "offline.dp_cells", "offline.backptr_bytes",
    "thresholds.solves", "thresholds.families", "thresholds.distinct_params",
    "algorithms.player_runs", "algorithms.steps",
    "core.instances", "core.evaluations",
    "traces.rows", "traces.segments",
    "experiment.trials",
    "adversary.runs", "adversary.slots",
    "cli.output_bytes",
)
UNITS = {"offline.backptr_bytes": "bytes", "cli.output_bytes": "bytes"}


@dataclass
class Pass:
    index: int
    traced: bool
    reports: list[dict] = field(default_factory=list)
    probes: list[dict] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    output_bytes: int = 0
    error: str | None = None

    def times(self) -> list[float]:
        return [scaled(r, r["wall_s"]) for r in self.reports]


def scaled(report: dict, seconds: float) -> float:
    """`seconds` of the invocation in the process of `report`, at reference
    speed; the invocation ran between the process's two calibrations."""
    return seconds * CALIB_REF_S / sum(report["calib_s"])


def scaled_setup(report: dict) -> float:
    """Import time at reference speed, against the calibration right after it."""
    return report["setup_s"] * CALIB_REF_S / (2 * report["calib_s"][0])


class Runner:
    """Runs passes of one workload from the checkout root `root`."""

    def __init__(self, root: Path, work: Path, invocations: list[Invocation],
                 probes: int = 0) -> None:
        self.root = root
        self.probes = probes
        self.work = work
        self.invocations = invocations
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH", "")) if p
        )

    def out_dir(self, index: int) -> Path:
        return self.work / f"pass-{index}"

    def run_pass(self, index: int, traced: bool) -> Pass:
        result = Pass(index, traced)
        out = self.out_dir(index)
        (out / "out").mkdir(parents=True)
        for i, inv in enumerate(self.invocations):
            report_path = out / f"report-{i}.json"
            stdout_path = out / f"stdout-{i}.txt"
            argv = [a.replace("{out}", str(out / "out")) for a in inv.argv]
            cmd = [sys.executable, str(HERE / "child.py"), str(report_path),
                   str(stdout_path), "1" if traced else "0", "--", *argv]
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                      text=True, timeout=INVOCATION_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                result.error = f"{inv.name}: timed out after {INVOCATION_TIMEOUT_S} s"
                return result
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
                result.error = f"{inv.name}: exit {proc.returncode}: {tail[0]}"
                return result
            result.reports.append(checks.load_json(report_path))
        for i in range(self.probes):
            report_path = out / f"probe-{i}.json"
            cmd = [sys.executable, str(HERE / "child.py"), str(report_path), os.devnull,
                   "0", "--"]
            subprocess.run(cmd, cwd=self.root, env=self.env, check=True,
                           timeout=INVOCATION_TIMEOUT_S)
            result.probes.append(checks.load_json(report_path))
        try:
            result.digests = self.digests(out)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            result.error = f"output check: {exc}"
        result.output_bytes = sum(f.stat().st_size for f in (out / "out").iterdir())
        return result

    def digests(self, out: Path) -> dict[str, str]:
        digests = {}
        for i, inv in enumerate(self.invocations):
            path = out / "out" / inv.name
            if inv.kind == "simulate":
                digests[inv.name] = checks.simulate_digest(checks.load_json(path))
            elif inv.kind == "sweep":
                digests[inv.name] = checks.sweep_digest(path)
            else:
                stdout = (out / f"stdout-{i}.txt").read_text(encoding="utf-8")
                digests[inv.name] = checks.adversary_digest(stdout, path)
        return digests

    def full_check(self, index: int) -> None:
        """Invariant checks on one pass's outputs; raises CheckError."""
        out = self.out_dir(index)
        for i, inv in enumerate(self.invocations):
            path = out / "out" / inv.name
            if inv.kind == "simulate":
                results = checks.load_json(path)
                checks.check_simulate(results, inv.spec, self.root / inv.spec["trace"])
            elif inv.kind == "sweep":
                checks.check_sweep(path, inv.spec)
            else:
                stdout = (out / f"stdout-{i}.txt").read_text(encoding="utf-8")
                checks.check_adversary(stdout, path, inv.spec)

    def discard(self, index: int) -> None:
        shutil.rmtree(self.out_dir(index), ignore_errors=True)


def self_times(report: dict) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        layer = tracer.LAYER_OF[name]
        out[layer] = out.get(layer, 0.0) + scaled(report, end - start - inner)
    return out


def wall_s(passes: list[Pass]) -> float:
    """Sum over the workload's invocations of each one's median time."""
    per_invocation = zip(*(p.times() for p in passes))
    return sum(statistics.median(times) for times in per_invocation)


def end_to_end(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    setup = (scaled_setup(r) for p in passes for r in p.reports + p.probes)
    return {
        "wall_s": (wall_s(passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (
            statistics.median(max(r["rss_kb"] for r in p.reports) / 1024 for p in passes),
            "MB",
        ),
    }


def pass_counts(p: Pass) -> dict[str, int]:
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for r in p.reports:
        for key, value in r["counts"].items():
            if key == "offline.backptr_bytes":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    counts["cli.output_bytes"] = p.output_bytes
    return counts


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, str | None]:
    """Per-layer metrics, plus an error if a count differs between passes."""
    metrics: dict[str, tuple[float, str]] = {}
    per_pass = []
    for p in traced:
        totals: dict[str, float] = {}
        for r in p.reports:
            for layer, t in self_times(r).items():
                totals[layer] = totals.get(layer, 0.0) + t
        per_pass.append(totals)
    for layer in tracer.LAYERS:
        metrics[f"{layer}_s"] = (statistics.median(t.get(layer, 0.0) for t in per_pass), "s")
    counts = [pass_counts(p) for p in traced]
    error = None
    if any(c != counts[0] for c in counts):
        differ = sorted(k for k in COUNT_METRICS if len({c[k] for c in counts}) > 1)
        error = f"counts differ between traced passes: {', '.join(differ)}"
    for key in COUNT_METRICS:
        metrics[key] = (counts[0][key], UNITS.get(key, "count"))
    solves = counts[0]["thresholds.solves"]
    repeat = 1 - counts[0]["thresholds.distinct_params"] / solves if solves else 0.0
    metrics["thresholds.repeat_frac"] = (repeat, "frac")
    metrics["trace.overhead_frac"] = (wall_s(traced) / wall_s(untraced) - 1, "frac")
    return metrics, error


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "numba": "present" if util.find_spec("numba") else "absent",
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke check")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "opr" / "cli.py").is_file():
        print(f"error: no src/opr/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    invocations = build_workload(args.workload, args.seed, args.toy)
    work_root = root / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runner = Runner(root, work, invocations, 0 if args.trace else SETUP_PROBES)
        return measure(args, root, work_root, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work_root: Path, runner: Runner) -> int:
    passes: list[Pass] = []
    durations: list[float] = []
    min_passes = 4 if args.trace else 3
    deadline = time.perf_counter() + args.seconds
    # start a pass only if a typical pass still ends before the deadline
    while (len(passes) < min_passes
           or time.perf_counter() + statistics.median(durations) <= deadline):
        index = len(passes)
        started = time.perf_counter()
        p = runner.run_pass(index, traced=bool(args.trace) and index % 2 == 1)
        durations.append(time.perf_counter() - started)
        if index > 0:
            runner.discard(index)
            if p.error is None and p.digests != passes[0].digests:
                p.error = "outputs differ from the first pass"
        passes.append(p)

    # outputs are deterministic, so the full check of the first pass's
    # outputs, after timing, holds for every pass with the same digests
    first = passes[0]
    if first.error is None:
        try:
            runner.full_check(0)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            for p in passes:
                if p.error is None:
                    p.error = f"output check: {exc}"
    runner.discard(0)
    problems = [f"pass {p.index}: {p.error}" for p in passes if p.error]
    if first.error is None and args.seed == 42 and not args.toy:
        reference = checks.load_json(HERE / "reference.json").get(args.workload, {})
        for name, digest in reference.items():
            if first.digests.get(name) != digest:
                problems.append(f"{name}: digest {first.digests.get(name)} != reference {digest}")

    # timings come from every pass that ran all its invocations, including
    # passes whose outputs failed a check: those make the run incorrect
    ran = [p for p in passes if len(p.reports) == len(runner.invocations)]
    untraced = [p for p in ran if not p.traced]
    traced = [p for p in ran if p.traced]
    if not untraced or (args.trace and not traced):
        for line in problems:
            print(line, file=sys.stderr)
        print("error: no pass ran to completion; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics, count_error = per_layer(untraced, traced)
        if count_error:
            problems.append(count_error)
        write_spans(work_root, args, root, traced)
    else:
        metrics = end_to_end(untraced)

    attempted = len(passes)
    failed = sum(p.error is not None for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} passes, {failed} failed")
    print("env " + json.dumps(environment(root), sort_keys=True))
    for name, digest in sorted(first.digests.items()):
        print(f"digest {name} {digest}")
    for line in problems:
        print(f"FAIL {line}")
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    if not args.trace:
        raw = sum(statistics.median(r["wall_s"] for r in reports)
                  for reports in zip(*(p.reports for p in untraced)))
        print(f"  (times at reference speed, medians of {len(untraced)} passes; "
              f"unscaled wall_s {raw:.6g} s)")
    print(f"  {'fail_frac':<{width}}  {failed / attempted:.6g} frac")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def write_spans(work_root: Path, args, root: Path, traced: list[Pass]) -> None:
    """All spans of the run, one JSON array a line, after a header line
    naming the fields; `parent` indexes the spans of the same process."""
    path = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        header = {"workload": args.workload, "seed": args.seed, "env": environment(root),
                  "fields": ["pass", "proc", "name", "start", "end", "parent"]}
        fh.write(json.dumps(header) + "\n")
        for p in traced:
            for proc, r in enumerate(p.reports):
                for span in r["spans"]:
                    fh.write(json.dumps([p.index, proc, *span]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
