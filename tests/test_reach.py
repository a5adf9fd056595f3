"""Every function defined in ``src/opr`` is one that ``opr`` runs.

A fixed list of command lines runs in process under `sys.setprofile`,
which records the code object of every Python call.  The test fails if a
``def`` in the package, nested ones included, is never called, unless it is
on the allow-list below with its reason; an allow-listed function that is
reached, or that no longer exists, fails it too.  A function only tests
call belongs in ``tests/``.
"""

import ast
import sys
from importlib import resources
from pathlib import Path

import opr
from opr.cli import main

INTENSITY = str(resources.files("opr.data") / "synthetic_intensity.csv")
CARBONFREE = str(resources.files("opr.data") / "synthetic_carbonfree.csv")
CELL = ["--k", "10", "--u", "30", "--l", "5", "--beta", "3"]

#: (argv, exit code); "{tmp}" is the test's temporary directory
RUNS = [
    (["solve", "--variant", "min", *CELL], 0),
    (["solve", "--variant", "max", *CELL, "--json"], 0),
    # a beta past the min edge gives a regime row in the grid
    (["sweep", "--variant", "min", "--k", "4", "--u", "30", "--l-min", "1", "--l-max", "10",
      "--beta-min", "0", "--beta-max", "20", "--steps", "3", "--out", "{tmp}/min.csv"], 0),
    (["sweep", "--variant", "max", "--k", "4", "--u", "30", "--l-min", "1", "--l-max", "10",
      "--beta-min", "0", "--beta-max", "3", "--steps", "3", "--out", "{tmp}/max.csv"], 0),
    (["simulate", "--variant", "min", "--trace", INTENSITY, "--t-horizon", "24", "--k", "4",
      "--beta-frac", "0.05", "--noise", "3", "--trials", "6", "--seed", "42",
      "--out", "{tmp}/min.json", "--cdf", "{tmp}/min-cdf.csv"], 0),
    (["simulate", "--variant", "max", "--trace", CARBONFREE, "--t-horizon", "24", "--k", "4",
      "--beta", "1", "--trials", "4", "--seed", "7", "--out", "{tmp}/max.json"], 0),
    # trial 2's DTPR family cannot be built: its trial is scored lane by lane
    (["simulate", "--variant", "max", "--trace", CARBONFREE, "--noise", "2",
      "--beta-frac", "0.05", "--trials", "10", "--seed", "42", "--out", "{tmp}/noisy.json"], 2),
    (["simulate", "--variant", "min", "--synthetic", "period=24,amp=80,mean=250,seed=3,hours=96",
      "--t-horizon", "12", "--k", "3", "--beta", "2", "--trials", "3",
      "--algs", "dtpr,agnostic", "--out", "{tmp}/syn-min.json"], 0),
    # no --k: the job length defaults from the horizon
    (["simulate", "--variant", "max", "--synthetic", "hours=96,jitter=0.2",
      "--t-horizon", "12", "--beta-frac", "0.05", "--trials", "3",
      "--out", "{tmp}/syn-max.json"], 0),
    *((["adversary", "--variant", variant, *CELL, "--alg", alg], 0)
      for variant in ("min", "max") for alg in ("dtpr", "ksearch", "const", "agnostic")),
    (["adversary", "--variant", "max", *CELL, "--alg", "dtpr",
      "--dump-sequence", "{tmp}/seq.csv"], 0),
    (["-h"], 0),
    (["simulate", "-h"], 0),
    # usage: --u, --l, --beta and --alg missing
    (["adversary", "--variant", "min", "--k", "4"], 2),
    # regime: beta at the min edge (U - L)/2
    (["solve", "--variant", "min", "--k", "4", "--u", "30", "--l", "5", "--beta", "12.5"], 2),
    # an OS error: a trace under a file
    (["simulate", "--variant", "min", "--trace", f"{INTENSITY}/x.csv", "--beta-frac", "0.05",
      "--out", "{tmp}/x.json"], 3),
]

PINNED = "perfbench/tracer.py target; goes with ROADMAP item 1"

#: qualified name -> why nothing `opr` runs calls it
ALLOWED = {
    "experiment.run_trial": PINNED,
    "thresholds.ksearch_thresholds": PINNED,
    "traces.apply_noise": PINNED,
    "traces.sample_segment_with_offset": PINNED,
}


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> qualified name, for every
    ``def`` in the package; a decorated function's code starts at its first
    decorator."""
    out = {}
    for path in sorted(Path(opr.__file__).parent.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    out[(str(path), first)] = name
                visit(child, name)

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return out


def test_every_function_in_the_package_is_reached(tmp_path, capsys):
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    got, outer = [], sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in RUNS:
            got.append(main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]))
    finally:
        sys.setprofile(outer)
    capsys.readouterr()
    assert got == [code for _, code in RUNS]

    defs = _defs()
    reached = {defs[key] for key in {(c.co_filename, c.co_firstlineno) for c in codes}
               if key in defs}
    assert set(ALLOWED) <= set(defs.values()), "an allow-listed function no longer exists"
    assert sorted(reached & set(ALLOWED)) == [], "an allow-listed function is reached"
    assert sorted(set(defs.values()) - reached - set(ALLOWED)) == []

