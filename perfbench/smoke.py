"""Smoke check of the benchmark harness at toy size.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload, runs `run.py --toy` untraced once and traced twice.
Asserts that each run prints every metric `BENCHMARK.json` names for its
mode, with that metric's unit, that no pass failed and the outputs checked
correct, and that the two traced runs give identical count metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--toy",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    assert any(line.split()[:2] == ["fail_frac", "0"] for line in lines), \
        f"{workload} trace {trace}: fail_frac is not 0\n{proc.stdout}"
    return json.loads(lines[-1])


def check(result: dict, declared: list[dict], label: str) -> None:
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared), \
        f"{label}: metric names differ from BENCHMARK.json"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} not a number"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "bytes") or m["name"] == "thresholds.repeat_frac"]
    for w in spec["workloads"]:
        name = w["name"]
        check(run(name, 0), spec["end_to_end"], f"{name} end-to-end")
        first, second = run(name, 1), run(name, 1)
        check(first, spec["per_layer"], f"{name} per-layer")
        check(second, spec["per_layer"], f"{name} per-layer (repeat)")
        for key in exact:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            assert a == b, f"{name}: {key} differs between runs: {a} != {b}"
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
