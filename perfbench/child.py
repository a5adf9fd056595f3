"""One timed `opr` invocation in a fresh interpreter.

Usage: child.py REPORT_JSON STDOUT_FILE TRACE(0|1) -- OPR_ARGV...

With no OPR_ARGV it only times the import, a probe for more `setup_s`
samples.

Times the import of `opr.cli` (numpy included) and one `opr.cli.main(argv)`
call, with the program's standard output sent to STDOUT_FILE.  Times a fixed
calibration workload just before and just after the call, so that `run.py`
can scale the timings to a reference machine speed.  Writes the timings, the
process's peak RSS and, when traced, the spans and counts to REPORT_JSON,
then exits with the program's exit code.
"""

import sys
import time

_t0 = time.perf_counter()
import opr.cli  # noqa: E402  (the import is what setup_s measures)

_setup_s = time.perf_counter() - _t0

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work,
    like the program's per-step loops and DP rows.  It never changes, so the
    ratio of a timing to it cancels how fast the machine runs right now."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(40_000):
        acc += (i * 7 % 13) * 0.5
        table[i & 255] = acc
    row = np.arange(121, dtype=float)
    best = np.zeros(121)
    for _ in range(1_000):
        best = np.minimum(best + row, np.roll(best, 1) + 0.5)
    return time.perf_counter() - start


def main() -> int:
    report_path, stdout_path, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--" or trace_flag not in ("0", "1"):
        raise SystemExit("usage: child.py REPORT STDOUT TRACE(0|1) -- ARGV...")
    if not argv:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": _setup_s, "calib_s": [calibrate()]}, fh)
        return 0
    recorder = None
    if trace_flag == "1":
        import tracer

        recorder = tracer.install()
    calib_before_s = calibrate()
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = opr.cli.main(argv)
        wall_s = time.perf_counter() - start
    calib_after_s = calibrate()
    report = {
        "setup_s": _setup_s,
        "wall_s": wall_s,
        "calib_s": [calib_before_s, calib_after_s],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rc": rc,
    }
    if recorder is not None:
        report.update(recorder.report())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
