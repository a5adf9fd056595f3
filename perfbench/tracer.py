"""Span tracer for one traced `opr` invocation, installed from outside.

`install()` wraps the public functions of each `opr` module in place, so the
program's code is unchanged.  Every wrapped call records a span
`(name, start, end, parent)`; spans stay in memory and are returned by
`Recorder.report()` when the invocation ends.  Counts are taken at the same
boundaries, from each call's arguments or result, and only on the outermost
span of a layer, so a wrapper calling another wrapper of its own layer (for
example `ksearch_thresholds` calling `dtpr_min_thresholds`) counts once.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

#: layer -> wrapped callables, as "module:attribute" inside the `opr` package.
#: `run.py` turns each layer's summed self time into the `<layer>_s` metric.
LAYERS: dict[str, tuple[str, ...]] = {
    "offline.dp": ("offline:dp_optimal",),
    "thresholds.solve": ("thresholds:solve_alpha", "thresholds:solve_omega"),
    "thresholds.family": (
        "thresholds:dtpr_min_thresholds",
        "thresholds:dtpr_max_thresholds",
        "thresholds:ksearch_thresholds",
    ),
    "algorithms.player": (
        "algorithms:run_online",
        "algorithms:new_player",
        "algorithms:hindsight_trace",
    ),
    "core.instance": ("core:Instance.__init__",),
    "core.evaluate": ("core:evaluate_schedule",),
    "traces.parse": ("traces:parse_trace", "traces:trace_bounds"),
    "traces.segment": ("traces:sample_segment_with_offset", "traces:apply_noise"),
    "experiment.trial": ("experiment:run_trial",),
    # run_experiment's own work outside its trials is the ratio checks and
    # the summary/CDF assembly, so it is booked with summarize()
    "experiment.summarize": ("experiment:summarize", "experiment:run_experiment"),
    "experiment.sweep": ("experiment:sweep_ratios",),
    "adversary.self": ("adversary:adversary_min", "adversary:adversary_max"),
    "cli.serialize": ("experiment:ExperimentResult.to_dict", "cli:json.dump"),
    "cli.self": ("cli:main",),
}


class Recorder:
    """Spans and counts of one process; single-threaded by construction."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.solve_params: set[tuple] = set()
        self.backptr_max = 0

    def wrap(self, layer: str, name: str, fn, on_call=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[layer] == 0
            stack.append(idx)
            active[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[layer] -= 1
                stack.pop()
                spans[idx] = [name, start, end, parent]
            if outermost and on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def count_calls(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- count hooks: each runs after the outermost call of its layer -------

    def _on_dp(self, args, kwargs, result) -> None:
        inst = args[0] if args else kwargs["inst"]
        cells = inst.T * (inst.k + 1) * 2
        self.counts["offline.dp_calls"] += 1
        self.counts["offline.dp_cells"] += cells
        # the kernel's backpointers are a (T, k+1, 2) uint8 array: one byte a cell
        self.backptr_max = max(self.backptr_max, cells)

    def _on_solve(self, name):
        def hook(args, kwargs, result) -> None:
            self.counts["thresholds.solves"] += 1
            self.solve_params.add((name, *args, *sorted(kwargs.items())))

        return hook

    def _counter(self, key):
        def hook(args, kwargs, result) -> None:
            self.counts[key] += 1

        return hook

    def _on_parse(self, args, kwargs, result) -> None:
        if hasattr(result, "values"):
            self.counts["traces.rows"] += len(result.values)

    def _on_adversary(self, args, kwargs, result) -> None:
        self.counts["adversary.runs"] += 1
        self.counts["adversary.slots"] += len(result.prices)

    def hook_for(self, layer: str, target: str):
        hooks = {
            "offline:dp_optimal": self._on_dp,
            "thresholds:solve_alpha": self._on_solve("alpha"),
            "thresholds:solve_omega": self._on_solve("omega"),
            "traces:parse_trace": self._on_parse,
            "traces:sample_segment_with_offset": self._counter("traces.segments"),
            "core:Instance.__init__": self._counter("core.instances"),
            "core:evaluate_schedule": self._counter("core.evaluations"),
            "experiment:run_trial": self._counter("experiment.trials"),
            "adversary:adversary_min": self._on_adversary,
            "adversary:adversary_max": self._on_adversary,
        }
        # one outermost call of these layers is one family built / one player
        # run, whichever public entry point (ksearch or dtpr, hindsight_trace
        # or the adversary's new_player) the caller went through
        if layer == "thresholds.family":
            return self._counter("thresholds.families")
        if layer == "algorithms.player":
            return self._counter("algorithms.player_runs")
        return hooks.get(target)

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["thresholds.distinct_params"] = len(self.solve_params)
        counts["offline.backptr_bytes"] = self.backptr_max
        return {"spans": self.spans, "counts": counts}


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`,
    so `from .x import f` copies in other modules see the wrapper too."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install() -> Recorder:
    """Wrap every callable named in LAYERS; call after `import opr.cli`."""
    rec = Recorder()
    modules = [m for n, m in sys.modules.items() if n == "opr" or n.startswith("opr.")]
    for layer, targets in LAYERS.items():
        for target in targets:
            mod_name, attr = target.split(":")
            module = sys.modules[f"opr.{mod_name}"]
            hook = rec.hook_for(layer, target)
            if attr == "json.dump":
                proxy = types.ModuleType("json")
                proxy.__dict__.update(vars(json))
                proxy.dump = rec.wrap(layer, attr, json.dump, hook)
                module.json = proxy
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, rec.wrap(layer, attr, getattr(cls, meth), hook))
            else:
                original = getattr(module, attr)
                _rebind(modules, original, rec.wrap(layer, attr, original, hook))
    # one span per online step would cost more than the step itself, so
    # steps are counted only; their time stays with the caller's span
    player_state = sys.modules["opr.algorithms"].PlayerState
    player_state.step = rec.count_calls("algorithms.steps", player_state.step)
    return rec


#: span name -> layer, for turning spans into per-layer self time
LAYER_OF = {target.split(":")[1]: layer for layer, targets in LAYERS.items() for target in targets}
