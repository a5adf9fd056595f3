"""The benchmark tracer's hook targets still name real `opr` attributes.

`perfbench/tracer.py` wraps `opr` functions by name through `getattr`, so a
rename in `src/opr` breaks traced benchmark runs without failing anything
else.  This test loads the tracer read-only and resolves every target; it
never calls `install()`, which would rebind the modules' globals.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import opr.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for targets in _load_tracer().LAYERS.values() for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_resolves(target):
    mod_name, attr = target.split(":")
    module = importlib.import_module(f"opr.{mod_name}")
    assert callable(functools.reduce(getattr, attr.split("."), module))


def test_player_step_resolves():
    assert callable(importlib.import_module("opr.algorithms").PlayerState.step)
