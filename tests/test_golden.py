"""Byte-for-byte goldens: the serialized results of fixed-seed experiments.

A performance change must leave every byte of ``results.json`` unchanged.
These digests are sha256 of ``json.dumps(result.to_dict(), sort_keys=True)``
on the shipped traces; they were computed before the offline DP moved from a
loop over the slots to a loop over the units, and must never be regenerated
to make a change pass.
"""

import hashlib
import json
from importlib import resources

import pytest

from opr.core import Variant
from opr.experiment import ExperimentConfig, run_experiment
from opr.traces import TraceKind, parse_trace

GOLDENS = [
    # case study, one shared (L, U) across trials
    ("synthetic_intensity.csv", TraceKind.INTENSITY,
     dict(variant=Variant.MIN, T=48, k=8, noise=1.0, trials=200),
     "1ca4bd82bdaffce389c6bad02b43bf3e96298905e4a8f0681f1cd8af9a0df5db"),
    # noise 3: every trial widens and floors its own bounds
    ("synthetic_intensity.csv", TraceKind.INTENSITY,
     dict(variant=Variant.MIN, T=48, k=8, noise=3.0, trials=200),
     "cd01c02195d9b13f2e39350c959f1d3c25207f67e508ef7222303354a963ef84"),
    # long max-side horizon: large DP tables and backtraces
    ("synthetic_carbonfree.csv", TraceKind.CARBON_FREE_PCT,
     dict(variant=Variant.MAX, T=720, k=120, noise=1.0, trials=6),
     "277e0f959f28af65f5534f7daae818396637102eb4789d650fdc0902eb64e036"),
]


@pytest.mark.parametrize(
    "trace, kind, params, digest", GOLDENS, ids=["min-noise1", "min-noise3", "max-T720"]
)
def test_results_bytes_are_unchanged(trace, kind, params, digest):
    ds = parse_trace(str(resources.files("opr.data") / trace), kind)
    cfg = ExperimentConfig(beta_frac=0.05, seed=42, **params)
    blob = json.dumps(run_experiment(cfg, ds).to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
