"""Online pause-and-resume workbench.

Buy (or sell) exactly k units over a horizon of T online prices, paying a
switching penalty whenever the accept/reject decision flips.  The package
provides the optimal double-threshold online players for both variants,
k-search and carbon-agnostic baselines, exact offline optima, adaptive
lower-bound adversaries, carbon-trace tooling, and a batch experiment CLI.
"""

from .adversary import AdversaryTranscript, adversary_max, adversary_min
from .algorithms import PlayerState, hindsight_trace, new_player, run_online
from .core import (
    CostBreakdown,
    Instance,
    Schedule,
    Variant,
    evaluate_schedule,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    summarize,
    sweep_ratios,
)
from .offline import dp_optimal
from .thresholds import (
    PlayerKind,
    ThresholdFamily,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    ksearch_thresholds,
    solve_alpha,
    solve_omega,
)
from .traces import (
    TraceBounds,
    TraceDataset,
    TraceKind,
    apply_noise,
    parse_trace,
    synthetic_diurnal,
    trace_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryTranscript",
    "CostBreakdown",
    "ExperimentConfig",
    "ExperimentResult",
    "Instance",
    "PlayerKind",
    "PlayerState",
    "Schedule",
    "ThresholdFamily",
    "TraceBounds",
    "TraceDataset",
    "TraceKind",
    "Variant",
    "adversary_max",
    "adversary_min",
    "apply_noise",
    "dp_optimal",
    "dtpr_max_thresholds",
    "dtpr_min_thresholds",
    "evaluate_schedule",
    "hindsight_trace",
    "ksearch_thresholds",
    "new_player",
    "parse_trace",
    "run_experiment",
    "run_online",
    "solve_alpha",
    "solve_omega",
    "summarize",
    "sweep_ratios",
    "synthetic_diurnal",
    "trace_bounds",
]
