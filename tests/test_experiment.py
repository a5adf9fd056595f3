"""Experiment runner, statistics, and the ratio sweep."""

import functools
import json
import math
import tracemalloc
import warnings
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_simulate import reference_records, reference_sample
from opr.core import Variant
from opr import experiment, offline
from opr.errors import DegenerateProfitError, OprError, ParameterError, RegimeError
from opr.experiment import (
    ExperimentConfig,
    derive_seed,
    run_experiment,
    summarize,
    sweep_ratios,
)
from opr.thresholds import (PlayerKind, ksearch_thresholds, resolve_player_kind, solve_alpha,
                            solve_omega)
from opr.traces import (
    TraceDataset,
    TraceKind,
    parse_trace,
    synthetic_diurnal,
    trace_bounds,
)


class TestSummarize:
    def test_nearest_rank_small(self):
        mean, p95, worst, _ = summarize([1, 1, 1, 2])
        assert p95 == 2
        assert worst == 2
        assert mean == pytest.approx(1.25)

    def test_singleton(self):
        mean, p95, worst, cdf = summarize([1.0])
        assert mean == p95 == worst == 1.0
        assert cdf == ((1.0, 1.0),)

    def test_hundred_order_statistic(self):
        ratios = [i / 50 for i in range(1, 101)]
        _, p95, _, _ = summarize(list(reversed(ratios)))
        assert p95 == sorted(ratios)[94]

    def test_cdf_monotone_ends_at_one(self):
        _, _, _, cdf = summarize([3.0, 1.0, 2.0, 2.0])
        probs = [p for _, p in cdf]
        vals = [v for v, _ in cdf]
        assert probs == sorted(probs)
        assert vals == sorted(vals)
        assert probs[-1] == 1.0

    def test_empty(self):
        with pytest.raises(ParameterError):
            summarize([])


class TestDeriveSeed:
    def test_deterministic_and_spread(self):
        seeds = [derive_seed(42, i) for i in range(100)]
        assert seeds == [derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_distinct_masters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestRunExperiment:
    def test_horizon_equals_k_all_algorithms_tie(self):
        ds = synthetic_diurnal(hours=60, seed=5)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=6, k=6, beta=2.0, trials=4, seed=11
        )
        res = run_experiment(cfg, ds)
        for rec in res.trials:
            ratios = {rec["algs"][n]["ratio"] for n in cfg.algs}
            assert len(ratios) == 1
            assert ratios.pop() == pytest.approx(1.0, abs=1e-9)

    def test_constant_trace_all_ratios_one(self):
        ds = synthetic_diurnal(hours=60, amp=0.0, mean=50.0, jitter=0.0)
        for variant in (Variant.MIN, Variant.MAX):
            kind_ds = synthetic_diurnal(
                hours=60, amp=0.0, mean=50.0, jitter=0.0,
                kind=TraceKind.INTENSITY if variant is Variant.MIN else TraceKind.CARBON_FREE_PCT,
            )
            cfg = ExperimentConfig(
                variant=variant, T=12, k=3, beta=1.0, trials=3, seed=0
            )
            res = run_experiment(cfg, kind_ds)
            for rec in res.trials:
                for name in cfg.algs:
                    assert rec["algs"][name]["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        ds = synthetic_diurnal(hours=300, seed=8)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, beta_frac=0.02, trials=10, seed=123
        )
        assert run_experiment(cfg, ds).to_dict() == run_experiment(cfg, ds).to_dict()

    def test_algorithm_isolation(self):
        ds = synthetic_diurnal(hours=300, seed=8)
        full = ExperimentConfig(
            variant=Variant.MIN, T=24, beta_frac=0.02, trials=8, seed=3
        )
        reduced = ExperimentConfig(
            variant=Variant.MIN, T=24, beta_frac=0.02, trials=8, seed=3,
            algs=("dtpr", "agnostic"),
        )
        res_full = run_experiment(full, ds)
        res_reduced = run_experiment(reduced, ds)
        for a, b in zip(res_full.trials, res_reduced.trials):
            assert a["algs"]["dtpr"]["ratio"] == b["algs"]["dtpr"]["ratio"]
            assert a["algs"]["agnostic"]["ratio"] == b["algs"]["agnostic"]["ratio"]

    def test_opt_costlier_than_a_player_is_a_defect(self, monkeypatch):
        # an OPT that takes each row's first k slots is beaten by DTPR
        def first_k(prices, k, beta, variant):
            out = np.zeros(prices.shape, dtype=np.int8)
            out[:, :k] = 1
            return out

        monkeypatch.setattr(experiment, "dp_decisions", first_k)
        ds = synthetic_diurnal(hours=300, seed=8)
        cfg = ExperimentConfig(variant=Variant.MIN, T=24, k=4, beta_frac=0.02, trials=8,
                               seed=3, algs=("dtpr",))
        with pytest.raises(OprError, match=r"^trial \d+: dtpr ratio \S+ below 1; OPT is exact, "
                                           r"this indicates a defect$"):
            run_experiment(cfg, ds)

    def test_dtpr_within_theoretical_ratio(self):
        ds = synthetic_diurnal(hours=400, seed=2)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, k=4, beta=5.0, trials=20, seed=9
        )
        res = run_experiment(cfg, ds)
        for rec in res.trials:
            alpha = solve_alpha(4, rec["instance_u"], rec["instance_l"], 5.0)
            assert rec["algs"]["dtpr"]["ratio"] <= alpha + 1e-6

    def test_noise_widens_bounds_and_flags_it(self):
        ds = synthetic_diurnal(hours=200, seed=13, amp=80, mean=150, jitter=0.2)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, beta=1.0, noise=3.0, trials=12, seed=5
        )
        res = run_experiment(cfg, ds)
        widened = [rec for rec in res.trials if rec["bounds_widened"]]
        assert widened, "expected at least one noised segment past the trace bounds"
        for rec in widened:
            assert rec["instance_u"] >= res.bounds.U or rec["instance_l"] <= res.bounds.L

    @pytest.mark.parametrize("below", [False, True])
    def test_dtpr_min_clip_on_and_one_ulp_below_the_regime_edge(self, below, monkeypatch):
        # at noise 1 every trial keeps the trace-wide (L, U); a beta on
        # (U - L)/2 clips DTPR's min rails to 0.999999 of it, one ulp below
        # leaves them on the true beta, and no other kind is ever clipped
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        bounds = trace_bounds(ds)
        edge = (bounds.U - bounds.L) / 2
        beta = math.nextafter(edge, 0) if below else edge
        cells, families = [], experiment.player_families

        def spy(pass_cells, *args):
            cells.extend(pass_cells)
            return families(pass_cells, *args)

        monkeypatch.setattr(experiment, "player_families", spy)
        cfg = ExperimentConfig(variant=Variant.MIN, T=48, k=8, beta=beta, trials=3, seed=42)
        res = run_experiment(cfg, ds)
        assert {(rec["instance_l"], rec["instance_u"]) for rec in res.trials} == {
            (bounds.L, bounds.U)}
        for rec in res.trials:
            assert {name: alg["beta_clipped"] for name, alg in rec["algs"].items()} == {
                "dtpr": not below, "ksearch": False, "const": False, "agnostic": False}
        rail_beta = beta if below else 0.999999 * (bounds.U - bounds.L) / 2
        assert cells == [(kind, bounds.U, bounds.L, rail_beta if kind is PlayerKind.DTPR
                          else beta) for kind in PlayerKind]

    def test_failing_algorithm_aborts_with_trial_index(self):
        # beta >= kL/2 leaves the max ratio undefined; the first trial must
        # abort loudly rather than being skipped
        ds = synthetic_diurnal(
            hours=100, amp=10, mean=50, seed=1, kind=TraceKind.CARBON_FREE_PCT
        )
        cfg = ExperimentConfig(
            variant=Variant.MAX, T=12, k=2, beta=60.0, trials=3, seed=0
        )
        with pytest.raises(Exception, match="trial 0"):
            run_experiment(cfg, ds)

    def test_shipped_carbonfree_trace_runs_max_pipeline(self):
        from importlib import resources
        from opr.traces import parse_trace

        ds = parse_trace(
            str(resources.files("opr.data") / "synthetic_carbonfree.csv"),
            TraceKind.CARBON_FREE_PCT,
        )
        cfg = ExperimentConfig(
            variant=Variant.MAX, T=24, beta_frac=0.01, trials=10, seed=4
        )
        res = run_experiment(cfg, ds)
        for name in cfg.algs:
            assert res.summary[name]["p95"] >= 1.0

    def test_default_k_rule(self):
        for T, k in ((48, 8), (49, 9), (1, 1)):
            assert ExperimentConfig(variant=Variant.MIN, T=T, beta=1.0).k == k

    def test_integral_float_counts_are_stored_as_ints(self):
        ds = synthetic_diurnal(hours=100, seed=3)
        cfg = ExperimentConfig(variant=Variant.MIN, T=24.0, k=2.0, beta=1.0, trials=2.0,
                               seed=2.0)
        counts = (cfg.T, cfg.k, cfg.trials, cfg.seed)
        assert [(type(v), v) for v in counts] == [(int, 24), (int, 2), (int, 2), (int, 2)]
        # so the config echo prints 2, not 2.0
        assert json.dumps(run_experiment(cfg, ds).to_dict()) == json.dumps(run_experiment(
            ExperimentConfig(variant=Variant.MIN, T=24, k=2, beta=1.0, trials=2, seed=2),
            ds).to_dict())
        # zero and negative seeds stay valid
        for seed in (0, -7, -7.0):
            cfg = ExperimentConfig(variant=Variant.MIN, T=24, k=2, beta=1.0, seed=seed)
            assert type(cfg.seed) is int and cfg.seed == seed

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(variant=Variant.MIN, T=48, beta=1.0, beta_frac=0.1)
        for bad in (
            dict(beta=math.nan),
            dict(beta=math.inf),
            dict(beta_frac=math.nan),
            dict(beta_frac=math.inf),
            dict(beta=1.0, noise=math.nan),
            dict(beta=1.0, noise=math.inf),
        ):
            with pytest.raises(ParameterError):
                ExperimentConfig(variant=Variant.MIN, T=48, **bad)
        with pytest.raises(ParameterError):
            ExperimentConfig(variant=Variant.MIN, T=48)
        # each of these used to construct and then fail inside run_experiment
        # with a raw TypeError or AttributeError
        for bad in (dict(k=2.5), dict(T=24.5), dict(trials=2.5), dict(variant="min"),
                    dict(seed=2.5), dict(seed=math.nan), dict(seed=math.inf),
                    dict(trials=0), dict(T=0), dict(k=49)):
            with pytest.raises(ParameterError):
                ExperimentConfig(**{**dict(variant=Variant.MIN, T=48, beta=1.0), **bad})
        for algs in (
            ("nope",),
            (),
            ("dtpr", "dtpr"),
            ("dtpr-min",),
            (PlayerKind.DTPR,),
            ("dtpr", PlayerKind.DTPR),
        ):
            with pytest.raises(ParameterError):
                ExperimentConfig(variant=Variant.MIN, T=48, beta=1.0, algs=algs)


SHIPPED_INTENSITY = resources.files("opr.data") / "synthetic_intensity.csv"


def _one_trial_a_pass(cfg, ds):
    """`run_experiment`'s records with every lane pass holding one trial."""
    with mock.patch.object(experiment, "_PASS_BYTES", 0):
        return run_experiment(cfg, ds).trials


class TestFamilyMemo:
    """run_experiment builds each distinct (kind, L, U, beta) cell of a lane
    pass once, and every lane of that cell plays its rails; the records must
    not show it."""

    @staticmethod
    def _check_against_fresh_trials(cfg, ds):
        trials = run_experiment(cfg, ds).trials
        assert trials == _one_trial_a_pass(cfg, ds)
        return trials

    @staticmethod
    def _widen_and_count(monkeypatch, widen):
        """Raise trial t's U by ``widen[t]``; return the list of kinds of
        every family the run builds."""
        sample = experiment.sample_pass

        def widened(cfg, ds, bounds, start, prices):
            records, failure = sample(cfg, ds, bounds, start, prices)
            for rec in records:
                if widen.get(rec["trial"]):
                    rec.update(instance_u=rec["instance_u"] + widen[rec["trial"]],
                               bounds_widened=True)
            return records, failure

        built, families = [], experiment.player_families

        def spy(cells, *args):
            built.extend(kind for kind, *_ in cells)
            return families(cells, *args)

        monkeypatch.setattr(experiment, "sample_pass", widened)
        monkeypatch.setattr(experiment, "player_families", spy)
        return built

    def test_records_equal_fresh_trials_as_bounds_repeat_and_change(self):
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, beta_frac=0.05, noise=1.5, trials=20, seed=1
        )
        trials = self._check_against_fresh_trials(cfg, ds)
        bounds = [(rec["instance_l"], rec["instance_u"]) for rec in trials]
        same = [a == b for a, b in zip(bounds, bounds[1:])]
        assert any(same) and not all(same)

    def test_records_equal_fresh_trials_as_clipping_changes(self):
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, beta_frac=0.5, noise=3.0, trials=30, seed=5
        )
        trials = self._check_against_fresh_trials(cfg, ds)
        clipped = {rec["algs"]["dtpr"]["beta_clipped"] for rec in trials}
        assert clipped == {True, False}

    @pytest.mark.parametrize("per_pass, builds", [(4, 3), (3, 3), (2, 3), (1, 4)])
    def test_rails_are_built_when_bounds_change_within_a_pass(
        self, monkeypatch, per_pass, builds
    ):
        # at noise 1 every trial keeps the trace-wide (L, U); widening trials
        # 2 and 3 makes trials 0..3 meet (L, U) as A, A, B, C.  Cells live
        # for one pass, so a pass boundary builds the rails again.
        built = self._widen_and_count(monkeypatch, {2: 1.0, 3: 2.0})
        trial_bytes = 9 * 24 + 4 * (16 * 5 + 2 * 24)
        monkeypatch.setattr(experiment, "_PASS_BYTES", per_pass * trial_bytes + trial_bytes - 1)
        assert experiment.pass_len(24, 4, 4) == per_pass
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, k=4, beta_frac=0.05, noise=1.0, trials=4, seed=1
        )
        res = run_experiment(cfg, ds)
        bounds = [(rec["instance_l"], rec["instance_u"]) for rec in res.trials]
        assert bounds[0] == bounds[1] and len(set(bounds)) == 3
        kinds = [resolve_player_kind(name) for name in cfg.algs]
        assert built == [kind for _ in range(builds) for kind in kinds]
        assert res.trials == _one_trial_a_pass(cfg, ds)

    def test_a_cell_met_again_later_in_its_pass_is_built_once(self, monkeypatch):
        # A, B, A, B in one pass: two cells a kind, solved in one call
        built = self._widen_and_count(monkeypatch, {1: 1.0, 3: 1.0})
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, k=4, beta_frac=0.05, noise=1.0, trials=4, seed=1
        )
        trials = self._check_against_fresh_trials(cfg, ds)
        bounds = [(rec["instance_l"], rec["instance_u"]) for rec in trials]
        assert bounds[0] == bounds[2] != bounds[1] == bounds[3]
        kinds = [resolve_player_kind(name) for name in cfg.algs]
        # the run builds two cells a kind; each fresh trial builds its own
        assert built[: 2 * len(kinds)] == kinds * 2
        assert len(built) == 2 * len(kinds) + len(trials) * len(kinds)


SHIPPED_CARBONFREE = resources.files("opr.data") / "synthetic_carbonfree.csv"


class TestChunkedTrials:
    """run_experiment samples a pass of trials, solves their optima in DP
    batches of `dp_batch_len` trials, plays every lane at once, then scores
    the trials in order; neither the records nor the reported failing trial
    may show the batching."""

    @staticmethod
    def _batch_sizes(monkeypatch):
        """Record the size of every DP kernel call the run makes."""
        sizes = []
        kernel = offline._dp_kernel

        def spy(prices, k, beta):
            sizes.append(len(prices))
            return kernel(prices, k, beta)

        monkeypatch.setattr(offline, "_dp_kernel", spy)
        return sizes

    @staticmethod
    def _scored_trials(monkeypatch, fail_score=None):
        """Record the trial of every record the run completes; the record of
        trial `fail_score` raises instead."""
        scored, complete = [], experiment._complete_record

        def spy(record, *args):
            scored.append(record["trial"])
            if record["trial"] == fail_score:
                raise OprError("cannot score")
            return complete(record, *args)

        monkeypatch.setattr(experiment, "_complete_record", spy)
        return scored

    def test_records_equal_fresh_trials_across_chunks(self, monkeypatch):
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, k=4, beta_frac=0.05, noise=2.0, trials=7, seed=3
        )
        # 24 slots, 5 unit layers: 5 * 2 * 3 packed backpointer bytes plus
        # 42 * 25 row bytes = 1080 bytes a trial
        monkeypatch.setattr(offline, "_DP_BATCH_BYTES", 3 * 1080 - 1)
        sizes = self._batch_sizes(monkeypatch)
        res = run_experiment(cfg, ds)
        assert sizes == [2, 2, 2, 1]
        assert res.trials == _one_trial_a_pass(cfg, ds)

    def test_default_budget_chunks(self, monkeypatch):
        sizes = self._batch_sizes(monkeypatch)
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        run_experiment(ExperimentConfig(variant=Variant.MIN, T=48, beta=1.0, trials=250), ds)
        # 512 KiB over 9 * 2 * 6 packed bytes plus 42 * 49 row bytes a trial
        assert sizes == [242, 8]
        sizes.clear()
        ds = parse_trace(str(SHIPPED_CARBONFREE), TraceKind.CARBON_FREE_PCT)
        run_experiment(
            ExperimentConfig(variant=Variant.MAX, T=720, k=120, beta=1.0, trials=11), ds
        )
        assert sizes == [10, 1]  # 121 * 2 * 90 packed bytes plus 42 * 721 a trial

    def test_lane_passes_split_the_trials(self, monkeypatch):
        # a budget of 3 trials a pass: the records equal one big pass
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, k=4, beta_frac=0.05, noise=2.0, trials=7, seed=3
        )
        whole = run_experiment(cfg, ds).to_dict()
        trial_bytes = 9 * 24 + 4 * (16 * 5 + 2 * 24)
        monkeypatch.setattr(experiment, "_PASS_BYTES", 3 * trial_bytes + trial_bytes - 1)
        assert experiment.pass_len(24, 4, 4) == 3
        sizes = self._batch_sizes(monkeypatch)
        assert run_experiment(cfg, ds).to_dict() == whole
        assert sizes == [3, 3, 1]

    @pytest.mark.parametrize("T, k", [(720, 1), (720, 120), (720, 720), (48, 8)])
    def test_pass_size_is_bounded_by_its_budget(self, T, k):
        # sized without running: a 100 000-trial run still goes in passes
        # whose arrays fit the byte budget
        for m in (1, 4):
            n = experiment.pass_len(T, k, m)
            assert 1 <= n < 100_000
            assert n * (9 * T + m * (16 * (k + 1) + 2 * T)) <= experiment._PASS_BYTES

    def test_noisy_max_run_still_aborts_at_trial_2(self, monkeypatch):
        # beta = 0.05 U = 4.948 >= kL/2 = 1.078 once trial 2's noised segment
        # lowers L: DTPR's max family cannot be built.  Trials 0 and 1 are
        # fine, share its pass and are scored first.
        scored = self._scored_trials(monkeypatch)
        ds = parse_trace(str(SHIPPED_CARBONFREE), TraceKind.CARBON_FREE_PCT)
        cfg = ExperimentConfig(
            variant=Variant.MAX, T=48, noise=2.0, beta_frac=0.05, trials=10, seed=42
        )
        with pytest.raises(RegimeError) as excinfo:
            run_experiment(cfg, ds)
        assert excinfo.type is RegimeError
        assert str(excinfo.value) == (
            "trial 2: beta=4.947912397446897 >= kL/2=1.0776627445075633: "
            "profit can be forced nonpositive, max ratio is unbounded"
        )
        assert scored == [0, 1, 2]

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_max_profit_fails_its_trial(self, monkeypatch):
        # beta = 9.5 is below kL/2 = 10, so every family builds, but a lane
        # can still net a nonpositive profit: trial 2 does, after trials 0
        # and 1 are scored, and no warning is raised on the way
        scored = self._scored_trials(monkeypatch)
        values = (30, 20, 10, 10, 25, 26, 10, 10, 18, 10, 18, 10, 10, 10, 29, 28)
        ds = TraceDataset(region="", values=tuple(map(float, values)),
                          kind=TraceKind.CARBON_FREE_PCT)
        cfg = ExperimentConfig(variant=Variant.MAX, T=4, k=2, beta=9.5, trials=12, seed=1,
                               algs=("dtpr", "const"))
        with pytest.raises(DegenerateProfitError) as excinfo:
            run_experiment(cfg, ds)
        assert str(excinfo.value) == (
            "trial 2: nonpositive profit -10.0: beta too large relative to kL, ratio undefined"
        )
        assert scored == [0, 1, 2]

    def test_identically_zero_segment_fails_its_own_trial(self, monkeypatch):
        # a run of 4 zero hours: the only window of T=4 inside it stays zero
        # under noise, so its trial fails after every earlier trial is scored
        values = [100.0 + i % 7 for i in range(40)]
        values[10:14] = [0.0] * 4
        ds = TraceDataset(region="zeros", values=tuple(values), kind=TraceKind.INTENSITY)
        cfg = ExperimentConfig(variant=Variant.MIN, T=4, k=2, beta=1.0, trials=30, seed=9)
        first = next(i for i in range(cfg.trials) if derive_seed(cfg.seed, i) % 37 == 10)
        assert first == 17
        scored = self._scored_trials(monkeypatch)
        with pytest.warns(UserWarning, match="trace minimum is 0"):
            with pytest.raises(
                OprError, match=f"^trial {first}: noised segment is identically zero"
            ):
                run_experiment(cfg, ds)
        assert scored == list(range(first))

    def test_overflowing_noise_fails_trial_0(self, monkeypatch):
        scored = self._scored_trials(monkeypatch)
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(variant=Variant.MIN, T=48, beta=1.0, noise=1e306, trials=3)
        with pytest.raises(ParameterError) as info:
            run_experiment(cfg, ds)
        assert str(info.value) == (
            "trial 0: need 0 < L <= U < inf, got L=23.083920056346066, U=inf"
        )
        assert scored == []

    @pytest.mark.parametrize("fail_sample, fail_score, reported", [(3, None, 3), (3, 1, 1)])
    def test_first_failing_trial_is_reported(
        self, monkeypatch, fail_sample, fail_score, reported
    ):
        # a trial that fails to sample ends its pass: the trials before it
        # are still scored first, and an earlier failure wins
        sample = experiment.sample_pass

        def failing_sample(cfg, ds, bounds, start, prices):
            records, failure = sample(cfg, ds, bounds, start, prices)
            row = fail_sample - start
            if 0 <= row < len(records):
                records, failure = records[:row], (fail_sample, OprError("cannot sample"))
            return records, failure

        monkeypatch.setattr(experiment, "sample_pass", failing_sample)
        scored = self._scored_trials(monkeypatch, fail_score)
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(variant=Variant.MIN, T=24, beta=1.0, trials=10, seed=0)
        with pytest.raises(OprError, match=f"^trial {reported}: cannot"):
            run_experiment(cfg, ds)
        assert scored == list(range(min(fail_sample, reported + 1)))

    @pytest.mark.parametrize("fail_score", [None, 1, 4])
    def test_family_failure_is_its_trials_scoring_failure(self, monkeypatch, fail_score):
        # ksearch's family fails at trial 4 (the third (L, U) of this run):
        # the trials before it are scored first, and so is dtpr, which comes
        # before ksearch in trial 4; an earlier scoring failure wins.  Every
        # cell of the pass is built, in one call, before any trial is scored.
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, beta=1.0, noise=3.0, trials=8, seed=0,
            algs=("dtpr", "ksearch", "const"),
        )
        bounds = [(r["instance_l"], r["instance_u"]) for r in run_experiment(cfg, ds).trials]
        assert bounds[3] != bounds[4]
        build = experiment.player_families

        def failing_families(cells, k, variant):
            table, ratios, failed = build(cells, k, variant)
            return table, ratios, {**failed, **{
                f: RegimeError("cannot build") for f, (kind, U, L, _) in enumerate(cells)
                if kind is PlayerKind.KSEARCH and (L, U) == bounds[4]}}

        monkeypatch.setattr(experiment, "player_families", failing_families)
        lanes, complete = [], experiment._complete_record

        def spy(record, opt_total, trial_lanes, *args):
            lanes.append((record["trial"], len(trial_lanes)))
            if record["trial"] == fail_score:
                raise OprError("cannot score")
            return complete(record, opt_total, trial_lanes, *args)

        monkeypatch.setattr(experiment, "_complete_record", spy)
        reported = 4 if fail_score is None else fail_score
        message = "cannot build" if fail_score is None else "cannot score"
        with pytest.raises(OprError, match=f"^trial {reported}: {message}$"):
            run_experiment(cfg, ds)
        # trial 4 is scored for dtpr only
        assert lanes == [(t, 3) for t in range(min(reported + 1, 4))] + (
            [(4, 1)] if reported == 4 else []
        )

    @pytest.mark.parametrize("fault, reported, message", [
        ("defect", 0, r"dtpr ratio \S+ below 1; OPT is exact, this indicates a defect"),
        ("family", 4, "cannot build"),
    ], ids=["defect", "family"])
    def test_first_failure_across_kinds_is_reported(self, monkeypatch, fault, reported, message):
        # trial 6 fails to sample later in the same pass than a ratio defect
        # at trial 0 (an OPT of each row's first k slots, which DTPR beats)
        # or a family failure at trial 4 (ksearch at that trial's (L, U)):
        # the earlier failure is reported, after the trials before it
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, beta=1.0, noise=3.0, trials=8, seed=0,
            algs=("dtpr", "ksearch", "const"),
        )
        bounds = [(r["instance_l"], r["instance_u"]) for r in run_experiment(cfg, ds).trials]
        sample, build = experiment.sample_pass, experiment.player_families

        def failing_sample(cfg, ds, bounds, start, prices):
            records, failure = sample(cfg, ds, bounds, start, prices)
            if 0 <= 6 - start < len(records):
                records, failure = records[: 6 - start], (6, OprError("cannot sample"))
            return records, failure

        def first_k(prices, k, beta, variant):
            out = np.zeros(prices.shape, dtype=np.int8)
            out[:, :k] = 1
            return out

        def failing_families(cells, k, variant):
            table, ratios, failed = build(cells, k, variant)
            return table, ratios, {**failed, **{
                f: RegimeError("cannot build") for f, (kind, U, L, _) in enumerate(cells)
                if kind is PlayerKind.KSEARCH and (L, U) == bounds[4]}}

        monkeypatch.setattr(experiment, "sample_pass", failing_sample)
        if fault == "defect":
            monkeypatch.setattr(experiment, "dp_decisions", first_k)
        else:
            monkeypatch.setattr(experiment, "player_families", failing_families)
        scored = self._scored_trials(monkeypatch)
        with pytest.raises(OprError, match=f"^trial {reported}: {message}$"):
            run_experiment(cfg, ds)
        assert scored == list(range(reported + 1))


@st.composite
def _sampling_runs(draw):
    kind = draw(st.sampled_from(TraceKind))
    cap = 100.0 if kind is TraceKind.CARBON_FREE_PCT else 1e9
    values = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, cap)), min_size=1, max_size=40
    ).filter(lambda vals: max(vals) > 0))
    noise = draw(st.one_of(st.sampled_from([1.0, 1.5, 3.0]), st.floats(1.0, 1e300)))
    trials = draw(st.integers(1, 12))
    cfg = ExperimentConfig(
        variant=Variant.MIN, T=draw(st.integers(1, len(values))), k=1, beta=1.0, noise=noise,
        trials=trials, seed=draw(st.integers(0, 2**40)),
    )
    ds = TraceDataset(region="", values=tuple(values), kind=kind)
    return cfg, ds, draw(st.integers(1, trials))


class TestSamplePass:
    """`sample_pass` gives, row by row, the bits, records and errors of the
    per-trial `reference_sample`."""

    @given(_sampling_runs())
    @settings(max_examples=300, deadline=None)
    def test_rows_and_records_equal_the_per_trial_sampler(self, run):
        cfg, ds, step = run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a zero trace minimum is floored
            bounds = trace_bounds(ds)
        expected = []
        for trial in range(cfg.trials):
            try:
                prices, record = reference_sample(cfg, ds, bounds, trial)
                expected.append(([p.hex() for p in prices], record))
            except OprError as exc:
                expected.append((type(exc), str(exc)))
        for start in range(0, cfg.trials, step):
            prices = np.full((min(step, cfg.trials - start), cfg.T), np.nan)
            records, failure = experiment.sample_pass(cfg, ds, bounds, start, prices)
            for row, record in enumerate(records):
                hexes, want = expected[start + row]
                assert [p.hex() for p in prices[row].tolist()] == hexes
                assert record == want
                assert [type(v) for v in record.values()] == [type(v) for v in want.values()]
            stop = start + len(prices)
            if failure is None:
                assert start + len(records) == stop
            else:
                trial, exc = failure
                assert trial == start + len(records) < stop
                assert expected[trial] == (type(exc), str(exc))

    @pytest.mark.parametrize("noise", [1.0, 3.0])
    def test_long_pass_allocates_no_window_matrix(self, noise):
        # a long-max-shaped pass samples in place: gathering the windows
        # through a view of every window would allocate ~8 MB here
        ds = parse_trace(str(SHIPPED_CARBONFREE), TraceKind.CARBON_FREE_PCT)
        assert len(ds) == 2160
        cfg = ExperimentConfig(
            variant=Variant.MAX, T=720, k=120, beta_frac=0.05, noise=noise, trials=50, seed=42
        )
        bounds = trace_bounds(ds)
        prices = np.empty((cfg.trials, cfg.T))
        tracemalloc.start()
        try:
            records, failure = experiment.sample_pass(cfg, ds, bounds, 0, prices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failure is None and len(records) == cfg.trials
        if noise > 1:
            assert any(record["floored_values"] for record in records)
        assert peak < 2 * prices.nbytes

    @pytest.mark.parametrize("change, message", [
        (dict(T=5000), "segment length 5000 exceeds trace length 2160"),
        (dict(beta_frac=1e307), "beta must be finite and nonnegative, got inf"),
    ])
    def test_run_wide_errors_raise_before_trial_0(self, monkeypatch, change, message):
        def reached(*args):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(experiment, "sample_pass", reached)
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(**{**dict(variant=Variant.MIN, T=48, beta=None, beta_frac=0.05,
                                         trials=3), **change})
        with pytest.raises(ParameterError) as info:
            run_experiment(cfg, ds)
        assert str(info.value) == message


class TestSweep:
    def test_beta_zero_column_is_ksearch(self):
        rows = sweep_ratios(Variant.MIN, 4, 20.0, [0.0, 1.0], [2.0, 5.0])
        for L, beta, ratio in rows:
            if beta == 0.0:
                assert ratio == pytest.approx(
                    ksearch_thresholds(4, 20.0, L, Variant.MIN).ratio, abs=1e-12
                )

    def test_max_inf_cells(self):
        rows = sweep_ratios(Variant.MAX, 2, 20.0, [0.5, 3.0, 10.0], [1.0, 4.0])
        for L, beta, ratio in rows:
            if 2 * beta >= 2 * L:
                assert ratio == "inf"
            else:
                assert isinstance(ratio, float)

    def test_min_degenerate_cells(self):
        rows = sweep_ratios(Variant.MIN, 2, 10.0, [0.5, 4.0, 6.0], [2.0, 9.0])
        for L, beta, ratio in rows:
            if 2 * beta >= 10.0 - L:
                assert ratio == "degenerate"
            else:
                assert isinstance(ratio, float)

    @pytest.mark.parametrize("variant, k, U, L", [(Variant.MIN, 10, 30.0, 5.0),
                                                   (Variant.MAX, 10, 30.0, 1.0),
                                                   (Variant.MAX, 4, 30.0, 5.0)])
    def test_cells_on_and_one_ulp_below_the_regime_edge(self, variant, k, U, L):
        # a cell on the edge is a sentinel; one ulp below it is solved
        edge = (U - L) / 2 if variant is Variant.MIN else k * L / 2
        below = math.nextafter(edge, 0)
        on_edge, solved = sweep_ratios(variant, k, U, [edge, below], [L])
        assert on_edge == (L, edge, "degenerate" if variant is Variant.MIN else "inf")
        solve = solve_alpha if variant is Variant.MIN else solve_omega
        assert solved == (L, below, solve(k, U, L, below))

    @pytest.mark.parametrize(
        "k, U", [(0, 30.0), (2.5, 30.0), (math.nan, 30.0), (math.inf, 30.0), (1, math.inf)]
    )
    def test_k_and_u_are_checked_before_any_cell(self, k, U):
        # 2 * beta >= kL on every finite-k cell, so each would be a sentinel
        with pytest.raises(ParameterError, match="k must be a positive integer|need 0 < U < inf"):
            sweep_ratios(Variant.MAX, k, U, [40.0], [1.0, 2.0])

    @pytest.mark.parametrize("variant", [Variant.MIN, Variant.MAX])
    @pytest.mark.parametrize(
        "beta_grid, l_grid, message",
        [
            ([0.0, 1.0], [2.0, 5.0, 25.0], "grid L=25.0 outside (0, U=20.0]"),
            ([0.0, 1.0], [2.0, 0.0], "grid L=0.0 outside (0, U=20.0]"),
            ([0.0, 1.0, -0.5], [2.0, 5.0], "grid beta=-0.5 negative"),
            # the first L is checked before the betas, and the betas before
            # the other L's
            ([0.0, -1.0], [25.0, 2.0], "grid L=25.0 outside (0, U=20.0]"),
            ([0.0, -1.0, -2.0], [2.0, 25.0], "grid beta=-1.0 negative"),
            # no L, no cell: nothing is checked, and the grid has no rows
            ([0.0, -1.0], [], None),
        ],
    )
    def test_bad_cell_after_valid_cells_raises_its_parameter_error(
        self, variant, beta_grid, l_grid, message, monkeypatch
    ):
        # the first bad L or beta in grid order names itself, even with
        # solvable cells before it, and no cell is solved first
        def solved(variant, cells):
            if list(cells):
                raise AssertionError("a cell was solved before the grid was checked")
            return []

        monkeypatch.setattr(experiment, "solve_ratios", solved)
        if message is None:
            assert sweep_ratios(variant, 4, 20.0, beta_grid, l_grid) == []
            return
        with pytest.raises(ParameterError) as excinfo:
            sweep_ratios(variant, 4, 20.0, beta_grid, l_grid)
        assert excinfo.type is ParameterError
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "l_grid, message",
        [
            # theta = 2**2.5 solves at beta 0, and theta = 2**402.5 does not:
            # omega = sqrt(theta) lies past the last doubled bracket
            ([2.0**400, 1.0], "beta must be finite and nonnegative, got nan"),
            ([1.0, 2.0**400], "omega root bracket did not close; ratio diverges"),
        ],
    )
    def test_first_failing_cell_in_grid_order_raises(self, l_grid, message):
        # a NaN beta passes the grid check (it is not negative) and fails its
        # solve; of the grid's failing cells the first in grid order raises
        with pytest.raises(OprError) as excinfo:
            sweep_ratios(Variant.MAX, 1, 2.0**402.5, [0.0, math.nan], l_grid)
        assert str(excinfo.value) == message

    def test_alpha_nonincreasing_in_l(self):
        l_grid = [1.0, 2.0, 4.0, 8.0]
        rows = sweep_ratios(Variant.MIN, 3, 20.0, [0.5], l_grid)
        vals = [r for (_, _, r) in rows]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_omega_nondecreasing_in_theta(self):
        l_grid = [1.0, 2.0, 4.0, 8.0]  # theta decreases along this grid
        rows = sweep_ratios(Variant.MAX, 3, 20.0, [0.5], l_grid)
        vals = [r for (_, _, r) in rows]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@functools.cache
def _parsed(path, kind):
    return parse_trace(str(path), kind)


class TestReferenceSimulate:
    """`run_experiment`'s records equal the one-trial-at-a-time records of
    ``tests/reference_simulate.py``, which plays each player by `run_online`
    and finds OPT by exhaustive search."""

    @staticmethod
    def _outcome(run):
        try:
            return list(run())
        except OprError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("noise", [1.0, 3.0])
    @pytest.mark.parametrize(
        "variant, trace, kind, beta_frac",
        [
            # beta_frac 0.05 sits below every trial's min edge (U - L)/2, and
            # 0.49 above it on some trials and below it on others
            *((Variant.MIN, trace, TraceKind.INTENSITY, frac)
              for trace in (SHIPPED_INTENSITY, SHIPPED_CARBONFREE) for frac in (0.05, 0.49)),
            # at noise 3, beta_frac 0.05 reaches a trial's kL/2, which fails
            # its DTPR and k-search families
            *((Variant.MAX, SHIPPED_CARBONFREE, TraceKind.CARBON_FREE_PCT, frac)
              for frac in (0.0005, 0.05)),
        ],
    )
    def test_records_equal_the_reference(self, variant, trace, kind, beta_frac, noise):
        cfg = ExperimentConfig(variant=variant, T=12, k=3, beta_frac=beta_frac, noise=noise,
                               trials=8, seed=5)
        self._check(cfg, _parsed(trace, kind))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_drawn_runs_equal_the_reference(self, data):
        trace, kind = data.draw(st.sampled_from([
            (SHIPPED_INTENSITY, TraceKind.INTENSITY),
            (SHIPPED_CARBONFREE, TraceKind.CARBON_FREE_PCT),
            *((None, kind) for kind in TraceKind)]))
        if trace is None:
            shape = {} if kind is TraceKind.INTENSITY else dict(amp=25.0, mean=55.0)
            ds = synthetic_diurnal(hours=data.draw(st.integers(12, 48)), kind=kind,
                                   seed=data.draw(st.integers(0, 99)), **shape)
        else:
            ds = _parsed(trace, kind)
        T = data.draw(st.integers(1, 12))
        cfg = ExperimentConfig(
            variant=data.draw(st.sampled_from(Variant)), T=T,
            k=data.draw(st.integers(1, min(T, 3))),
            # before noise, the min clip edge (U - L)/2 is 0.14 to 0.49 of the
            # trace-wide U of these traces
            beta_frac=data.draw(st.sampled_from([0.0, 0.0005, 0.05, 0.2, 0.4, 0.49, 0.6])),
            noise=data.draw(st.sampled_from([1.0, 2.0, 3.0])), trials=data.draw(st.integers(1, 6)),
            seed=data.draw(st.integers(0, 2**32)),
            algs=tuple(data.draw(st.lists(st.sampled_from(experiment.ALG_NAMES), min_size=1,
                                          max_size=4, unique=True))),
        )
        # a budget of `per_pass` trials a lane pass, as `pass_len` sizes one
        per_pass = data.draw(st.integers(1, cfg.trials))
        trial_bytes = 9 * T + len(cfg.algs) * (16 * (cfg.k + 1) + 2 * T)
        with mock.patch.object(experiment, "_PASS_BYTES", per_pass * trial_bytes):
            assert experiment.pass_len(T, cfg.k, len(cfg.algs)) == per_pass
            self._check(cfg, ds)

    def _check(self, cfg, ds):
        got = self._outcome(lambda: run_experiment(cfg, ds).trials)
        want = self._outcome(lambda: reference_records(cfg, ds))
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got) == len(want) == cfg.trials
        for record, ref in zip(got, want):
            if record["opt_total"] != ref["opt_total"]:
                # two optima of equal cost, whose totals sum other prices
                assert record["opt_total"] == pytest.approx(ref["opt_total"], rel=1e-12, abs=0)
                ratios = {name: alg["ratio"] for name, alg in ref["algs"].items()}
                for name, alg in record["algs"].items():
                    assert alg["ratio"] == pytest.approx(ratios[name], rel=1e-12, abs=0)
                    alg["ratio"] = ratios[name]
                record["opt_total"] = ref["opt_total"]
            assert record == ref

    def test_reference_grid_meets_every_adjustment(self):
        # the grid above clips, floors, widens and fails somewhere
        intensity = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(variant=Variant.MIN, T=12, k=3, beta_frac=0.49, noise=3.0,
                               trials=8, seed=5)
        records = reference_records(cfg, intensity)
        assert {r["algs"]["dtpr"]["beta_clipped"] for r in records} == {False, True}
        assert {r["bounds_widened"] for r in records} == {False, True}
        assert sum(r["floored_values"] for r in records) > 0
        carbonfree = parse_trace(str(SHIPPED_CARBONFREE), TraceKind.CARBON_FREE_PCT)
        cfg = ExperimentConfig(variant=Variant.MAX, T=12, k=3, beta_frac=0.05, noise=3.0,
                               trials=8, seed=5)
        with pytest.raises(RegimeError, match=r"^trial 5: beta=\S+ >= kL/2="):
            reference_records(cfg, carbonfree)
