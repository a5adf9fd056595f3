"""Experiment runner, statistics, and the ratio sweep."""

import math
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr.algorithms import PlayerKind
from opr.core import CostBreakdown, Instance, Variant
from opr import experiment, offline
from opr.errors import DegenerateProfitError, OprError, ParameterError, RegimeError
from opr.experiment import (
    ExperimentConfig,
    default_k,
    derive_seed,
    empirical_cr,
    resolve_player_kind,
    run_experiment,
    run_trial,
    summarize,
    sweep_ratios,
)
from opr.thresholds import ksearch_thresholds, solve_alpha
from opr.traces import (
    TraceDataset,
    TraceKind,
    parse_trace,
    sample_segment_with_offset,
    synthetic_diurnal,
    trace_bounds,
)


def cb(total):
    return CostBreakdown(accepted_sum=total, switching_cost=0, total=total, num_switches=0)


class TestEmpiricalCr:
    def test_min(self):
        assert empirical_cr(cb(12), cb(6), Variant.MIN) == 2.0

    def test_max(self):
        assert empirical_cr(cb(5), cb(10), Variant.MAX) == 2.0

    def test_degenerate_profit(self):
        with pytest.raises(DegenerateProfitError):
            empirical_cr(cb(0), cb(10), Variant.MAX)


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
        assert default_k(48) == 8
        assert ExperimentConfig(
            variant=Variant.MIN, T=48, beta=1.0
        ).resolved_k() == 8

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


class TestFamilyMemo:
    """run_experiment reuses each algorithm's threshold family while (L, U)
    repeats between consecutive trials; the records must not show it."""

    @staticmethod
    def _check_against_fresh_trials(cfg, ds):
        res = run_experiment(cfg, ds)
        bounds = trace_bounds(ds)
        beta_abs = cfg.beta if cfg.beta is not None else cfg.beta_frac * bounds.U
        kinds = [resolve_player_kind(name) for name in cfg.algs]
        for trial, rec in enumerate(res.trials):
            assert rec == run_trial(cfg, ds, bounds, trial, beta_abs, kinds)
        return res.trials

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
        # at noise 1 every trial keeps the trace-wide (L, U); widening trial
        # 2's U makes trials 0..3 meet (L, U) as A, A, B, A.  The memo lives
        # for one pass, so a pass boundary builds the rails again.
        sample = experiment.sample_pass

        def widened(cfg, ds, bounds, start, prices):
            records, failure = sample(cfg, ds, bounds, start, prices)
            for rec in records:
                if rec["trial"] == 2:
                    rec.update(instance_u=rec["instance_u"] + 1.0, bounds_widened=True)
            return records, failure

        built, family = [], experiment.player_family

        def spy(kind, *args):
            built.append(kind)
            return family(kind, *args)

        monkeypatch.setattr(experiment, "sample_pass", widened)
        monkeypatch.setattr(experiment, "player_family", spy)
        trial_bytes = 9 * 24 + 4 * (16 * 5 + 2 * 24)
        monkeypatch.setattr(experiment, "_PASS_BYTES", per_pass * trial_bytes + trial_bytes - 1)
        assert experiment.pass_len(24, 4, 4) == per_pass
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, k=4, beta_frac=0.05, noise=1.0, trials=4, seed=1
        )
        res = run_experiment(cfg, ds)
        bounds = [(rec["instance_l"], rec["instance_u"]) for rec in res.trials]
        assert bounds[0] == bounds[1] == bounds[3] != bounds[2]
        kinds = [resolve_player_kind(name) for name in cfg.algs]
        assert built == [kind for _ in range(builds) for kind in kinds]
        trace = trace_bounds(ds)
        for trial, rec in enumerate(res.trials):
            assert rec == run_trial(cfg, ds, trace, trial, cfg.beta_frac * trace.U, kinds)


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
        bounds = trace_bounds(ds)
        kinds = [resolve_player_kind(name) for name in cfg.algs]
        for trial, rec in enumerate(res.trials):
            assert rec == run_trial(cfg, ds, bounds, trial, cfg.beta_frac * bounds.U, kinds)

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
        with pytest.raises(ParameterError, match=r"^trial 2: beta=4\.9479"):
            run_experiment(cfg, ds)
        assert scored == [0, 1, 2]

    def test_identically_zero_segment_fails_its_own_trial(self, monkeypatch):
        # a run of 4 zero hours: the only window of T=4 inside it stays zero
        # under noise, so its trial fails after every earlier trial is scored
        values = [100.0 + i % 7 for i in range(40)]
        values[10:14] = [0.0] * 4
        start = datetime(2021, 1, 1, tzinfo=timezone.utc)
        ds = TraceDataset(
            region="zeros", timestamps=tuple(start + timedelta(hours=i) for i in range(40)),
            values=tuple(values), kind=TraceKind.INTENSITY,
        )
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
        # before ksearch in trial 4; an earlier scoring failure wins
        ds = parse_trace(str(SHIPPED_INTENSITY), TraceKind.INTENSITY)
        cfg = ExperimentConfig(
            variant=Variant.MIN, T=24, beta=1.0, noise=3.0, trials=8, seed=0,
            algs=("dtpr", "ksearch", "const"),
        )
        bounds = [(r["instance_l"], r["instance_u"]) for r in run_experiment(cfg, ds).trials]
        assert bounds[3] != bounds[4]
        build, built = experiment.player_family, []

        def failing_family(kind, k, U, L, beta, variant):
            if kind is PlayerKind.KSEARCH and (L, U) == bounds[4]:
                raise RegimeError("cannot build")
            built.append(kind)
            return build(kind, k, U, L, beta, variant)

        monkeypatch.setattr(experiment, "player_family", failing_family)
        lanes, complete = [], experiment._complete_record

        def spy(record, prices, opt, trial_lanes, *args):
            lanes.append((record["trial"], len(trial_lanes)))
            if record["trial"] == fail_score:
                raise OprError("cannot score")
            return complete(record, prices, opt, trial_lanes, *args)

        monkeypatch.setattr(experiment, "_complete_record", spy)
        reported = 4 if fail_score is None else fail_score
        message = "cannot build" if fail_score is None else "cannot score"
        with pytest.raises(OprError, match=f"^trial {reported}: {message}$"):
            run_experiment(cfg, ds)
        # trial 4 is played for dtpr only; const is never built there
        assert lanes == [(t, 3) for t in range(min(reported + 1, 4))] + (
            [(4, 1)] if reported == 4 else []
        )
        assert built[-1] is PlayerKind.DTPR


def _parent_trial_bounds(segment, bounds):
    """The per-trial widening/flooring rule that `sample_pass` replaced."""
    seg_min = min(segment)
    seg_max = max(segment)
    floored = 0
    prices = tuple(segment)
    if seg_min <= 0:
        positive = [v for v in segment if v > 0]
        if not positive:
            raise OprError("noised segment is identically zero; instance undefined")
        floor = min(positive)
        prices = tuple(v if v > 0 else floor for v in segment)
        floored = sum(1 for v in segment if v <= 0)
        seg_min = floor
    L = min(bounds.L, seg_min)
    U = max(bounds.U, seg_max)
    widened = L < bounds.L or U > bounds.U
    return prices, L, U, widened, floored


def _parent_sample_trial(cfg, ds, bounds, trial, beta_abs):
    """One trial's instance and record, as sampled before `sample_pass`:
    window, tuple noise, bounds rule, then a checked `Instance`."""
    seed = derive_seed(cfg.seed, trial)
    segment, offset = sample_segment_with_offset(ds, cfg.T, seed)
    vals = tuple(float(v) for v in segment)
    mu = math.fsum(vals) / len(vals)
    with np.errstate(over="ignore"):
        out = np.maximum(mu + float(cfg.noise) * (np.array(vals) - mu), 0.0)
    if ds.kind is TraceKind.CARBON_FREE_PCT:
        out = np.minimum(out, 100.0)
    prices, L, U, widened, floored = _parent_trial_bounds(tuple(out.tolist()), bounds)
    inst = Instance(
        k=cfg.resolved_k(), T=cfg.T, L=L, U=U, beta=beta_abs, variant=cfg.variant, prices=prices
    )
    return inst, dict(trial=trial, seed=seed, offset=offset, instance_l=L, instance_u=U,
                      bounds_widened=widened, floored_values=floored)


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
    start = datetime(2021, 1, 1, tzinfo=timezone.utc)
    ds = TraceDataset(
        region="", timestamps=tuple(start + timedelta(hours=i) for i in range(len(values))),
        values=tuple(values), kind=kind,
    )
    return cfg, ds, draw(st.integers(1, trials))


class TestSamplePass:
    """`sample_pass` gives, row by row, the bits, records and errors of the
    per-trial sampler it replaced."""

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
                inst, record = _parent_sample_trial(cfg, ds, bounds, trial, cfg.beta)
                expected.append(([p.hex() for p in inst.prices], record))
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

    @pytest.mark.parametrize(
        "k, U", [(0, 30.0), (2.5, 30.0), (math.nan, 30.0), (math.inf, 30.0), (1, math.inf)]
    )
    def test_k_and_u_are_checked_before_any_cell(self, k, U):
        # 2 * beta >= kL on every finite-k cell, so each would be a sentinel
        with pytest.raises(ParameterError, match="k must be a positive integer|need 0 < U < inf"):
            sweep_ratios(Variant.MAX, k, U, [40.0], [1.0, 2.0])

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
