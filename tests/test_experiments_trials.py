"""Unit tests for the Section 7 trial harness."""

import dataclasses
import gc
import math
import weakref

import pytest

from repro.cluster.fused import FusedFleet
from repro.cluster.machine import Machine
from repro.cluster.task import PriorityBand
from repro.experiments import trials
from repro.experiments.trials import TrialConfig, TrialResult, run_trial, run_trials
from tests.reference import trials as reference_trials

#: Short phases so each trial takes well under a second.
FAST = TrialConfig(calibration_seconds=300, interference_seconds=420,
                   cap_seconds=120)


@pytest.fixture(scope="module")
def some_trials():
    return run_trials(8, FAST)


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(5, FAST)
        b = run_trial(5, FAST)
        assert a.pre_cpi == b.pre_cpi
        assert a.top_correlation == b.top_correlation
        assert a.band == b.band

    def test_different_seeds_differ(self):
        a = run_trial(5, FAST)
        b = run_trial(6, FAST)
        assert (a.pre_cpi, a.num_tenants) != (b.pre_cpi, b.num_tenants)

    def test_result_sanity(self, some_trials):
        for trial in some_trials:
            assert trial.spec_mean > 0
            assert trial.spec_stddev >= 0.03 * trial.spec_mean
            assert trial.pre_cpi > 0
            assert trial.post_cpi > 0
            assert 0.0 <= trial.utilization <= 2.0
            assert -1.0 <= trial.top_correlation <= 1.0
            assert trial.num_tenants >= 3

    def test_antagonist_mix(self, some_trials):
        flags = {t.has_antagonist for t in some_trials}
        assert flags == {True, False} or len(some_trials) < 6

    def test_band_mix(self, some_trials):
        bands = {t.band for t in some_trials}
        assert PriorityBand.PRODUCTION in bands

    def test_antagonist_trials_name_it(self, some_trials):
        for trial in some_trials:
            if trial.has_antagonist and trial.picked_true_antagonist:
                assert trial.top_suspect_job.startswith("antagonist")


def _canon(result: TrialResult) -> list:
    """Every field of a trial result, floats by ``float.hex``."""
    return [(f.name, value.hex() if isinstance(value, float) else value)
            for f in dataclasses.fields(result)
            for value in [getattr(result, f.name)]]


class TestStepping:
    """``run_trial`` advances its machine a sampling window at a time; the
    oracle ``tests/reference/trials.py`` ticks it and its sampler at every
    second."""

    def test_matches_per_second_oracle(self, monkeypatch):
        placed: list[str] = []
        place = Machine.place

        def recording_place(machine, task):
            placed.append(task.job.name)
            place(machine, task)

        monkeypatch.setattr(Machine, "place", recording_place)
        seeds = range(40)
        results = [run_trial(seed) for seed in seeds]
        monkeypatch.setattr(trials, "advance_sampled",
                            reference_trials.advance_sampled)
        for seed, result in zip(seeds, results):
            assert _canon(result) == _canon(run_trial(seed))
        # The seeds cover every kind of trial.
        assert any(r.has_antagonist for r in results)
        assert any(not r.has_antagonist for r in results)
        assert any(r.band is PriorityBand.NONPRODUCTION for r in results)
        assert any(r.band is PriorityBand.PRODUCTION for r in results)
        assert placed.count("antagonist-2") >= 4

    def test_first_machine_call_is_one_tick(self, monkeypatch):
        """``benchmarks/perf`` times a trial's construction by stopping it
        at its first ``Machine.tick``: that must be the trial's first
        machine call, and its only tick."""
        calls: list[tuple[str, int]] = []
        tick, advance = Machine.tick, Machine.advance

        def recording_tick(machine, t):
            calls.append(("tick", t))
            return tick(machine, t)

        def recording_advance(machine, t0, t1):
            calls.append(("advance", t0))
            return advance(machine, t0, t1)

        monkeypatch.setattr(Machine, "tick", recording_tick)
        monkeypatch.setattr(Machine, "advance", recording_advance)
        for seed in (1, 2):
            calls.clear()
            run_trial(seed, FAST)
            assert calls[0] == ("tick", 0)
            assert [c for c in calls if c[0] == "tick"] == [("tick", 0)]
            assert len(calls) > 1


    def test_finished_trial_is_freed_without_the_collector(self,
                                                           monkeypatch):
        """With the cyclic collector off, every fleet a trial built is
        gone when ``run_trial`` returns: reference counting frees it."""
        fleets: list = []
        init = FusedFleet.__init__

        def recording_init(fleet, machines):
            init(fleet, machines)
            fleets.append(weakref.ref(fleet))

        monkeypatch.setattr(FusedFleet, "__init__", recording_init)
        gc.collect()
        gc.disable()
        try:
            run_trial(3, FAST)
            assert fleets
            assert [ref() for ref in fleets] == [None] * len(fleets)
        finally:
            gc.enable()


class TestDerivedMetrics:
    def make(self, **kwargs):
        defaults = dict(
            seed=0, band=PriorityBand.PRODUCTION, has_antagonist=True,
            antagonist_kind="video-processing", num_tenants=5,
            utilization=0.5, spec_mean=1.0, spec_stddev=0.1,
            anomaly_detected=True, pre_cpi=2.0, top_suspect="a/0",
            top_suspect_job="antagonist", top_correlation=0.5,
            picked_true_antagonist=True, post_cpi=1.0,
            pre_l3_mpi=0.004, post_l3_mpi=0.002)
        defaults.update(kwargs)
        return TrialResult(**defaults)

    def test_relative_cpi(self):
        assert self.make().relative_cpi == pytest.approx(0.5)

    def test_degradation(self):
        assert self.make().cpi_degradation == pytest.approx(2.0)

    def test_sigmas(self):
        assert self.make().cpi_increase_sigmas == pytest.approx(10.0)

    def test_relative_l3(self):
        assert self.make().relative_l3 == pytest.approx(0.5)

    def test_classify_tp(self):
        assert self.make(post_cpi=1.0).classify() == "tp"

    def test_classify_fp(self):
        assert self.make(post_cpi=2.2).classify() == "fp"

    def test_classify_noise(self):
        assert self.make(post_cpi=1.95).classify() == "noise"
        assert self.make(post_cpi=2.05).classify() == "noise"

    def test_nan_on_zero_pre(self):
        assert math.isnan(self.make(pre_cpi=0.0).relative_cpi)


class TestRunTrials:
    def test_count_and_seeds(self):
        trials = run_trials(3, FAST, seed_base=100)
        assert [t.seed for t in trials] == [100, 101, 102]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(0, FAST)
