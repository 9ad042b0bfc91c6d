"""Unit tests for the perf toolkit: stage timers, cProfile wrapper, the
sampler fast-forward, cached iteration order, matrix-backed counters, and
the fused-fleet eligibility/fallback rules."""

from types import MethodType

import numpy as np
import pytest

from repro.cluster.fused import FusedFleet, fused_eligible
from repro.cluster.machine import Machine
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.perf.counters import EVENT_ORDER, CounterBank
from repro.perf.events import CounterEvent
from repro.perf.profiling import StageTimers, profile_call
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro import get_platform
from repro.testing import make_quiet_machine, make_scripted_job
from tests.reference import tick as reference_tick


class TestStageTimers:
    def test_stage_accumulates_and_counts(self):
        timers = StageTimers()
        with timers.stage("a"):
            pass
        with timers.stage("a"):
            pass
        report = timers.report()
        assert report["a"]["calls"] == 2
        assert report["a"]["seconds"] >= 0.0
        assert timers.total_seconds() == timers.seconds("a")

    def test_add_folds_external_time(self):
        timers = StageTimers()
        timers.add("x", 1.5)
        timers.add("x", 0.5, calls=3)
        assert timers.seconds("x") == 2.0
        assert timers.report()["x"]["calls"] == 4

    def test_report_sorted_by_descending_time(self):
        timers = StageTimers()
        timers.add("small", 1.0)
        timers.add("big", 5.0)
        assert list(timers.report()) == ["big", "small"]

    def test_render_and_reset(self):
        timers = StageTimers()
        assert timers.render() == "(no stages timed)"
        timers.add("stage", 2.0)
        assert "stage" in timers.render()
        timers.reset()
        assert timers.seconds("stage") == 0.0

    def test_validation(self):
        timers = StageTimers()
        with pytest.raises(ValueError, match="seconds"):
            timers.add("x", -1.0)
        with pytest.raises(ValueError, match="calls"):
            timers.add("x", 1.0, calls=-1)


class TestProfileCall:
    def test_returns_result_and_stats(self):
        result, stats = profile_call(lambda: sum(range(100)))
        assert result == 4950
        assert "function calls" in stats

    def test_dumps_stats_file(self, tmp_path):
        path = tmp_path / "run.pstats"
        _, _ = profile_call(lambda: None, stats_path=str(path))
        assert path.exists() and path.stat().st_size > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="limit"):
            profile_call(lambda: None, limit=0)


class TestSamplerFastForward:
    @pytest.mark.parametrize(
        "config", [SamplerConfig(), SamplerConfig(7, 7), SamplerConfig(3, 20)],
        ids=["paper", "back-to-back", "short"])
    def test_window_edge_schedule_skips_only_noop_seconds(self, config):
        """Ticking a sampler only at the seconds the simulation's schedule
        (``SamplerConfig.acts_at``) names must not change the stream."""
        def build():
            machine = make_quiet_machine()
            job = make_scripted_job("j", [1.0, 2.0], cpu_limit=4.0)
            machine.place(job.tasks[0])
            return machine, CpiSampler(machine, config)

        m1, every_second = build()
        m2, fast_forward = build()
        full, skipped = [], []
        for t in range(200):
            m1.tick(t)
            m2.tick(t)
            full.extend(every_second.tick(t).to_samples())
            if config.acts_at(t):
                skipped.extend(fast_forward.tick(t).to_samples())
        assert full  # windows actually closed
        assert ([(s.timestamp, s.cpi, s.cpu_usage) for s in full]
                == [(s.timestamp, s.cpi, s.cpu_usage) for s in skipped])

    def test_simulation_ticks_samplers_only_at_window_edges(self, monkeypatch):
        sim = _sim(2)
        ticked = []
        real = CpiSampler.tick

        def counting(sampler, t):
            ticked.append(t)
            return real(sampler, t)

        monkeypatch.setattr(CpiSampler, "tick", counting)
        sim.run(125)
        assert sorted(set(ticked)) == [0, 10, 60, 70, 120]
        assert len(ticked) == 2 * 5

    def test_foreign_sampler_config_raises(self):
        sim = _sim(2)
        sim.step()
        machine = sim.machines["m1"]
        sim.samplers["m1"] = CpiSampler(machine, SamplerConfig(5, 30))
        sim.invalidate_iteration_order()
        with pytest.raises(ValueError, match="SimConfig.sampler"):
            sim.step()

    def test_equal_sampler_config_is_shared(self):
        sim = _sim(2)
        machine = sim.machines["m1"]
        sim.samplers["m1"] = CpiSampler(machine, SamplerConfig())
        sim.run(11)
        assert sim.now == 11


def _bind_reference_tick(machine):
    """``machine``, ticking the scalar reference loop bound on its instance."""
    machine.tick = MethodType(reference_tick.tick, machine)
    return machine


def _sim(num_machines, reference=False):
    machines = [Machine(f"m{i}", get_platform("westmere-2.6"),
                        cpi_noise_sigma=0.0)
                for i in range(num_machines)]
    if reference:
        for machine in machines:
            _bind_reference_tick(machine)
    return ClusterSimulation(machines, SimConfig(seed=1))


class TestCachedIterationOrder:
    def test_order_cached_after_first_step(self):
        sim = _sim(2)
        sim.step()
        assert sim._machine_order is not None
        cached = sim._machine_order
        sim.step()
        assert sim._machine_order is cached

    def test_invalidate_drops_cache_and_fleet(self):
        sim = _sim(2)
        sim.step()
        sim.invalidate_iteration_order()
        assert sim._machine_order is None
        assert sim._fleet is None

    def test_added_machine_picked_up_after_invalidate(self):
        sim = _sim(2)
        sim.step()
        extra = Machine("m9", get_platform("westmere-2.6"))
        extra.rng = np.random.default_rng(0)
        sim.machines["m9"] = extra
        sim.samplers["m9"] = CpiSampler(extra, sim.config.sampler)
        sim.invalidate_iteration_order()
        results = sim.step()
        assert set(results) == {"m0", "m1", "m9"}

    def test_length_change_detected_without_invalidate(self):
        sim = _sim(2)
        sim.step()
        extra = Machine("m9", get_platform("westmere-2.6"))
        extra.rng = np.random.default_rng(0)
        sim.machines["m9"] = extra
        sim.samplers["m9"] = CpiSampler(extra, sim.config.sampler)
        results = sim.step()
        assert "m9" in results


class TestMatrixCounters:
    def test_matrix_view_shares_storage(self):
        bank = CounterBank()
        first = bank.matrix_view(["a"])
        first[0, EVENT_ORDER.index(CounterEvent.CPU_CLK_UNHALTED_REF)] = 10.0
        matrix = bank.matrix_view(["a", "b"])
        assert matrix.shape == (2, len(EVENT_ORDER))
        events = np.ones_like(matrix)
        bank.burn_matrix(matrix, events)
        assert bank.counters_for("a").read(CounterEvent.CPU_CLK_UNHALTED_REF) == 11.0
        assert bank.counters_for("b").read(
            CounterEvent.INSTRUCTIONS_RETIRED) == 1.0

    def test_burn_matrix_validation(self):
        bank = CounterBank()
        matrix = bank.matrix_view(["a"])
        bad = np.ones((1, len(EVENT_ORDER)))
        with pytest.raises(ValueError, match="shape"):
            bank.burn_matrix(matrix, np.ones((2, len(EVENT_ORDER))))
        for poison in (-1.0, float("nan"), float("inf")):
            events = bad.copy()
            events[0, 0] = poison
            with pytest.raises(ValueError):
                bank.burn_matrix(matrix, events)


class TestFusedEligibility:
    def test_fresh_vector_machine_is_eligible(self):
        assert fused_eligible(Machine("m", get_platform("westmere-2.6")))

    def test_instance_patched_tick_is_not(self):
        machine = Machine("m", get_platform("westmere-2.6"))
        machine.tick = lambda t: None
        assert not fused_eligible(machine)

    def test_subclass_override_is_not(self):
        class Custom(Machine):
            def tick(self, t):
                return super().tick(t)

        assert not fused_eligible(Custom("m", get_platform("westmere-2.6")))

    def test_build_rejects_mixed_fleets(self):
        ok = Machine("a", get_platform("westmere-2.6"))
        bad = _bind_reference_tick(Machine("b", get_platform("westmere-2.6")))
        for m in (ok, bad):
            m.rng = np.random.default_rng(0)
        assert FusedFleet.build([("a", ok), ("b", bad)]) is None

    def test_simulation_falls_back_for_legacy_fleet(self):
        sim = _sim(2, reference=True)
        results = sim.step()
        assert sim._fleet is None
        assert set(results) == {"m0", "m1"}

    def test_simulation_fuses_vector_fleet(self):
        sim = _sim(2)
        results = sim.step()
        assert sim._fleet is not None
        assert set(results) == {"m0", "m1"}
