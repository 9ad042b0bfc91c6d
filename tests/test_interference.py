"""The contention model, observed through the production tick.

Each test places scripted tasks on a noiseless (sigma = 0) machine, runs
one ``Machine.tick`` and reads what the model produced: the tick's CPIs and
the counter deltas it burned.  Inflation is ``cpi / (base_cpi *
cpi_scale) - 1`` for a task without a cold-start penalty; the pressure a
task feels from its co-runners is recovered from a probe whose CPI responds
to cache pressure alone (sensitivity 1, no appetite of its own), by
inverting the saturation ``x = p / (1 + 0.35 p)``.
"""

import math

import pytest

from repro.cluster.demandplane import DemandColumns
from repro.cluster.fused import FusedFleet
from repro.cluster.interference import InterferenceModel, ResourceProfile
from repro.cluster.job import Job, JobSpec
from repro.cluster.platform import get_platform
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.perf.events import CounterEvent
from repro.testing import (NOISY_NEIGHBOR_PROFILE, QUIET_PROFILE,
                           SENSITIVE_PROFILE, make_quiet_machine,
                           make_scripted_job)
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant

WESTMERE = get_platform("westmere-2.6")

#: Feels cache pressure one for one, exerts none of its own.
PROBE_PROFILE = ResourceProfile(cache_mib_per_cpu=0.0, membw_gbps_per_cpu=0.0,
                                cache_sensitivity=1.0, membw_sensitivity=0.0)

COLD_PROFILE = ResourceProfile(cache_mib_per_cpu=1.0, membw_gbps_per_cpu=1.0,
                               cold_start_penalty=4.0)


def _tick(tasks, platform=WESTMERE):
    """One tick of a noiseless machine holding ``tasks``.

    ``tasks`` are ``(job name, demand, profile, base CPI)``; returns
    ``{job name: (grant, cpi, l3 mpki, l2 mpki)}``, the miss rates read
    back from the counters the tick burned (NaN for an idle task).
    """
    machine = make_quiet_machine(platform=platform)
    placed = []
    for name, demand, profile, base_cpi in tasks:
        (task,) = make_scripted_job(name, [demand], cpu_limit=64.0,
                                    profile=profile, base_cpi=base_cpi).tasks
        machine.place(task)
        placed.append(task)
    result = machine.tick(0)
    out = {}
    for task in placed:
        counters = machine.counters.counters_for(task.cgroup.name)
        kilo = counters.read(CounterEvent.INSTRUCTIONS_RETIRED) / 1000.0
        l3 = counters.read(CounterEvent.L3_MISSES)
        l2 = counters.read(CounterEvent.L2_MISSES)
        out[task.job.name] = (
            result.grants[task.name], result.cpis[task.name],
            l3 / kilo if kilo else math.nan, l2 / kilo if kilo else math.nan)
    return out


def _one_task(name, workload):
    """The one task of a job running ``workload``."""
    (task,) = Job(JobSpec(
        name=name, num_tasks=1,
        scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
        priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
        workload_factory=lambda _: workload)).tasks
    return task


def _inflation(tasks, victim="v", base_cpi=1.5, platform=WESTMERE):
    """The victim's CPI inflation on a machine holding ``tasks``."""
    cpi = _tick(tasks, platform)[victim][1]
    return cpi / (base_cpi * platform.cpi_scale) - 1.0


def _pressure_on_probe(tasks, platform=WESTMERE):
    """The cache pressure ``tasks`` put on a probe placed beside them."""
    x = _inflation([("probe", 1.0, PROBE_PROFILE, 1.0), *tasks],
                   victim="probe", base_cpi=1.0, platform=platform)
    return x / (1.0 - 0.35 * x)


class TestResourceProfile:
    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError, match="cache_mib_per_cpu"):
            ResourceProfile(cache_mib_per_cpu=-1.0, membw_gbps_per_cpu=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "cache_mib_per_cpu", "membw_gbps_per_cpu", "cache_sensitivity",
        "membw_sensitivity", "base_l3_mpki", "cold_start_penalty"])
    def test_non_finite_fields_rejected(self, field, value):
        kwargs = dict(cache_mib_per_cpu=1.0, membw_gbps_per_cpu=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ResourceProfile(**kwargs)

    def test_defaults(self):
        p = ResourceProfile(cache_mib_per_cpu=1.0, membw_gbps_per_cpu=1.0)
        assert p.cache_sensitivity == 1.0
        assert p.cold_start_penalty == 0.0


class TestContention:
    def test_empty_machine_has_no_pressure(self):
        result = make_quiet_machine().tick(0)
        assert (result.grants, result.cpis) == ({}, {})
        assert _pressure_on_probe([]) == 0.0

    def test_pressure_scales_with_usage(self):
        p1 = _pressure_on_probe([("a", 1.0, NOISY_NEIGHBOR_PROFILE, 1.0)])
        p2 = _pressure_on_probe([("a", 2.0, NOISY_NEIGHBOR_PROFILE, 1.0)])
        assert p1 == pytest.approx(8.0 / WESTMERE.llc_mib)
        assert p2 == pytest.approx(2 * p1)

    def test_pressure_normalised_to_platform(self):
        small = get_platform("nehalem-2.3")     # 8 MiB LLC
        big = get_platform("sandybridge-2.9")   # 20 MiB LLC
        hog = [("a", 1.0, NOISY_NEIGHBOR_PROFILE, 1.0)]
        on_small = _pressure_on_probe(hog, small)
        on_big = _pressure_on_probe(hog, big)
        assert on_small > on_big
        assert on_small / on_big == pytest.approx(20.0 / 8.0)

    def test_others_excludes_own_contribution(self):
        # A hog that also feels cache pressure: alone it feels nothing of
        # its own, beside a twin it feels exactly the twin's share.
        hog = ResourceProfile(cache_mib_per_cpu=8.0, membw_gbps_per_cpu=0.0,
                              cache_sensitivity=1.0, membw_sensitivity=0.0)
        alone = _inflation([("a", 1.0, hog, 1.0)], victim="a", base_cpi=1.0)
        assert alone == 0.0
        x = _inflation([("a", 1.0, hog, 1.0), ("b", 1.0, hog, 1.0)],
                       victim="a", base_cpi=1.0)
        assert x / (1.0 - 0.35 * x) == pytest.approx(8.0 / WESTMERE.llc_mib)

    def test_idle_task_exerts_nothing(self):
        assert _pressure_on_probe([("a", 0.0, NOISY_NEIGHBOR_PROFILE, 1.0)]) \
            == 0.0

    def test_negative_usage_rejected(self):
        # A negative demand never reaches the model as usage: the tick
        # clamps it to a zero grant, which exerts no pressure.
        machine = make_quiet_machine()
        (probe,) = make_scripted_job("probe", [1.0], profile=PROBE_PROFILE)
        machine.place(probe)
        machine.place(_one_task("a", SyntheticWorkload(
            base_cpi=1.0, profile=NOISY_NEIGHBOR_PROFILE,
            demand=lambda t: -1.0)))
        result = machine.tick(0)
        assert result.grants["a/0"] == 0.0
        assert result.cpis["probe/0"] == WESTMERE.cpi_scale


class TestEffectiveCpi:
    def test_alone_equals_base_times_platform(self):
        for platform in (WESTMERE, get_platform("nehalem-2.3")):
            (grant, cpi, _, _), = _tick(
                [("v", 1.0, SENSITIVE_PROFILE, 1.5)], platform).values()
            assert cpi == pytest.approx(1.5 * platform.cpi_scale)

    def test_antagonist_inflates_victim(self):
        victim = ("v", 1.0, SENSITIVE_PROFILE, 1.5)
        cpi_with = _tick([victim, ("a", 4.0, NOISY_NEIGHBOR_PROFILE, 1.0)]
                         )["v"][1]
        cpi_alone = _tick([victim])["v"][1]
        assert cpi_with > cpi_alone * 1.5  # a hot antagonist hurts a lot

    def test_insensitive_victim_unaffected(self):
        cpi = _tick([("v", 1.0, QUIET_PROFILE, 1.0),
                     ("a", 4.0, NOISY_NEIGHBOR_PROFILE, 1.0)])["v"][1]
        assert cpi == pytest.approx(1.0 * WESTMERE.cpi_scale)

    def test_quiet_antagonist_harmless(self):
        # The CPU-spinner scenario: high usage, negligible footprint.
        spinner = ResourceProfile(cache_mib_per_cpu=0.05,
                                  membw_gbps_per_cpu=0.05)
        cpi = _tick([("v", 1.0, SENSITIVE_PROFILE, 1.5),
                     ("s", 8.0, spinner, 1.0)])["v"][1]
        assert cpi < 1.5 * WESTMERE.cpi_scale * 1.1

    def test_inflation_monotone_in_antagonist_usage(self):
        cpis = [_tick([("v", 1.0, SENSITIVE_PROFILE, 1.5),
                       ("a", usage, NOISY_NEIGHBOR_PROFILE, 1.0)])["v"][1]
                for usage in (0.5, 1.0, 2.0, 4.0)]
        assert cpis == sorted(cpis)
        assert cpis[-1] > cpis[0]

    def test_saturation_is_sublinear(self):
        def inflation(u):
            return _inflation([("v", 1.0, SENSITIVE_PROFILE, 1.5),
                               ("a", u, NOISY_NEIGHBOR_PROFILE, 1.0)])

        # Doubling pressure must less-than-double inflation.
        assert 0.0 < inflation(8.0) < 2 * inflation(4.0)

    def test_bad_base_cpi_rejected(self):
        # On the closures (a scripted workload) and on a compiled demand
        # program (whose base-CPI read is overridden).
        class ZeroCpi(SyntheticWorkload):
            def base_cpi(self):
                return 0.0

        closures = make_scripted_job("v", [1.0], base_cpi=0.0).tasks[0]
        compiled = _one_task("v", ZeroCpi(
            base_cpi=1.5, profile=QUIET_PROFILE, demand=constant(1.0)))
        for task in (closures, compiled):
            machine = make_quiet_machine()
            machine.place(task)
            fleet = FusedFleet((machine,))
            assert isinstance(fleet.demand_columns,
                              DemandColumns) == (task is compiled)
            with pytest.raises(ValueError, match="base_cpi"):
                machine.tick(0)


class TestColdStart:
    @staticmethod
    def _factor(usage, profile=COLD_PROFILE):
        (grant, cpi, _, _), = _tick([("v", usage, profile, 1.0)]).values()
        assert grant == usage
        return cpi / WESTMERE.cpi_scale

    def test_penalty_at_zero_usage(self):
        assert self._factor(0.0) == pytest.approx(5.0)

    def test_penalty_decays_with_usage(self):
        factors = [self._factor(u) for u in (0.0, 0.05, 0.25, 1.0)]
        assert factors == sorted(factors, reverse=True)
        assert factors[-1] == pytest.approx(1.0, abs=0.01)

    def test_no_penalty_configured(self):
        assert self._factor(0.0, QUIET_PROFILE) == 1.0

    def test_case3_magnitude(self):
        # Case 3: CPI fluctuated "from about 3 to about 10" as usage went
        # bimodal.  A cold-start penalty of ~4 with base ~1.4 spans that.
        low = self._factor(0.05)
        high_usage = self._factor(0.35)
        assert low / high_usage > 2.0


class TestMissRate:
    def test_baseline_when_alone(self):
        (_, _, l3, l2), = _tick([("v", 1.0, SENSITIVE_PROFILE, 1.5)]).values()
        assert l3 == pytest.approx(SENSITIVE_PROFILE.base_l3_mpki)
        assert l2 == pytest.approx(3.0 * SENSITIVE_PROFILE.base_l3_mpki)

    def test_miss_rate_tracks_inflation(self):
        # Figure 15c: relative L3 misses/instruction correlates with
        # relative CPI.  In-model the coupling is linear by construction;
        # the private L2 moves a quarter as much (Section 7.2).
        _, cpi, l3, l2 = _tick([("v", 1.0, SENSITIVE_PROFILE, 1.5),
                                ("a", 4.0, NOISY_NEIGHBOR_PROFILE, 1.0)])["v"]
        inflation = cpi / (1.5 * WESTMERE.cpi_scale) - 1.0
        assert inflation > 0.5
        base = SENSITIVE_PROFILE.base_l3_mpki
        assert l3 == pytest.approx(base * (1 + 0.9 * inflation))
        assert l2 == pytest.approx(3.0 * base * (1 + 0.25 * 0.9 * inflation))

    def test_model_validation(self):
        with pytest.raises(ValueError, match="cold_start_scale"):
            InterferenceModel(cold_start_scale=0.0)
        with pytest.raises(ValueError, match="miss_rate_coupling"):
            InterferenceModel(miss_rate_coupling=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("param", ["cold_start_scale",
                                       "miss_rate_coupling"])
    def test_non_finite_model_parameters_rejected(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            InterferenceModel(**{param: value})
