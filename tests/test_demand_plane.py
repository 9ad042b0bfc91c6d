"""The vectorized demand plane vs the scalar closure reference.

Three layers of pinning:

* **Hypothesis property tests** — every compiled demand kind (constant,
  on_off/bimodal, scaled, with_noise, and nested
  compositions) matches its closure bit-for-bit (float hex) over
  adversarial ``t`` ranges, phases, durations and noise seeds.
* **Eligibility** — anything the compiler can't express (opaque lambdas,
  overridden ``cpu_demand``, subclassed cgroups, shared cgroups,
  non-finite parameters) steps the fleet down to the closure path, and
  that machine still ticks identically to a closure-only twin.
* **End-to-end golden parity** — every table on the closures
  (``tests/reference/demand.py``) vs compiled columns on the scale
  scenario (clean, sharded at 1/2/4 workers) and the chaos scenario
  (moderate faults, caps actually applied), compared through the same
  hex-canonical forms the shard golden tests use.

A "scalar" machine below is a twin whose workloads are pinned to their
closures; a "vector" one compiles its demand program.

Plus regression tests for the NaN-clamp unification (``scaled`` /
``with_noise`` / ``SyntheticWorkload.cpu_demand`` all treat non-finite
demand as zero) and table charging (each tick's grants are in the usage
rings as soon as the tick returns).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cgroup import USAGE_HISTORY_SECONDS, Cgroup
from repro.cluster.demandplane import (_DRAW_CHUNK, DemandClosures,
                                       DemandColumns)
from repro.cluster.fused import FusedFleet
from repro.cluster.job import Job, JobSpec
from repro.cluster.machine import Machine
from repro.cluster.platform import get_platform
from repro.cluster.shards import run_sharded
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.cluster.task import PriorityBand, SchedulingClass, TaskState
from repro.core.config import CpiConfig
from repro.experiments.chaos import chaos_scenario
from repro.experiments.scenarios import scale_scenario
from repro.testing import QUIET_PROFILE, ScriptedWorkload, make_scripted_job
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import (ConstantSpec, NoiseSpec, OnOffSpec,
                                    ScaledSpec, bimodal, constant, demand_spec,
                                    on_off, scaled, with_noise)
from repro.workloads.diurnal import DiurnalPattern
from tests.reference import demand as reference_demand
from tests.reference import noise as reference_noise
from tests.reference import tick as reference_tick

# ---------------------------------------------------------------------------
# helpers


def _hex(x) -> str:
    return float(x).hex()


def _program(machine: Machine):
    """The demand program of the one-machine fleet ``machine.tick`` steps."""
    return FusedFleet((machine,)).demand_columns


def _demand_path(machine: Machine, engine: str) -> Machine:
    """``machine``, pinned to the demand closures when ``engine`` is
    ``"scalar"``."""
    if engine == "scalar":
        reference_demand.pin_closures(
            task.workload for task in machine.resident_tasks())
        assert isinstance(_program(machine), DemandClosures)
    return machine


def _workload(fn) -> SyntheticWorkload:
    return SyntheticWorkload(base_cpi=1.0, profile=QUIET_PROFILE, demand=fn)


def _compile_one(fn):
    """Compile a single-task table around ``fn`` (huge limit: no clipping)."""
    w = _workload(fn)
    cg = Cgroup("t/0", 1e12)
    return DemandColumns.compile([w], [cg], [cg.cpu_limit])


def _assert_kind_parity(factory, ts):
    """``factory()`` builds the same demand fn twice (fresh identically
    seeded RNGs each call); closure and compiled evaluations must agree
    bit-for-bit at every ``t``."""
    scalar_w = _workload(factory())
    dc = _compile_one(factory())
    assert isinstance(dc, DemandColumns), "expected the demand fn to compile"
    for t in ts:
        expected = scalar_w.cpu_demand(t)
        got = float(dc.demand(t)[0])
        assert _hex(got) == _hex(expected), (
            f"t={t}: compiled {got!r} != closure {expected!r}")


_LEVELS = st.floats(min_value=0.0, max_value=1e9,
                    allow_nan=False, allow_infinity=False)
_TS = st.lists(st.integers(min_value=0, max_value=2**40),
               min_size=8, max_size=32)

# ---------------------------------------------------------------------------
# hypothesis property tests: compiled == closure, bit for bit


class TestCompiledKindParity:
    @settings(max_examples=50, deadline=None)
    @given(level=_LEVELS, ts=_TS)
    def test_constant(self, level, ts):
        _assert_kind_parity(lambda: constant(level), ts)

    @settings(max_examples=50, deadline=None)
    @given(on=_LEVELS, off=_LEVELS,
           period=st.integers(1, 10_000_000),
           duty=st.floats(0.0, 1.0),
           phase=st.integers(0, 10**9), ts=_TS)
    def test_on_off(self, on, off, period, duty, phase, ts):
        _assert_kind_parity(
            lambda: on_off(on, off, period, duty=duty, phase=phase), ts)

    @settings(max_examples=50, deadline=None)
    @given(low=_LEVELS, high=_LEVELS, period=st.integers(1, 100_000),
           frac=st.floats(0.0, 1.0), phase=st.integers(0, 10**6), ts=_TS)
    def test_bimodal(self, low, high, period, frac, phase, ts):
        _assert_kind_parity(
            lambda: bimodal(low, high, period, low_fraction=frac,
                            phase=phase), ts)

    @settings(max_examples=50, deadline=None)
    @given(level=_LEVELS, amplitude=st.floats(0.0, 0.99),
           peak=st.floats(0.0, 23.99), ts=_TS)
    def test_scaled_diurnal(self, level, amplitude, peak, ts):
        _assert_kind_parity(
            lambda: scaled(constant(level),
                           DiurnalPattern(amplitude, peak_hour=peak)), ts)

    @settings(max_examples=25, deadline=None)
    @given(level=_LEVELS, a1=st.floats(0.0, 0.99), a2=st.floats(0.0, 0.99),
           ts=_TS)
    def test_nested_scaled(self, level, a1, a2, ts):
        _assert_kind_parity(
            lambda: scaled(scaled(constant(level), DiurnalPattern(a1)),
                           DiurnalPattern(a2)), ts)

    @settings(max_examples=50, deadline=None)
    @given(level=_LEVELS, sigma=st.floats(0.0, 2.0), seed=st.integers(0, 2**31),
           ts=_TS)
    def test_noise_over_constant(self, level, sigma, seed, ts):
        _assert_kind_parity(
            lambda: with_noise(constant(level), sigma,
                               np.random.default_rng(seed)), ts)

    @settings(max_examples=25, deadline=None)
    @given(on=_LEVELS, off=_LEVELS, period=st.integers(1, 100_000),
           sigma=st.floats(0.0, 1.0), seed=st.integers(0, 2**31), ts=_TS)
    def test_noise_over_on_off(self, on, off, period, sigma, seed, ts):
        _assert_kind_parity(
            lambda: with_noise(on_off(on, off, period), sigma,
                               np.random.default_rng(seed)), ts)

    @settings(max_examples=25, deadline=None)
    @given(level=_LEVELS, amp=st.floats(0.0, 0.99), sigma=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**31), ts=_TS)
    def test_noise_over_scaled(self, level, amp, sigma, seed, ts):
        _assert_kind_parity(
            lambda: with_noise(scaled(constant(level), DiurnalPattern(amp)),
                               sigma, np.random.default_rng(seed)), ts)

    def test_mixed_table_draws_in_table_order(self):
        """Noise draws must come from each task's own generator in table
        order even when non-noisy tasks are interleaved."""
        def build():
            return [
                with_noise(constant(1.0), 0.1, np.random.default_rng(1)),
                constant(2.0),
                with_noise(on_off(3.0, 0.5, 60), 0.2,
                           np.random.default_rng(2)),
                on_off(1.0, 4.0, 30, duty=0.25),
                with_noise(constant(0.7), 0.3, np.random.default_rng(3)),
            ]
        scalar_ws = [_workload(fn) for fn in build()]
        compiled_ws = [_workload(fn) for fn in build()]
        cgs = [Cgroup(f"t/{i}", 1e12) for i in range(len(compiled_ws))]
        dc = DemandColumns.compile(compiled_ws, cgs,
                                   [cg.cpu_limit for cg in cgs])
        assert isinstance(dc, DemandColumns)
        for t in range(0, 500, 7):
            expected = [w.cpu_demand(t) for w in scalar_ws]
            got = dc.demand(t).tolist()
            assert [_hex(g) for g in got] == [_hex(e) for e in expected]


# ---------------------------------------------------------------------------
# spec forms


class TestSpecs:
    def test_combinators_carry_specs(self):
        assert demand_spec(constant(1.0)) == ConstantSpec(1.0)
        assert demand_spec(on_off(2.0, 0.5, 60, duty=0.25, phase=7)) == \
            OnOffSpec(2.0, 0.5, 60, 0.25 * 60, 7)
        pat = DiurnalPattern(0.2)
        spec = demand_spec(scaled(constant(1.0), pat))
        assert isinstance(spec, ScaledSpec)
        assert spec.base == ConstantSpec(1.0) and spec.factor is pat
        rng = np.random.default_rng(0)
        nspec = demand_spec(with_noise(constant(1.0), 0.1, rng))
        assert isinstance(nspec, NoiseSpec)
        assert nspec.sigma == 0.1 and nspec.rng is rng

    def test_zero_sigma_noise_keeps_base_spec(self):
        fn = with_noise(constant(3.0), 0.0, np.random.default_rng(0))
        assert demand_spec(fn) == ConstantSpec(3.0)

    def test_opaque_lambda_has_no_spec(self):
        assert demand_spec(lambda t: 1.0) is None


# ---------------------------------------------------------------------------
# eligibility fallback


class _CustomDemand(SyntheticWorkload):
    def cpu_demand(self, t):
        return 1.0 + 0.25 * (t % 3)


class _FancyCgroup(Cgroup):
    pass


#: One case per ineligibility :meth:`DemandColumns.compile` documents.
_INELIGIBLE = ("patched_cpu_demand", "overridden_cpu_demand",
               "unrecognised_spec", "specless_scaled_factor",
               "non_finite_parameter", "subclassed_cgroup", "shared_cgroup")


def _ineligible_machine(case: str, reference: bool = False) -> Machine:
    """A noisy machine holding a compilable noisy row and one row that is
    ineligible as ``case`` says.  The ``reference`` twin of the shared
    cgroup case gives each task a cgroup of its own with the same limit
    (the reference tick charges per task, so it cannot share one)."""
    m = Machine("m0", get_platform("westmere-2.6"),
                rng=np.random.default_rng(3), cpi_noise_sigma=0.03)
    noisy = _workload(with_noise(constant(1.5), 0.1,
                                 np.random.default_rng(7)))
    if case == "patched_cpu_demand":
        odd = _workload(constant(1.0))
        odd.cpu_demand = lambda t: 0.5 + 0.125 * t
    elif case == "overridden_cpu_demand":
        odd = _CustomDemand(base_cpi=1.2, profile=QUIET_PROFILE,
                            demand=constant(1.0))
    elif case == "unrecognised_spec":
        odd = _workload(lambda t: 2.0 - 0.25 * t)
    elif case == "specless_scaled_factor":
        odd = _workload(scaled(constant(1.0), lambda t: 1.0 + 0.5 * t))
    elif case == "non_finite_parameter":
        odd = _workload(constant(float("inf")))
    else:
        odd = _workload(constant(2.5))
    _place_one(m, "a", noisy)
    task = Job(JobSpec(
        name="b", num_tasks=1, scheduling_class=SchedulingClass.BATCH,
        priority_band=PriorityBand.NONPRODUCTION, cpu_limit_per_task=3.0,
        workload_factory=lambda i: odd)).tasks[0]
    if case == "subclassed_cgroup":
        task.cgroup = _FancyCgroup(task.cgroup.name, task.cgroup.cpu_limit)
    elif case == "shared_cgroup" and not reference:
        task.cgroup = m.get_task("a/0").cgroup
    m.place(task)
    return m


class TestEligibility:
    def test_opaque_demand_fn_is_ineligible(self):
        assert isinstance(_compile_one(lambda t: 1.0), DemandClosures)

    def test_speccless_scale_factor_is_ineligible(self):
        assert isinstance(_compile_one(scaled(constant(1.0), lambda t: 2.0)),
                          DemandClosures)

    def test_non_finite_parameters_are_ineligible(self):
        for fn in (constant(float("nan")), constant(float("inf")),
                   with_noise(constant(1.0), float("nan"),
                              np.random.default_rng(0))):
            assert isinstance(_compile_one(fn), DemandClosures)

    def test_subclassed_cgroup_is_ineligible(self):
        cg = _FancyCgroup("t/0", 4.0)
        assert isinstance(
            DemandColumns.compile([_workload(constant(1.0))], [cg], [4.0]),
            DemandClosures)

    def test_shared_cgroup_is_ineligible(self):
        ws = [_workload(constant(1.0)), _workload(constant(2.0))]
        cg = Cgroup("t/0", 4.0)
        assert isinstance(DemandColumns.compile(ws, [cg, cg], [4.0, 4.0]),
                          DemandClosures)

    @pytest.mark.parametrize("case", _INELIGIBLE)
    def test_ineligible_arena_steps_its_closures_as_the_reference(self,
                                                                  case):
        """Every ineligibility gives the whole arena the closure program,
        and each one-second step of it equals the scalar reference tick
        by ``float.hex``."""
        m = _ineligible_machine(case)
        twin = _ineligible_machine(case, reference=True)
        for t in range(3):
            got, want = m.tick(t), reference_tick.tick(twin, t)
            assert isinstance(m._fleet.demand_columns, DemandClosures)
            for field in ("grants", "cpis"):
                assert ({k: _hex(v) for k, v in getattr(got, field).items()}
                        == {k: _hex(v)
                            for k, v in getattr(want, field).items()})

    def test_machine_steps_down_and_matches_scalar_engine(self):
        """A machine whose demand can't compile still ticks bit-identically
        to a closure-only twin (the closure path is shared)."""
        def build(engine):
            m = Machine("m0", get_platform("westmere-2.6"),
                        cpi_noise_sigma=0.03)
            spec = JobSpec(
                name="odd", num_tasks=3,
                scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
                priority_band=PriorityBand.PRODUCTION,
                cpu_limit_per_task=2.0,
                workload_factory=lambda i: SyntheticWorkload(
                    base_cpi=1.0, profile=QUIET_PROFILE,
                    demand=lambda t, i=i: 0.5 + 0.1 * i))
            for task in Job(spec):
                m.place(task)
            return _demand_path(m, engine)

        mv = build("vector")
        ms = build("scalar")
        assert isinstance(_program(mv), DemandClosures)
        for t in range(50):
            rv = mv.tick(t)
            rs = ms.tick(t)
            assert rv.grants == rs.grants and rv.cpis == rs.cpis


# ---------------------------------------------------------------------------
# the noise block (private generators) and the one-cursor NormalStream


def _noisy_machine(engine: str, num: int = 4) -> Machine:
    """A machine of noisy tasks whose generators are private to their
    ``with_noise`` streams (constructed inline, no other reference), so
    the demand plane buffers them in its noise block."""
    m = Machine("m0", get_platform("westmere-2.6"), cpi_noise_sigma=0.0)
    spec = JobSpec(
        name="svc", num_tasks=num,
        scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
        priority_band=PriorityBand.PRODUCTION,
        cpu_limit_per_task=2.0,
        workload_factory=lambda i: SyntheticWorkload(
            base_cpi=1.0, profile=QUIET_PROFILE,
            demand=with_noise(constant(0.5 + 0.1 * i), 0.1,
                              np.random.default_rng(
                                  np.random.SeedSequence((7, i))))))
    for task in Job(spec):
        m.place(task)
    return _demand_path(m, engine)


def _assert_tick_parity(mv: Machine, ms: Machine, ts) -> None:
    for t in ts:
        rv = mv.tick(t)
        rs = ms.tick(t)
        assert ({k: _hex(v) for k, v in rv.grants.items()}
                == {k: _hex(v) for k, v in rs.grants.items()}), f"t={t}"


def _opaque_job() -> JobSpec:
    """One task whose demand no program can compile."""
    return JobSpec(
        name="opaque", num_tasks=1,
        scheduling_class=SchedulingClass.BATCH,
        priority_band=PriorityBand.NONPRODUCTION,
        cpu_limit_per_task=1.0,
        workload_factory=lambda i: SyntheticWorkload(
            base_cpi=1.0, profile=QUIET_PROFILE, demand=lambda t: 0.3))


class TestDrawPrefetch:
    def test_refill_matches_scalar_draws(self):
        """A row refill, ``standard_normal(out=row)``, equals 256 scalar
        draws, so a stream homed in a program yields the scalar sequence
        across refills."""
        row = np.empty(_DRAW_CHUNK)
        np.random.default_rng(5).standard_normal(out=row)
        ref = np.random.default_rng(5)
        assert [_hex(x) for x in row] == [
            _hex(ref.standard_normal()) for _ in range(_DRAW_CHUNK)]

        fn = with_noise(constant(1.0), 0.1, np.random.default_rng(5))
        dc = _compile_one(fn)
        stream = fn.spec.stream
        assert stream.home is None, "compiling must not adopt"
        dc.demand(0)
        assert stream.home is dc
        ref = np.random.default_rng(5)
        ref.standard_normal()                   # the tick's draw
        for _ in range(2 * _DRAW_CHUNK + 88):    # crosses two refills
            assert _hex(stream.take()) == _hex(ref.standard_normal())

    def test_private_rng_gets_stream_and_matches_scalar(self):
        """A private generator is buffered in the program's block; grants
        stay bit-identical to the closures across refill boundaries."""
        mv = _noisy_machine("vector")
        ms = _noisy_machine("scalar")
        _assert_tick_parity(mv, ms, range(2 * _DRAW_CHUNK + 16))
        dc = mv._fleet.demand_columns
        assert isinstance(dc, DemandColumns)
        for task in mv.resident_tasks():
            assert task.workload._demand.spec.stream.home is dc

    def test_shared_rng_keeps_per_tick_draws(self):
        """A generator someone else can reach must not be buffered —
        another consumer could interleave draws between ticks."""
        rng = np.random.default_rng(3)      # this reference makes it shared
        fn = with_noise(constant(1.0), 0.1, rng)
        dc = _compile_one(fn)
        assert isinstance(dc, DemandColumns)
        ref = np.random.default_rng(3)
        for t in range(20):
            got = float(dc.demand(t)[0])
            expected = 1.0 * float(np.exp(0.1 * ref.standard_normal()))
            assert _hex(got) == _hex(max(0.0, expected))
        assert fn.spec.stream.home is None

    def test_programs_hand_a_stream_back_and_forth(self):
        """Two programs over one stream: each adopts the row and cursor
        from the other before it draws, so draws interleaved across both
        programs and the stream itself are the scalar sequence."""
        fn = with_noise(constant(1.0), 0.1, np.random.default_rng(9))
        w = _workload(fn)
        cg = Cgroup("t/0", 1e12)
        a = DemandColumns.compile([w], [cg], [cg.cpu_limit])
        b = DemandColumns.compile([w], [cg], [cg.cpu_limit])
        stream = fn.spec.stream
        ref = np.random.default_rng(9)

        def expect():
            return _hex(max(0.0, float(np.exp(0.1 * ref.standard_normal()))))

        for t in range(3 * _DRAW_CHUNK):
            dc = (a, b)[(t // 7) % 2]
            assert _hex(dc.demand(t)[0]) == expect(), f"t={t}"
            assert stream.home is dc
            if t % 5 == 0:
                assert _hex(max(0.0, float(np.exp(0.1 * stream.take())))) \
                    == expect()

    def test_latency_model_shares_the_demand_stream(self):
        """A search node's latency readings draw its demand's stream, so
        the generator stays block-backed and readings between ticks are
        ``rng.normal(0.0, sigma)`` draws in call order."""
        from repro.workloads.websearch import (_TIER_TRAITS, SearchTier,
                                               WebSearchWorkload)
        w = WebSearchWorkload(SearchTier.LEAF, np.random.default_rng(4))
        cg = Cgroup("t/0", 1e12)
        dc = DemandColumns.compile([w], [cg], [cg.cpu_limit])
        traits = _TIER_TRAITS[SearchTier.LEAF]
        ref = np.random.default_rng(4)
        for t in range(2 * _DRAW_CHUNK + 16):
            dc.demand(t)
            ref.standard_normal()
            if t % 3 == 0:
                fanout = float(np.exp(ref.normal(0.0, traits.fanout_sigma)))
                expected = traits.base_latency_ms * (
                    traits.cpu_coupling * 1.1
                    + (1.0 - traits.cpu_coupling) * fanout)
                got = w.latency_model.request_latency_ms(1.1)
                assert _hex(got) == _hex(expected), f"t={t}"
        assert w._demand.spec.stream.home is dc

    def test_stream_survives_recompile(self):
        """Removing a task recompiles the fleet's program; the surviving
        tasks' rows and cursors carry over to the new program."""
        mv = _noisy_machine("vector")
        ms = _noisy_machine("scalar")
        _assert_tick_parity(mv, ms, range(40))
        victim = sorted(mv._tasks)[1]
        mv.remove(victim, TaskState.EXITED, reason="test")
        ms.remove(victim, TaskState.EXITED, reason="test")
        _assert_tick_parity(mv, ms, range(40, 120))

    def test_closure_continues_stream_after_step_down(self):
        """If the fleet turns ineligible after streams were buffered, the
        closures take from the same streams (the old program's rows), so
        the values still match a scalar twin draw for draw."""
        mv = _noisy_machine("vector")
        ms = _noisy_machine("scalar")
        _assert_tick_parity(mv, ms, range(40))
        for task in Job(_opaque_job()):
            mv.place(task)
        for task in Job(_opaque_job()):
            ms.place(task)
        assert isinstance(_program(mv), DemandClosures)
        _assert_tick_parity(mv, ms, range(40, 120))


class TestNoiseCensus:
    def test_every_private_fleet_row_is_block_backed(self):
        """Every shipped job spec's noise is buffered in the fleet's
        block (a batch task's transaction counter shares its demand's
        stream, a search node's latency model too); a generator the test
        holds, or one two ``with_noise`` closures share, stays scalar."""
        from repro.experiments.scenarios import build_cluster
        from repro.workloads.antagonists import (AntagonistKind,
                                                 make_antagonist_job_spec)
        from repro.workloads.batch import (make_batch_job_spec,
                                           make_mapreduce_job_spec)
        from repro.workloads.services import make_service_job_spec
        from repro.workloads.websearch import (SearchTier,
                                               make_websearch_job_spec)

        scenario = build_cluster(4, seed=1)
        for spec in (
                make_service_job_spec("svc", num_tasks=4, seed=1),
                make_batch_job_spec("batch", num_tasks=4, seed=2),
                make_mapreduce_job_spec("mr", num_workers=4, seed=3),
                make_antagonist_job_spec(
                    "ant", AntagonistKind.VIDEO_PROCESSING, num_tasks=2,
                    seed=4),
                make_websearch_job_spec("leaf", SearchTier.LEAF,
                                        num_tasks=4, seed=5)):
            scenario.submit(spec)
        held = np.random.default_rng(6)
        trial_rng = np.random.default_rng(7)

        def negative(name, num, rng):
            return JobSpec(
                name=name, num_tasks=num,
                scheduling_class=SchedulingClass.BATCH,
                priority_band=PriorityBand.NONPRODUCTION,
                cpu_limit_per_task=1.0,
                workload_factory=lambda i: SyntheticWorkload(
                    base_cpi=1.0, profile=QUIET_PROFILE,
                    demand=with_noise(constant(0.4), 0.1, rng)))

        scenario.submit(negative("held", 1, held))
        scenario.submit(negative("trial", 2, trial_rng))
        sim = scenario.simulation
        sim.run(3)
        dc = sim._fleet.demand_columns
        assert isinstance(dc, DemandColumns)
        scalar = {"held", "trial"}
        owner = {id(task.workload): name
                 for name, job in scenario.jobs.items() for task in job.tasks}
        homes: dict[str, list] = {}
        for w in dc.workloads:
            spec = demand_spec(w._demand)
            assert isinstance(spec, NoiseSpec)
            homes.setdefault(owner[id(w)], []).append(spec.stream.home)
        assert set(homes) == {"svc", "batch", "mr", "ant", "leaf"} | scalar
        for job, hs in homes.items():
            want = None if job in scalar else dc
            assert all(h is want for h in hs), job


# -- draw-order oracle: compiled, closure and counter draws vs scalar twins

_KINDS = ("service", "batch", "mapreduce")


def _noisy_pair(kind: str, seed: int):
    """A production workload and its scalar twin over generators seeded
    alike, plus the twin's transaction counter (``None`` for a service).

    Built here so the production generator has no reference beyond its
    stream and the demand plane buffers it.
    """
    from repro.workloads.batch import BatchWorkload, MapReduceWorker
    rng = np.random.default_rng(seed)
    twin_rng = np.random.default_rng(seed)
    if kind == "service":
        w = _workload(with_noise(constant(0.6), 0.1, rng))
        return w, _workload(reference_noise.noisy_level(0.6, 0.1,
                                                        twin_rng)), None
    cls, level, sigma = ((BatchWorkload, 1.0, 0.08) if kind == "batch"
                         else (MapReduceWorker, 2.0, 0.1))
    w = cls(rng=rng, demand=with_noise(constant(level), sigma, rng),
            profile=QUIET_PROFILE)
    twin = _workload(reference_noise.noisy_level(level, sigma, twin_rng))
    return w, twin, reference_noise.ScalarTransactionCounter(2.0e7, twin_rng)


def _place_one(machine: Machine, name: str, workload) -> str:
    job = Job(JobSpec(
        name=name, num_tasks=1,
        scheduling_class=SchedulingClass.BATCH,
        priority_band=PriorityBand.NONPRODUCTION,
        cpu_limit_per_task=3.0,
        workload_factory=lambda i: workload))
    machine.place(job.tasks[0])
    return job.tasks[0].name


_ORACLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("tick"), st.integers(1, 150)),
    st.tuples(st.just("foreign"), st.integers(1, 40)),
    st.tuples(st.just("closure"), st.integers(1, 60)),
    st.tuples(st.just("txn"), st.integers(1, 40)),
    st.tuples(st.just("remove"), st.integers(0, 15)),
    st.tuples(st.just("arrive"), st.sampled_from(_KINDS)),
), min_size=1, max_size=12)


class TestDrawOrderOracle:
    @settings(max_examples=30, deadline=None)
    @given(kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
           ops=_ORACLE_OPS)
    def test_every_draw_matches_scalar_twin(self, kinds, ops):
        """Compiled ticks, closure ticks (an opaque task resident), ticks
        stepped by another program over the machine, ``transactions_for``
        between ticks, and removals/arrivals mid-chunk all read the
        generators' scalar sequences — past two refills of every row."""
        mv = Machine("m0", get_platform("westmere-2.6"), cpi_noise_sigma=0.0)
        ms = Machine("m0", get_platform("westmere-2.6"), cpi_noise_sigma=0.0)
        live: list[tuple[str, object, object]] = []   # name, workload, twin counter
        seeds = iter(range(100, 10_000))

        def arrive(kind):
            seed = next(seeds)
            w, twin, counter = _noisy_pair(kind, seed)
            name = _place_one(mv, f"{kind}{seed}", w)
            assert _place_one(ms, f"{kind}{seed}", twin) == name
            live.append((name, w, counter))

        def txn(n):
            counted = [(w, c) for _, w, c in live if c is not None]
            for i in range(n if counted else 0):
                w, c = counted[i % len(counted)]
                instr = 1.0e8 + 1.0e6 * i
                assert (_hex(w.transactions_for(instr))
                        == _hex(c.transactions_for(instr)))

        for kind in kinds:
            arrive(kind)
        t = 0

        def tick(n, step=None):
            nonlocal t
            for _ in range(n):
                rv = step(t) if step else mv.tick(t)
                rs = ms.tick(t)
                assert ({k: _hex(v) for k, v in rv.grants.items()}
                        == {k: _hex(v) for k, v in rs.grants.items()}), t
                t += 1

        for op, arg in ops:
            if op == "tick":
                tick(arg)
            elif op == "foreign":
                fleet = FusedFleet((mv,))
                tick(arg, lambda t: fleet.step(t)["m0"])
            elif op == "closure":
                names = [_place_one(m, "opaque", _workload(lambda t: 0.3))
                         for m in (mv, ms)]
                assert isinstance(_program(mv), DemandClosures)
                tick(arg)
                for m, name in zip((mv, ms), names):
                    m.remove(name, TaskState.EXITED, reason="test")
            elif op == "txn":
                txn(arg)
            elif op == "remove" and len(live) > 1:
                name, _, _ = live.pop(arg % len(live))
                mv.remove(name, TaskState.EXITED, reason="test")
                ms.remove(name, TaskState.EXITED, reason="test")
            elif op == "arrive":
                arrive(arg)
        # Then, with no recompile, counters draw between ticks: their rows
        # run ahead of the rest and refill on their own.
        while t < 2 * _DRAW_CHUNK + 8:
            tick(3)
            txn(2)
        dc = mv._fleet.demand_columns
        assert isinstance(dc, DemandColumns)
        for _, w, _ in live:
            assert w._demand.spec.stream.home is dc


# ---------------------------------------------------------------------------
# NaN-clamp regression (satellite 2)


class TestNaNClamp:
    def test_scaled_clamps_nan_factor(self):
        fn = scaled(constant(1.0), lambda t: float("nan"))
        assert fn(5) == 0.0

    def test_scaled_clamps_negative_product(self):
        fn = scaled(constant(1.0), lambda t: -3.0)
        assert fn(5) == 0.0

    def test_with_noise_clamps_nan_base(self):
        fn = with_noise(lambda t: float("nan"), 0.1,
                        np.random.default_rng(0))
        assert fn(5) == 0.0

    def test_cpu_demand_clamps_nan(self):
        w = SyntheticWorkload(base_cpi=1.0, profile=QUIET_PROFILE,
                              demand=lambda t: float("nan"))
        assert w.cpu_demand(5) == 0.0
        w2 = SyntheticWorkload(base_cpi=1.0, profile=QUIET_PROFILE,
                               demand=lambda t: -1.0)
        assert w2.cpu_demand(5) == 0.0


# ---------------------------------------------------------------------------
# table charging


class TestTableCharging:
    def _machine(self, engine="vector"):
        m = Machine("m0", get_platform("westmere-2.6"), cpi_noise_sigma=0.0)
        spec = JobSpec(
            name="svc", num_tasks=2,
            scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
            priority_band=PriorityBand.PRODUCTION,
            cpu_limit_per_task=2.0,
            workload_factory=lambda i: _workload(constant(0.5 + 0.25 * i)))
        tasks = list(Job(spec))
        for task in tasks:
            m.place(task)
        return _demand_path(m, engine), tasks

    @staticmethod
    def _assert_reads_match(a, b, t):
        """Every usage read of task ``a`` equals its closure twin ``b``'s
        after the tick at ``t``."""
        assert a.cgroup._ring_last == b.cgroup._ring_last == t
        assert _hex(a.cgroup.last_usage()) == _hex(b.cgroup.last_usage())
        start = max(0, t - 19)
        assert _hex(a.cgroup.usage_between(start, t + 1)) == \
            _hex(b.cgroup.usage_between(start, t + 1))
        assert a.cgroup.usage_window_view(0, t + 1).tolist() == \
            b.cgroup.usage_window_view(0, t + 1).tolist()
        assert _hex(a.workload.granted_cpu_seconds) == \
            _hex(b.workload.granted_cpu_seconds)

    def test_reads_match_closure_twin_after_every_tick(self):
        mv, tv = self._machine("vector")
        ms, ts_ = self._machine("scalar")
        for t in range(60):
            mv.tick(t)
            ms.tick(t)
            for a, b in zip(tv, ts_):
                self._assert_reads_match(a, b, t)

    def test_long_run_wraps_the_ring(self):
        mv, tv = self._machine("vector")
        ms, ts_ = self._machine("scalar")
        last = USAGE_HISTORY_SECONDS + 150
        for t in range(last + 1):
            mv.tick(t)
            ms.tick(t)
        for a, b in zip(tv, ts_):
            self._assert_reads_match(a, b, last)
            assert _hex(a.cgroup.usage_between(120, 1020)) == \
                _hex(b.cgroup.usage_between(120, 1020))

    def test_gapped_ticks_zero_fill(self):
        mv, tv = self._machine("vector")
        ms, ts_ = self._machine("scalar")
        for t in [*range(10), *range(15, 20), *range(1300, 1310)]:
            mv.tick(t)
            ms.tick(t)
            for a, b in zip(tv, ts_):
                self._assert_reads_match(a, b, t)
        assert tv[0].cgroup.usage_between(1290, 1310) == 0.25

    def test_placement_change_keeps_history(self):
        mv, tasks = self._machine("vector")
        for t in range(10):
            mv.tick(t)
        mv.remove(tasks[0].name, TaskState.KILLED, reason="test")
        # The removed task's cgroup keeps all 10 charges ...
        assert tasks[0].cgroup._ring_last == 9
        assert tasks[0].cgroup.usage_between(0, 10) == 0.5
        # ... and the survivor's history moves into the new table's matrix.
        for t in range(10, 20):
            mv.tick(t)
        assert tasks[1].cgroup.usage_between(0, 20) == 0.75
        table = mv._task_table()
        assert table.cgroups == (tasks[1].cgroup,)
        assert table.usage_matrix[0, :20].tolist() == [0.75] * 20

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_replayed_tick_raises_from_tick(self, engine):
        m, tasks = self._machine(engine)
        m.tick(4)
        m.tick(5)
        matrix = m._task_table().usage_matrix.copy()
        for t in (5, 3):
            with pytest.raises(ValueError, match=rf"svc/0.*second {t}\b.*5"):
                m.tick(t)
        assert np.array_equal(m._task_table().usage_matrix, matrix)
        assert [task.cgroup._ring_last for task in tasks] == [5, 5]

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_bad_grant_raises_before_write(self, engine, bad, monkeypatch):
        """The counter burn rejects the grant before the charge."""
        m, tasks = self._machine(engine)
        m.tick(0)
        matrix = m._task_table().usage_matrix.copy()
        def bad_grant(fleet, t0, k, allowed, g):
            g[:] = [0.5, bad]

        monkeypatch.setattr(FusedFleet, "_allocate", bad_grant)
        with pytest.raises(ValueError, match=">= 0"):
            m.tick(1)
        assert np.array_equal(m._task_table().usage_matrix, matrix)
        assert [task.cgroup._ring_last for task in tasks] == [0, 0]

    def test_departure_mid_run_stays_consistent(self):
        """ScriptedWorkload is not a SyntheticWorkload, so its machine
        takes the closure path end to end; its timed exits must still
        match the closure-only twin exactly."""
        def build(engine):
            m = Machine("m0", get_platform("westmere-2.6"),
                        cpi_noise_sigma=0.0)
            job = make_scripted_job("scripted", [1.0, 2.0, 0.5],
                                    num_tasks=3, exit_at=25)
            for task in job:
                m.place(task)
            return _demand_path(m, engine)

        mv, ms = build("vector"), build("scalar")
        assert isinstance(_program(mv), DemandClosures)
        for t in range(40):
            rv, rs = mv.tick(t), ms.tick(t)
            assert rv.grants == rs.grants
            assert [(task.name, s) for task, s in rv.departures] == \
                [(task.name, s) for task, s in rs.departures]
        assert mv.num_tasks == ms.num_tasks == 0

    def test_direct_charge_between_ticks_keeps_the_table_clock(self):
        """A direct ``Cgroup.charge`` on one row of a compiled table moves
        only that row's clock; the next tick opens every ring again."""
        m = Machine("m0", get_platform("westmere-2.6"), cpi_noise_sigma=0.0)
        spec = JobSpec(
            name="svc", num_tasks=3,
            scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
            priority_band=PriorityBand.PRODUCTION,
            cpu_limit_per_task=2.0,
            workload_factory=lambda i: _workload(constant(0.5 + 0.25 * i)))
        tasks = list(Job(spec))
        for task in tasks:
            m.place(task)
        assert isinstance(_program(m), DemandColumns)
        for t in range(10):
            m.tick(t)
        table = m._task_table()
        tasks[1].cgroup.charge(10, 0.125)
        assert [task.cgroup._ring_last for task in tasks] == [9, 10, 9]
        for i in (0, 2):
            cg = tasks[i].cgroup
            level = 0.5 + 0.25 * i
            assert cg.usage_between(0, 10) == level
            assert cg.usage_between(5, 15) == level / 2
            assert cg.last_usage() == level
        assert tasks[1].cgroup.usage_between(9, 11) == (0.75 + 0.125) / 2

        # The directly charged second replays for its row: nothing moves.
        matrix = table.usage_matrix.copy()
        with pytest.raises(ValueError, match=r"svc/1.*second 10\b.*10"):
            m.tick(10)
        assert np.array_equal(table.usage_matrix, matrix)
        assert [task.cgroup._ring_last for task in tasks] == [9, 10, 9]

        m.tick(11)
        assert m._task_table() is table
        assert [task.cgroup._ring_last for task in tasks] == [11, 11, 11]
        assert [task.cgroup.usage_window_view(9, 12).tolist()
                for task in tasks] == [[0.5, 0.0, 0.5], [0.75, 0.125, 0.75],
                                       [1.0, 0.0, 1.0]]
        m.tick(12)
        assert [task.cgroup._ring_last for task in tasks] == [12, 12, 12]
        with pytest.raises(ValueError, match=r"svc/0.*second 12\b.*12"):
            m.tick(12)
        assert [task.cgroup.last_usage() for task in tasks] == \
            [0.5, 0.75, 1.0]

    def test_direct_charge_keeps_departed_row_clock(self):
        """A departed task's cgroup leaves its table with the table's clock
        as its own; a direct charge of a row still bound to that table
        hands the table's clock only to the rows bound to it."""
        m, (gone, kept) = self._machine("vector")
        for t in range(10):
            m.tick(t)
        m.remove(gone.name, TaskState.KILLED, reason="test")
        assert gone.cgroup._table is None and gone.cgroup._ring_last == 9
        gone.cgroup.charge(11, 0.25)
        kept.cgroup.charge(10, 0.5)
        assert gone.cgroup._ring_last == 11
        assert gone.cgroup.usage_window_view(9, 12).tolist() == \
            [0.5, 0.0, 0.25]
        assert kept.cgroup._ring_last == 10
        m.tick(11)
        assert kept.cgroup.usage_window_view(9, 12).tolist() == \
            [0.75, 0.5, 0.75]

    def test_mapreduce_departures_with_compiled_demand(self):
        """MapReduceWorker demand (noise over constant) compiles, but its
        overridden on_tick disables the batched accounting: departures
        must still fire exactly as on the closure-only twin."""
        from repro.workloads.batch import make_mapreduce_job_spec

        def build(engine):
            m = Machine("m0", get_platform("westmere-2.6"),
                        cpi_noise_sigma=0.0)
            spec = make_mapreduce_job_spec("mr", num_workers=4, seed=3,
                                           work_cpu_seconds=40.0,
                                           give_up_episode=2)
            for task in Job(spec):
                m.place(task)
            return _demand_path(m, engine)

        mv, ms = build("vector"), build("scalar")
        dc = _program(mv)
        assert isinstance(dc, DemandColumns) and not dc.batch_on_tick
        departures_v, departures_s = [], []
        for t in range(400):
            departures_v += [(task.name, s) for task, s in
                             mv.tick(t).departures]
            departures_s += [(task.name, s) for task, s in
                             ms.tick(t).departures]
        assert departures_v == departures_s
        assert len(departures_v) == 4          # every worker finished
        assert mv.num_tasks == ms.num_tasks == 0


# ---------------------------------------------------------------------------
# grant accounting: the table's granted column vs a running-sum oracle

_ACCOUNTING_TICKS = 60

#: One event before a tick: place a compiled task on machine ``m`` at a
#: demand level, remove the i-th resident task, or set the i-th task's
#: ``granted_cpu_seconds`` directly.
_ACCOUNTING_OPS = st.lists(st.tuples(
    st.integers(0, _ACCOUNTING_TICKS - 1),
    st.one_of(
        st.tuples(st.just("place"), st.integers(0, 1),
                  st.sampled_from((0.0, 0.25, 1.5, 3.0))),
        st.tuples(st.just("remove"), st.integers(0, 15)),
        st.tuples(st.just("set"), st.integers(0, 15),
                  st.floats(0.0, 1e6, allow_nan=False)),
    )), max_size=12)


class TestGrantAccounting:
    """Every workload's ``granted_cpu_seconds`` is the running sum of its
    grants, bit for bit, however often the fleet moves it between its
    table's ``granted`` column and its own float."""

    @staticmethod
    def _job(name, demand):
        return Job(JobSpec(
            name=name, num_tasks=1, scheduling_class=SchedulingClass.BATCH,
            priority_band=PriorityBand.NONPRODUCTION, cpu_limit_per_task=3.0,
            workload_factory=lambda i: _workload(demand))).tasks[0]

    @settings(max_examples=40, deadline=None)
    @given(ops=_ACCOUNTING_OPS,
           closure=st.tuples(st.integers(1, _ACCOUNTING_TICKS),
                             st.integers(1, _ACCOUNTING_TICKS)),
           seed=st.integers(0, 2**16))
    def test_granted_matches_running_sum(self, ops, closure, seed):
        platform = get_platform("westmere-2.6")
        sim = ClusterSimulation(
            [Machine("a", platform), Machine("b", platform)],
            SimConfig(seed=seed))
        machines = [sim.machines["a"], sim.machines["b"]]
        rng = np.random.default_rng(seed)
        tasks = [self._job(f"svc{i}", with_noise(constant(1.0), 0.3, rng))
                 for i in range(3)]
        for i, task in enumerate(tasks):
            machines[i % 2].place(task)
        # An opaque-demand task joins machine b and leaves again: while it
        # is resident the whole fleet runs on closures and every
        # workload's own on_tick.
        join, leave = sorted(closure)
        opaque = self._job("opaque", lambda t: 0.5)
        sums = {task.name: 0.0 for task in tasks}
        first = {task.name: 0 for task in tasks}
        direct = set()
        resident = list(tasks)
        by_tick = {}
        for at, op in ops:
            by_tick.setdefault(at, []).append(op)
        modes = set()
        opaque_stepped = False
        for t in range(_ACCOUNTING_TICKS):
            if t == join:
                machines[1].place(opaque)
                resident.append(opaque)
                sums[opaque.name] = opaque.workload.granted_cpu_seconds
                first[opaque.name] = t
            if t == leave and opaque in resident:
                machines[1].remove(opaque.name, TaskState.KILLED)
                resident.remove(opaque)
            for op in by_tick.get(t, ()):
                if op[0] == "place":
                    task = self._job(f"new{len(sums)}", constant(op[2]))
                    machines[op[1]].place(task)
                    resident.append(task)
                    tasks.append(task)
                    sums[task.name] = 0.0
                    first[task.name] = t
                elif op[0] == "remove" and resident:
                    task = resident.pop(op[1] % len(resident))
                    sim.machines[task.machine_name].remove(
                        task.name, TaskState.KILLED)
                elif op[0] == "set":
                    task = tasks[op[1] % len(tasks)]
                    task.workload.granted_cpu_seconds = op[2]
                    sums[task.name] = op[2]
                    direct.add(task.name)
            results = sim.step()
            if resident:
                program = sim._fleet.demand_columns
                modes.add(program is not None and program.batch_on_tick)
                opaque_stepped = opaque_stepped or opaque in resident
            for result in results.values():
                for name, grant in result.grants.items():
                    sums[name] += grant
            for task in [*tasks, opaque]:
                if task.name in sums:
                    assert _hex(task.workload.granted_cpu_seconds) == \
                        _hex(sums[task.name]), (t, task.name)
        # Both accounting paths ran: tick 0 is batch unless an op ran
        # first, and the opaque task's stay is not (an op may remove it
        # before its first step).
        assert (False in modes) == opaque_stepped
        assert True in modes or 0 in by_tick
        # Usage conservation: with no direct set, the total is the
        # running sum of the usage ring over the task's whole run.
        for task in tasks:
            if task.name in direct:
                continue
            total = 0.0
            for usage in task.cgroup.usage_window_view(
                    first[task.name], _ACCOUNTING_TICKS).tolist():
                total += usage
            assert _hex(task.workload.granted_cpu_seconds) == _hex(total)


# ---------------------------------------------------------------------------
# end-to-end golden parity, closures vs compiled columns


_SCALE_KWARGS = dict(num_machines=6, seed=11, num_service_jobs=2,
                     num_batch_jobs=2, tasks_per_job=6,
                     config=CpiConfig(spec_refresh_period=600,
                                      min_samples_per_task=5))

_CHAOS_KWARGS = dict(seed=0, num_machines=4, fault_profile="moderate",
                     fault_seed=1)


def _canon_samples(samples):
    return [(s.jobname, s.platforminfo, s.timestamp, _hex(s.cpu_usage),
             _hex(s.cpi), s.taskname) for s in samples]


def _canon_incidents(incidents):
    return [(i.machine, i.time_seconds, i.victim_taskname, i.victim_jobname,
             _hex(i.victim_cpi), _hex(i.cpi_threshold),
             tuple((s.taskname, s.jobname, _hex(s.correlation))
                   for s in i.suspects),
             i.decision.action.value,
             None if i.post_cpi is None else _hex(i.post_cpi), i.recovered)
            for i in incidents]


def _canon_specs(aggregator):
    return sorted(
        (key.jobname, key.platforminfo, spec.num_samples,
         _hex(spec.cpu_usage_mean), _hex(spec.cpi_mean), _hex(spec.cpi_stddev))
        for key, spec in aggregator.specs().items())


def _run_single(builder, kwargs, seconds):
    scenario = builder(**kwargs)
    pipeline = scenario.pipeline
    pipeline.log_samples = True
    scenario.simulation.run(seconds)
    return {
        "samples": _canon_samples(pipeline.sample_log),
        "incidents": _canon_incidents(pipeline.all_incidents()),
        "specs": _canon_specs(pipeline.aggregator),
        "caps": pipeline.obs.metrics.total("caps_applied"),
    }


def _run_sharded(builder, kwargs, seconds, jobs):
    result = run_sharded(builder, kwargs, seconds=seconds, jobs=jobs,
                         log_samples=True)
    return {
        "samples": _canon_samples(result.sample_log),
        "incidents": _canon_incidents(result.all_incidents()),
        "specs": _canon_specs(result.pipeline.aggregator),
        "caps": result.pipeline.obs.metrics.total("caps_applied"),
    }


class TestGoldenEngineParity:
    def test_scale_clean_parity_across_jobs(self, monkeypatch):
        """Clean fleet: closures == compiled columns, single-process and
        sharded at 1/2/4 workers, byte for byte."""
        seconds = 1200
        with monkeypatch.context() as patch:
            reference_demand.install(patch)
            baseline = _run_single(scale_scenario, _SCALE_KWARGS, seconds)
        assert len(baseline["samples"]) > 300   # not vacuously equal
        assert _run_single(scale_scenario, _SCALE_KWARGS,
                           seconds) == baseline
        for jobs in (1, 2, 4):
            assert _run_sharded(scale_scenario, _SCALE_KWARGS, seconds,
                                jobs) == baseline, f"jobs={jobs}"

    def test_chaos_moderate_parity_across_jobs(self, monkeypatch):
        """Moderate chaos: caps fire and machines churn; sample, incident,
        spec, and cap-counter streams must stay byte-identical."""
        seconds = 2400
        with monkeypatch.context() as patch:
            reference_demand.install(patch)
            baseline = _run_single(chaos_scenario, _CHAOS_KWARGS, seconds)
        assert len(baseline["incidents"]) > 0   # detection fired
        assert baseline["caps"] > 0             # caps actually applied
        assert _run_single(chaos_scenario, _CHAOS_KWARGS,
                           seconds) == baseline
        for jobs in (1, 2, 4):
            assert _run_sharded(chaos_scenario, _CHAOS_KWARGS, seconds,
                                jobs) == baseline, f"jobs={jobs}"
