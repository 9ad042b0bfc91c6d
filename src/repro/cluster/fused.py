"""The tick engine: one simulated second of many machines as one arena.

:class:`FusedFleet` concatenates its machines' task tables into one arena
so the ~30 elementwise operations of a tick run once over *all* resident
tasks instead of once per machine.  It is the only implementation of the
tick's physics (the formulas are stated in
:mod:`repro.cluster.interference`): the simulation steps one fleet over all
its machines, and :meth:`Machine.tick` steps a one-machine fleet of its
own.  The physics phase and the results it returns cost a fixed number of
numpy calls however many machines there are:

* per-machine cache/membw pressure is one ``np.bincount`` over the arena's
  machine-index column, broadcast back to the arena with ``take``;
* every resident cgroup's counters are rows of one counter arena
  (:meth:`~repro.perf.counters.CounterBank.matrix_view` with ``out=``),
  burned with one :meth:`~repro.perf.counters.CounterBank.burn_matrix`;
* each machine's :class:`TickResult` builds its ``grants`` and ``cpis``
  from the tick's grant list and a per-tick copy of the CPI column the
  first time they are read.

Phase 1's demand, cgroup clipping and base-CPI reads run as one compiled
:class:`~repro.cluster.demandplane.DemandColumns` program over the arena
when every resident workload and cgroup compiles; a fleet with any that
does not runs every machine's per-task closures instead.  Tier allocation
(the rest of phase 1) runs per machine.  Phase 3 does no per-task Python
unless a workload needs its own ``on_tick``: each machine's task table
charges the tick's grants as one column of its usage matrix and advances
one clock for all its rows, and when every workload's ``on_tick`` is
plain accounting its ``granted_cpu_seconds`` is a row of the table's
``granted`` column, advanced with one add.  Resource profiles are read
once, when a table is built at placement.

Every observable stays bit-identical to stepping the machines one at a time
on a per-task scalar loop — the test oracle ``tests/reference/tick.py``,
which transcribes the same formulas independently of this module
(``tests/test_tick_parity.py`` proves it end to end):

* demand and base-CPI closures — the only tick-phase code that consumes
  randomness — run in the same global order: machines in the simulation's
  name-sorted order, tasks in table order within each machine;
* per-machine pressure sums match the per-machine running sum: ``bincount``
  adds each bin's weights in index order starting from 0.0 (numpy's
  pairwise ``.sum()`` and ``reduceat`` would round differently);
* measurement noise is drawn per machine from that machine's own generator
  into its segment of the cluster noise buffer: one bulk
  ``standard_normal`` per machine-tick, consumed in table order, the same
  stream as one scalar ``rng.normal(0, sigma)`` per task.  Machines with
  sigma == 0 draw nothing, exactly like the reference; their segment is
  zero-filled so the shared ``exp``/multiply is a bit-exact no-op
  (``exp(0.0) == 1.0`` and ``x * 1.0 == x`` for every float);
* per-machine platform/model scalars (LLC size, CPI scale, coupling, sigma)
  become per-element constant columns, so each element sees the exact
  operand values a per-task evaluation uses;
* workload ``on_tick`` observations and cgroup charging run after the
  cluster math.  Relative to per-machine stepping this moves machine j's
  observations after machine j+1's demand calls, which is unobservable:
  ``on_tick`` never draws randomness and only mutates state local to its
  own task and machine (the control-plane actions that *do* cross machines
  — caps, migrations — actuate from the sample-sink phase, which runs after
  all ticks in both orderings).

A fleet re-points its tables' counter rows into its own arena, so a
machine belongs to one live fleet at a time: whichever fleet stepped it
last.  :meth:`FusedFleet.matches` checks each table still holds the rows
this fleet installed; the simulation and :meth:`Machine.tick` both rebuild
their cached fleet when it does not (and on any placement change).  The
simulation leaves out of its fleet a machine whose ``tick`` is patched or
overridden (:func:`fused_eligible`) and calls that ``tick`` instead.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.cluster.demandplane import DemandColumns
from repro.cluster.interference import _SATURATE_KNEE
from repro.cluster.machine import Machine, TickResult
from repro.perf.counters import CounterBank

__all__ = ["FusedFleet", "fused_eligible"]


def fused_eligible(machine: Machine) -> bool:
    """Whether ``machine`` can join the simulation's cluster-wide fleet.

    The fleet replaces :meth:`Machine.tick`, so a machine whose ``tick`` is
    patched on the instance (tests stub it) or overridden by a subclass
    runs that ``tick`` instead.
    """
    return ("tick" not in machine.__dict__
            and type(machine).tick is Machine.tick)


class _FusedTickResult(TickResult):
    """One machine's :class:`TickResult` from a fused tick.

    ``grants`` and ``cpis`` are built the first time they are read, then
    cached (and stay assignable); most ticks nobody reads them.  ``source``
    is ``(cpi, arena offset, task names, grant list)``, where ``cpi`` is
    the tick's own copy of the arena's CPI column.
    """

    def __init__(self, t: int, source: tuple) -> None:
        self.t = t
        self.departures = []
        self._source = source

    @cached_property
    def grants(self) -> dict[str, float]:
        _, _, names, grants = self._source
        return dict(zip(names, grants))

    @cached_property
    def cpis(self) -> dict[str, float]:
        cpi, o, names, _ = self._source
        return dict(zip(names, cpi[o:o + len(names)].tolist()))


class FusedFleet:
    """One cluster-wide arena for the vectorized tick of many machines."""

    __slots__ = (
        "machines", "tables", "counter_views", "offsets",
        "segments", "total",
        "seg_id", "grants", "cache_contrib", "membw_contrib", "tmp", "tmp2",
        "inflation", "cpi", "l3_buf", "l2_buf", "kilo", "noise",
        "cache_pressure", "membw_pressure", "events", "event_columns",
        "counter_arena", "llc_mib", "membw_cap", "cpi_scale",
        "cycles_per_sec", "sigma", "coupling", "coupling4", "cache_mib",
        "membw_gbps", "cache_sens", "membw_sens", "base_l3", "l2_base",
        "cold", "any_noise", "demand_columns",
    )

    @classmethod
    def build(cls, machine_order: Sequence[tuple[str, Machine]]
              ) -> Optional["FusedFleet"]:
        """A fleet over ``machine_order``, or ``None`` if any machine is
        ineligible (the caller then calls each machine's ``tick``)."""
        machines = tuple(m for _, m in machine_order)
        if not machines:
            return None
        for m in machines:
            if not fused_eligible(m):
                return None
        return cls(machines)

    def __init__(self, machines: tuple[Machine, ...]):
        self.machines = machines
        tables = tuple(m._task_table() for m in machines)
        self.tables = tables
        offsets = []
        total = 0
        for tb in tables:
            offsets.append(total)
            total += len(tb.tasks)
        self.offsets = tuple(offsets)
        self.total = total
        self.segments = tuple(
            (j, m, tb, offsets[j], len(tb.tasks))
            for j, (m, tb) in enumerate(zip(machines, tables))
            if tb.tasks)
        # The machine index of every arena slot: the bins of the
        # per-machine pressure bincount.
        self.seg_id = np.repeat(np.arange(len(machines), dtype=np.intp),
                                [len(tb.tasks) for tb in tables])

        # One demand program over the whole arena: demand/cap/base-CPI
        # columns span every resident task, so phase 1 is a single columnar
        # pass however many machines there are.  Per-task noise draws
        # happen in arena order == machine order x table order, exactly the
        # per-machine sequence.  None (no resident task, or some workload
        # or cgroup beyond the compiler) runs every machine's closures.
        workloads: list = []
        cgroups: list = []
        limits: list[float] = []
        for _, _, tb, _, _ in self.segments:
            workloads.extend(tb.workloads)
            cgroups.extend(tb.cgroups)
            limits.extend(tb.cpu_limits)
        self.demand_columns = DemandColumns.compile(workloads, cgroups,
                                                    limits)

        # Scratch buffers, allocated once per fleet build.
        (self.grants, self.cache_contrib, self.membw_contrib, self.tmp,
         self.tmp2, self.inflation, self.cpi, self.l3_buf, self.l2_buf,
         self.kilo, self.noise, self.cache_pressure,
         self.membw_pressure) = np.empty((13, total), dtype=np.float64)
        self.events = np.empty((total, 5), dtype=np.float64)
        self.event_columns = tuple(self.events[:, i] for i in range(5))

        # One counter arena: every resident cgroup's counter set becomes a
        # row of it, so a tick burns the whole cluster with one add.  Each
        # table's counter_matrix is re-pointed at its segment, which is
        # where the sampler reads it; matches() checks it is still there.
        self.counter_arena = np.empty((total, 5), dtype=np.float64)
        for _, m, tb, o, n in self.segments:
            tb.counter_matrix = m.counters.matrix_view(
                tb.cgroup_names, out=self.counter_arena[o:o + n])
        self.counter_views = tuple(tb.counter_matrix for tb in tables)

        # Per-element constants: each machine's platform/model scalars
        # repeated across its segment, so elementwise ops see exactly the
        # operands a per-task evaluation would use.
        (llc, membw, cpi_scale, cycles, sigma, coupling,
         coupling4) = np.empty((7, total), dtype=np.float64)
        for j, m, tb, o, n in self.segments:
            end = o + n
            platform = m.platform
            llc[o:end] = platform.llc_mib
            membw[o:end] = platform.membw_gbps
            cpi_scale[o:end] = platform.cpi_scale
            cycles[o:end] = platform.cycles_per_cpu_second
            sigma[o:end] = m.cpi_noise_sigma
            k = m.interference.miss_rate_coupling
            coupling[o:end] = k
            # 0.25 * k is exact (power-of-two scale), so precomputing the
            # L2 coupling column matches a per-task 0.25 * k bit for bit.
            coupling4[o:end] = 0.25 * k
        self.llc_mib, self.membw_cap = llc, membw
        self.cpi_scale, self.cycles_per_sec = cpi_scale, cycles
        self.sigma, self.coupling, self.coupling4 = sigma, coupling, coupling4

        self.any_noise = any(m.cpi_noise_sigma > 0.0
                             for _, m, _, _, _ in self.segments)

        # The tables' profile columns (fixed when each table was built),
        # concatenated in segment order (empty tables contribute
        # zero-length arrays, keeping offsets aligned).
        ptables = [tb.profile_table for tb in tables]
        self.cache_mib = np.concatenate(
            [pt.cache_mib_per_cpu for pt in ptables])
        self.membw_gbps = np.concatenate(
            [pt.membw_gbps_per_cpu for pt in ptables])
        self.cache_sens = np.concatenate(
            [pt.cache_sensitivity for pt in ptables])
        self.membw_sens = np.concatenate(
            [pt.membw_sensitivity for pt in ptables])
        self.base_l3 = np.concatenate([pt.base_l3_mpki for pt in ptables])
        self.l2_base = np.concatenate([pt.l2_base_mpki for pt in ptables])

        cold = []
        for j, m, tb, o, n in self.segments:
            pt = tb.profile_table
            scale = m.interference.cold_start_scale
            for i in pt.cold_indices:
                cold.append((o + i, j, i,
                             float(pt.cold_start_penalty[i]), scale))
        self.cold = tuple(cold)

        # Batch accounting: each workload's granted_cpu_seconds lives in
        # its table's ``granted`` column while this fleet steps it (its
        # own on_tick, run by a fleet without batch accounting, unbinds it).
        fdc = self.demand_columns
        if fdc is not None and fdc.batch_on_tick:
            for _, _, tb, _, _ in self.segments:
                granted = tb.granted
                for i, w in enumerate(tb.workloads):
                    w._bind_granted(granted, i)

    def matches(self, machine_order: Sequence[tuple[str, Machine]]) -> bool:
        """Whether this fleet is still valid for ``machine_order``.

        Placement changes null out a machine's cached task table, and
        another fleet taking the machine over re-points its counter rows,
        so two identity checks per machine cover every invalidation.
        """
        machines = self.machines
        if len(machine_order) != len(machines):
            return False
        tables = self.tables
        views = self.counter_views
        for i, (_, m) in enumerate(machine_order):
            tb = tables[i]
            if (m is not machines[i] or m._table is not tb
                    or tb.counter_matrix is not views[i]):
                return False
        return True

    def step(self, t: int) -> dict[str, TickResult]:
        """One fused cluster tick; per-machine results keyed by name."""
        # Phase 1: demand, clipping, allocation.  With the fleet's demand
        # program the columnar passes run once over the arena and only the
        # small tier-allocation loop stays per machine; without one each
        # machine's _tick_inputs runs its closures.
        g = self.grants
        cpi = self.cpi
        segments = self.segments
        inputs: list[Optional[tuple[list[float], list[bool]]]] = \
            [None] * len(self.machines)
        fdc = self.demand_columns
        if fdc is not None:
            allowed_all, capped_all = fdc.allowed_and_capped(t)
            allowed_list = allowed_all.tolist()
            base_all = fdc.base_cpi()
            if fdc.check_base_cpi and not min(base_all) > 0:
                bad = min(base_all)
                raise ValueError(f"base_cpi must be positive, got {bad}")
            cpi[:] = base_all
            for j, m, tb, o, n in segments:
                end = o + n
                capped = capped_all[o:end]
                grants = m._tick_alloc(t, tb, allowed_list[o:end], capped)
                g[o:end] = grants
                inputs[j] = (grants, capped)
        else:
            for j, m, tb, o, n in segments:
                grants, capped, base = m._tick_inputs(t, tb)
                end = o + n
                g[o:end] = grants
                cpi[o:end] = base
                inputs[j] = (grants, capped)

        # Phase 2 (numpy, cluster-wide): contention, inflation, CPI,
        # miss rates, noise, counters — the formulas stated in
        # repro.cluster.interference, over one concatenated arena.
        # (``out`` is passed positionally throughout: the keyword form
        # costs extra argument parsing on every ufunc call.)
        cc, mc = self.cache_contrib, self.membw_contrib
        tmp, tmp2, infl = self.tmp, self.tmp2, self.inflation
        np.multiply(g, self.cache_mib, cc)
        np.divide(cc, self.llc_mib, cc)
        np.multiply(g, self.membw_gbps, mc)
        np.divide(mc, self.membw_cap, mc)
        # Per-machine pressure: bincount sums each machine's contributions
        # in arena order from 0.0, i.e. the per-machine running sum.  With
        # no resident task it returns int64 zeros, hence the cast.  take()
        # broadcasts it back ("clip" skips the buffered out of "raise";
        # every index is in range).
        seg_id = self.seg_id
        n_machines = len(self.machines)
        cache_p = np.bincount(seg_id, weights=cc, minlength=n_machines
                              ).astype(np.float64, copy=False)
        membw_p = np.bincount(seg_id, weights=mc, minlength=n_machines
                              ).astype(np.float64, copy=False)
        pc, pm = self.cache_pressure, self.membw_pressure
        cache_p.take(seg_id, out=pc, mode="clip")
        membw_p.take(seg_id, out=pm, mode="clip")
        np.subtract(pc, cc, tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.multiply(tmp, _SATURATE_KNEE, tmp2)
        np.add(tmp2, 1.0, tmp2)
        np.divide(tmp, tmp2, tmp)
        np.multiply(tmp, self.cache_sens, infl)
        np.subtract(pm, mc, tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.multiply(tmp, _SATURATE_KNEE, tmp2)
        np.add(tmp2, 1.0, tmp2)
        np.divide(tmp, tmp2, tmp)
        np.multiply(tmp, self.membw_sens, tmp)
        np.add(infl, tmp, infl)
        np.multiply(cpi, self.cpi_scale, cpi)
        np.add(infl, 1.0, tmp)
        np.multiply(cpi, tmp, cpi)
        for gi, j, li, penalty, scale in self.cold:
            cold = 1.0 + penalty * math.exp(-inputs[j][0][li] / scale)
            cpi[gi] = cpi[gi] * cold
        np.multiply(infl, self.coupling, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.base_l3, self.l3_buf)
        np.multiply(infl, self.coupling4, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.l2_base, self.l2_buf)

        if self.any_noise:
            noise = self.noise
            for j, m, tb, o, n in segments:
                end = o + n
                if m.cpi_noise_sigma > 0.0:
                    m.rng.standard_normal(out=noise[o:end])
                else:
                    noise[o:end] = 0.0
            np.multiply(noise, self.sigma, noise)
            np.exp(noise, noise)
            np.multiply(cpi, noise, cpi)

        ev = self.events
        cycles, instructions, l2, l3, mem = self.event_columns
        np.multiply(g, self.cycles_per_sec, cycles)
        np.divide(cycles, cpi, instructions)
        np.divide(instructions, 1000.0, self.kilo)
        np.multiply(self.kilo, self.l2_buf, l2)
        np.multiply(self.kilo, self.l3_buf, l3)
        np.multiply(l3, 1.1, mem)
        CounterBank.burn_matrix(self.counter_arena, ev)

        # Phase 3 (per machine): charging and observations.  The CPI
        # column is overwritten next tick, so results read a copy taken
        # here.
        cpi_copy = cpi.copy()
        tables = self.tables
        offsets = self.offsets
        batch = fdc is not None and fdc.batch_on_tick
        if batch:
            # The inline on_tick accounting skips ``_now``: advance it for
            # the workloads whose base_cpi may read it (the rest never do).
            for w in fdc.now_workloads:
                w._now = t
        results: dict[str, TickResult] = {}
        for j, m in enumerate(self.machines):
            inp = inputs[j]
            if inp is None:
                results[m.name] = TickResult(t=t, departures=[])
                continue
            tb = tables[j]
            grants, capped = inp
            result = _FusedTickResult(
                t, (cpi_copy, offsets[j], tb.names, grants))
            m._tick_finish(t, tb, result, grants, capped, batch)
            results[m.name] = result
        return results
