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
* the tick's results are one read-only mapping that builds a machine's
  :class:`TickResult` the first time it is read, from per-tick copies of
  the grant and CPI columns, and lists the machines that had departures
  (:attr:`TickResults.departed`), so a tick that nobody reads costs nothing
  per machine.

Phase 1's demand, cgroup clipping and base-CPI reads run as one compiled
:class:`~repro.cluster.demandplane.DemandColumns` program over the arena
when every resident workload and cgroup compiles; a fleet with any that
does not runs every machine's per-task closures instead.  The fleet's size
selects how the rest of the tick runs:

* a fleet of more than one machine allocates, duty cycles, charges and
  accounts grants over the whole arena with no call per machine
  (:meth:`FusedFleet._allocate`): one ``bincount`` sums each
  (machine, tier) bin's want, a fixed number of elementwise operations
  over the (machine, tier) matrix allocate every tier of every machine,
  and each task table charges the tick's grants as one column of its
  usage matrix and advances one clock for all its rows;
* a one-machine fleet (:meth:`Machine.tick`: trials and ablations) runs
  the machine's own Python loops, :meth:`Machine._tick_alloc` and
  :meth:`Machine._tick_finish`, which cost less than the arena pass's
  fixed numpy calls at that size.

Either way, when every workload's ``on_tick`` is plain accounting its
``granted_cpu_seconds`` is a row of the fleet's ``granted`` column,
advanced with one add; otherwise each machine runs its workloads'
``on_tick``.  Resource profiles are read once, when a table is built at
placement.

Every observable stays bit-identical to stepping the machines one at a time
on a per-task scalar loop — the test oracle ``tests/reference/tick.py``,
which transcribes the same formulas independently of this module
(``tests/test_tick_parity.py`` proves it end to end):

* demand and base-CPI closures — the only tick-phase code that consumes
  randomness — run in the same global order: machines in the simulation's
  name-sorted order, tasks in table order within each machine;
* per-machine pressure sums and per-tier wants match the per-machine
  running sum: ``bincount`` adds each bin's weights in index order
  starting from 0.0 (numpy's pairwise ``.sum()`` and ``reduceat`` would
  round differently);
* tier allocation compares, subtracts, divides and multiplies the same
  operands in the same order as the per-machine loop, and gives 0.0 to a
  task of a skipped tier by selection, never as ``allowed * 0.0`` (an
  infinite allowance times zero is NaN);
* measurement noise comes from one ``(R, total)`` block of log-noise
  (``sigma * z``), filled per machine from its own generator every ``R``
  ticks and read one row per tick.  ``standard_normal(R * n)`` consumes a
  generator exactly as ``R`` calls of ``standard_normal(n)``, so row ``r``
  holds the draws the ``r``-th tick's ``rng.normal(0, sigma)`` per task
  would make, in table order.  Buffered draws belong to the machine: the
  next fleet to step it consumes what this one left
  (``block[rows_used:, segment]``, flattened, re-cut to the machine's new
  task count) before it draws more, and assigning ``Machine.rng`` drops
  them.  Machines with sigma == 0 draw nothing, exactly like the
  reference; their block columns stay 0.0, so the shared ``exp``/multiply
  is a bit-exact no-op (``exp(0.0) == 1.0`` and ``x * 1.0 == x`` for every
  float);
* per-machine platform/model scalars (LLC size, CPI scale, coupling)
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
this fleet installed, and that no machine's generator was reassigned
since the fleet buffered its noise; the simulation and :meth:`Machine.tick`
both rebuild their cached fleet when it does not (and on any placement
change).  The
simulation leaves out of its fleet a machine whose ``tick`` is patched or
overridden (:func:`fused_eligible`) and calls that ``tick`` instead.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.cluster.cgroup import USAGE_HISTORY_SECONDS
from repro.cluster.demandplane import DemandColumns
from repro.cluster.interference import _SATURATE_KNEE
from repro.cluster.machine import _TIER_ORDER, Machine, TickResult
from repro.perf.counters import CounterBank

__all__ = ["FusedFleet", "TickResults", "fused_eligible"]

#: Ticks of measurement noise a fleet buffers per machine (rows of its
#: noise block).
_NOISE_ROWS = 64


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
    cached (and stay assignable).  ``source`` is ``(cpi, grants, arena
    offset, task names)``, where ``cpi`` is the tick's own copy of the
    arena's CPI column and ``grants`` its copy of the grant column, or a
    one-machine fleet's grant list.
    """

    def __init__(self, t: int, source: tuple, departures: list) -> None:
        self.t = t
        self.departures = departures
        self._source = source

    @cached_property
    def grants(self) -> dict[str, float]:
        _, grants, o, names = self._source
        grants = grants[o:o + len(names)]
        if type(grants) is not list:
            grants = grants.tolist()
        return dict(zip(names, grants))

    @cached_property
    def cpis(self) -> dict[str, float]:
        cpi, _, o, names = self._source
        return dict(zip(names, cpi[o:o + len(names)].tolist()))


def _leftover(src: tuple) -> Optional[np.ndarray]:
    """A machine's buffered draws, in generator order, from its
    ``Machine._noise_src``: the rows of the owning fleet's block that fleet
    had not reached (none for a copied-out carry), then ``extra``."""
    owner, o, n, extra = src
    if owner is None:
        return extra
    left = owner.noise_block[owner.noise_row:, o:o + n].ravel()
    return left if extra is None else np.concatenate((left, extra))


class TickResults(Mapping):
    """One fused tick's results: machine name -> :class:`TickResult`.

    Read-only, in the fleet's machine order.  A machine's result is built
    the first time it is read and then kept, so a tick that nobody reads
    makes no call per machine.  :attr:`departed` names the machines that
    had departures (none under batch accounting).
    """

    __slots__ = ("t", "_index", "_cpi", "_grants", "_departures", "_built")

    def __init__(self, t: int, index: dict, cpi: np.ndarray, grants,
                 departures: dict[str, list]) -> None:
        self.t = t
        self._index = index
        self._cpi = cpi
        self._grants = grants
        self._departures = departures
        self._built: dict[str, TickResult] = {}

    @property
    def departed(self) -> tuple[str, ...]:
        """Names of the machines that had departures, in machine order."""
        return tuple(self._departures)

    def __getitem__(self, name: str) -> TickResult:
        result = self._built.get(name)
        if result is None:
            table, o = self._index[name]
            if table is None:
                result = TickResult(t=self.t, departures=[])
            else:
                result = _FusedTickResult(
                    self.t, (self._cpi, self._grants, o, table.names),
                    self._departures.get(name, []))
            self._built[name] = result
        return result

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: object) -> bool:
        return name in self._index


class FusedFleet:
    """One cluster-wide arena for the vectorized tick of many machines."""

    __slots__ = (
        "machines", "tables", "counter_views", "valid",
        "segments", "total", "result_index", "one",
        "seg_id", "bins", "capacity", "allowed", "granted", "left", "fits",
        "live", "ends", "bin_scale", "bin_dead", "row_scale", "row_dead",
        "duty_epoch", "duty_segments",
        "grants", "cache_contrib", "membw_contrib", "tmp", "tmp2",
        "inflation", "cpi", "l3_buf", "l2_buf", "kilo", "noise",
        "cache_pressure", "membw_pressure", "events", "event_columns",
        "counter_arena", "llc_mib", "membw_cap", "cpi_scale",
        "cycles_per_sec", "coupling", "coupling4", "cache_mib",
        "membw_gbps", "cache_sens", "membw_sens", "base_l3", "l2_base",
        "cold", "noise_block", "noise_row", "noise_segments",
        "demand_columns",
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
        self.total = total
        self.segments = tuple(
            (j, m, tb, offsets[j], len(tb.tasks))
            for j, (m, tb) in enumerate(zip(machines, tables))
            if tb.tasks)
        # The machine index of every arena slot: the bins of the
        # per-machine pressure bincount.
        n_machines = len(machines)
        self.seg_id = np.repeat(np.arange(n_machines, dtype=np.intp),
                                [len(tb.tasks) for tb in tables])
        # What each machine's TickResult needs, by name: (table, arena
        # offset), the table None for a machine with no resident task.
        self.result_index = {
            m.name: (tb if tb.tasks else None, o)
            for m, tb, o in zip(machines, tables, offsets)}
        #: False once a machine's generator is reassigned (Machine.rng):
        #: the block holds draws of the old one, so the fleet must go.
        self.valid = True

        # A one-machine fleet with resident tasks runs its machine's own
        # allocation and finish loops: (machine, table), else None.
        self.one = ((machines[0], tables[0])
                    if n_machines == 1 and tables[0].tasks else None)
        # Tier allocation over the arena, built for every other fleet: each
        # slot's (machine, tier) bin, each machine's core capacity, and
        # per-machine / per-bin / per-slot scratch.  The duty-cycle list is
        # rebuilt whenever Machine._duty_mutations moves.
        if self.one is None:
            tier = np.empty(total, dtype=np.intp)
            for _, _, tb, o, _ in self.segments:
                for k, indices in enumerate(tb.tier_indices):
                    tier[[o + i for i in indices]] = k
            self.bins = self.seg_id * len(_TIER_ORDER) + tier
            self.capacity = np.array([m.cpu_capacity for m in machines])
            shape = (n_machines, len(_TIER_ORDER))
            self.left, self.bin_scale = np.empty((2, *shape))
            self.fits, self.live, self.bin_dead = np.empty(
                (3, *shape), dtype=bool)
            self.ends = np.empty((n_machines, len(_TIER_ORDER) - 1),
                                 dtype=bool)
            self.row_scale = np.empty(total)
            self.row_dead = np.empty(total, dtype=bool)
            self.duty_epoch = -1        # forces a listing on first use
            self.duty_segments = ()

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
         self.kilo, self.noise, self.cache_pressure, self.membw_pressure,
         self.allowed) = np.empty((14, total), dtype=np.float64)
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
        (llc, membw, cpi_scale, cycles, coupling,
         coupling4) = np.empty((6, total), dtype=np.float64)
        for j, m, tb, o, n in self.segments:
            end = o + n
            platform = m.platform
            llc[o:end] = platform.llc_mib
            membw[o:end] = platform.membw_gbps
            cpi_scale[o:end] = platform.cpi_scale
            cycles[o:end] = platform.cycles_per_cpu_second
            k = m.interference.miss_rate_coupling
            coupling[o:end] = k
            # 0.25 * k is exact (power-of-two scale), so precomputing the
            # L2 coupling column matches a per-task 0.25 * k bit for bit.
            coupling4[o:end] = 0.25 * k
        self.llc_mib, self.membw_cap = llc, membw
        self.cpi_scale, self.cycles_per_sec = cpi_scale, cycles
        self.coupling, self.coupling4 = coupling, coupling4

        # The noise block: rows of log-noise (sigma * z) per tick, filled
        # per noisy machine at the first step and every _NOISE_ROWS ticks
        # after (_refill_noise); the columns of a sigma == 0 machine stay
        # 0.0.  None when no resident machine is noisy.
        self.noise_segments = tuple(
            (m, o, n, m.cpi_noise_sigma) for _, m, _, o, n in self.segments
            if m.cpi_noise_sigma > 0.0)
        self.noise_block = (np.zeros((_NOISE_ROWS, total))
                            if self.noise_segments else None)
        self.noise_row = _NOISE_ROWS
        # A machine with no resident task here keeps the draws another
        # fleet buffered for it, copied out so that fleet can be freed.
        for m in machines:
            src = m._noise_src
            if src is not None and src[0] is not None and not m._tasks:
                m._noise_src = (None, 0, 0, _leftover(src))

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
                cold.append((o + i, float(pt.cold_start_penalty[i]), scale))
        self.cold = tuple(cold)

        # Batch accounting: each workload's granted_cpu_seconds lives in
        # its row of the fleet's ``granted`` column while this fleet steps
        # it (its own on_tick, run by a fleet without batch accounting, or
        # Machine.remove unbinds it).
        self.granted = np.zeros(total)
        fdc = self.demand_columns
        if fdc is not None and fdc.batch_on_tick:
            for _, _, tb, o, _ in self.segments:
                for i, w in enumerate(tb.workloads):
                    w._bind_granted(self.granted, o + i)

    def matches(self, machine_order: Sequence[tuple[str, Machine]]) -> bool:
        """Whether this fleet is still valid for ``machine_order``.

        Placement changes null out a machine's cached task table, and
        another fleet taking the machine over re-points its counter rows,
        so two identity checks per machine cover every invalidation but
        one: a reassigned ``Machine.rng`` clears :attr:`valid`.
        """
        machines = self.machines
        if len(machine_order) != len(machines) or not self.valid:
            return False
        tables = self.tables
        views = self.counter_views
        for i, (_, m) in enumerate(machine_order):
            tb = tables[i]
            if (m is not machines[i] or m._table is not tb
                    or tb.counter_matrix is not views[i]):
                return False
        return True

    def step(self, t: int) -> TickResults:
        """One fused cluster tick; per-machine results keyed by name, each
        built when first read."""
        # Phase 1: demand, clipping, allocation.  With the fleet's demand
        # program the columnar passes run once over the arena; without one
        # each machine's _tick_inputs runs its closures.  A one-machine
        # fleet then allocates on its machine's loop, any other fleet over
        # the arena.
        g = self.grants
        cpi = self.cpi
        segments = self.segments
        one = self.one
        fdc = self.demand_columns
        if fdc is not None:
            allowed, capped = fdc.allowed_and_capped(t)
            base_all = fdc.base_cpi()
            if fdc.check_base_cpi and not min(base_all) > 0:
                bad = min(base_all)
                raise ValueError(f"base_cpi must be positive, got {bad}")
            cpi[:] = base_all
            if one is not None:
                allowed = allowed.tolist()
        elif one is not None:
            allowed, capped, base = one[0]._tick_inputs(t, one[1])
            cpi[:] = base
        else:
            allowed = self.allowed
            capped = []
            for j, m, tb, o, n in segments:
                a, c, base = m._tick_inputs(t, tb)
                end = o + n
                allowed[o:end] = a
                cpi[o:end] = base
                capped += c
        if one is None:
            self._allocate(t, allowed)
        else:
            grant_list = one[0]._tick_alloc(t, one[1], allowed, capped)
            g[:] = grant_list

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
        for gi, penalty, scale in self.cold:
            cold = 1.0 + penalty * math.exp(-g.item(gi) / scale)
            cpi[gi] = cpi[gi] * cold
        np.multiply(infl, self.coupling, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.base_l3, self.l3_buf)
        np.multiply(infl, self.coupling4, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.l2_base, self.l2_buf)

        if self.noise_block is not None:
            row = self.noise_row
            if row == _NOISE_ROWS:
                self._refill_noise()
                row = 0
            self.noise_row = row + 1
            noise = self.noise
            np.exp(self.noise_block[row], noise)
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

        # Phase 3: charging, accounting and observations.  The CPI column
        # (and the arena's grant column) is overwritten next tick, so
        # results read copies taken here.  An arena fleet charges every
        # table first (the steps of _TaskTable.charge), then runs any
        # on_tick: on_tick only touches its own machine, so the order is
        # unobservable.
        cpi_copy = cpi.copy()
        batch = fdc is not None and fdc.batch_on_tick
        if batch:
            # The inline on_tick accounting skips ``_now``: advance it for
            # the workloads whose base_cpi may read it (the rest never do).
            for w in fdc.now_workloads:
                w._now = t
        departures: dict[str, list] = {}
        if one is None:
            grants = g.copy()
            slot = t % USAGE_HISTORY_SECONDS
            for _, _, tb, o, n in segments:
                if t - 1 != tb.charged_to:
                    for cg in tb.cgroups:
                        cg._advance(t)
                tb.usage_matrix[:, slot] = g[o:o + n]
                tb.charged_to = t
            if batch:
                np.add(self.granted, g, self.granted)
            else:
                grant_list = grants.tolist()
                for _, m, tb, o, n in segments:
                    end = o + n
                    left = m._observe(t, tb, grant_list[o:end],
                                      capped[o:end])
                    if left:
                        departures[m.name] = left
        else:
            grants = grant_list
            m, tb = one
            left = m._tick_finish(t, tb, grant_list, capped, batch)
            if batch:
                np.add(self.granted, g, self.granted)
            elif left:
                departures[m.name] = left
        return TickResults(t, self.result_index, cpi_copy, grants,
                           departures)

    def _refill_noise(self) -> None:
        """Fill every noisy machine's columns of the noise block with its
        next :data:`_NOISE_ROWS` ticks of log-noise.

        A machine's draws that some fleet buffered and did not consume —
        the rows that fleet had not reached, and any excess it could not
        place — come first, re-cut to this fleet's task count; fresh draws
        from the machine's generator make up the rest.  The draws that do
        not fit stay with the machine for the next refill.
        """
        block = self.noise_block
        rows = block.shape[0]
        for m, o, n, sigma in self.noise_segments:
            need = rows * n
            seg = block[:, o:o + n]
            src = m._noise_src
            left = None if src is None else _leftover(src)
            extra = None
            if left is None or not left.size:
                np.multiply(m.rng.standard_normal((rows, n)), sigma, seg)
            elif left.size >= need:
                seg[...] = left[:need].reshape(rows, n)
                if left.size > need:
                    extra = left[need:]
            else:
                fresh = m.rng.standard_normal(need - left.size)
                np.multiply(fresh, sigma, fresh)
                seg[...] = np.concatenate((left, fresh)).reshape(rows, n)
            m._noise_src = (self, o, n, extra)

    def _allocate(self, t: int, allowed: np.ndarray) -> None:
        """Tick phase 3 over the arena: tier allocation, then duty cycling,
        into :attr:`grants`; no call per machine.

        The arithmetic of :meth:`Machine._tick_alloc`, on every machine at
        once, as ``(machine, tier)`` matrices.  One ``bincount`` over the
        slots' bins gives each tier's want, summed from 0.0 in table order.
        ``left`` is the capacity before each tier when every earlier tier
        fitted: the loop's ``remaining -= want`` (subtracting a skipped
        tier's 0.0 changes nothing).  A tier fits when ``want <= left``;
        when every tier of every machine does, the grants are the
        allowances.  Otherwise a tier that wants something and does not
        fit, or leaves nothing, ends its machine's loop; a tier the loop
        reaches with a non-zero want grants its allowances times 1.0, or
        times ``left / want`` when it does not fit, and every other slot
        gets 0.0 by selection.
        """
        g = self.grants
        want = np.bincount(self.bins, weights=allowed,
                           minlength=self.left.size).reshape(self.left.shape)
        left, fits = self.left, self.fits
        np.copyto(left[:, 0], self.capacity)
        for k in range(len(_TIER_ORDER) - 1):
            np.subtract(left[:, k], want[:, k], left[:, k + 1])
        np.less_equal(want, left, fits)
        if fits.all():
            np.copyto(g, allowed)
        else:
            live, ends = self.live, self.ends
            np.greater(want, 0.0, live)
            np.less_equal(left[:, 1:], 0.0, ends)
            np.logical_or(ends, ~fits[:, :-1], ends)
            np.logical_and(ends, live[:, :-1], ends)
            np.logical_or.accumulate(ends, axis=1, out=ends)
            np.logical_and(live[:, 1:], ~ends, live[:, 1:])
            scale = self.bin_scale
            scale.fill(1.0)
            np.divide(left, want, out=scale, where=live & ~fits)
            np.logical_not(live, self.bin_dead)
            bins = self.bins
            scale.take(bins, out=self.row_scale, mode="clip")
            self.bin_dead.take(bins, out=self.row_dead, mode="clip")
            np.multiply(allowed, self.row_scale, g)
            np.copyto(g, 0.0, where=self.row_dead)

        if Machine._duty_mutations != self.duty_epoch:
            self.duty_epoch = Machine._duty_mutations
            self.duty_segments = tuple(
                (m, tb, o, n) for _, m, tb, o, n in self.segments
                if m._duty_cycle is not None)
        for m, tb, o, n in self.duty_segments:
            duty = m.duty_cycle_at(t)
            if duty is None:
                continue
            factor = max(0.0, 1.0 - duty.core_share * (1.0 - duty.level))
            seg = g[o:o + n]
            try:
                i = tb.names.index(duty.target_task)
            except ValueError:
                seg *= factor
            else:
                target = seg.item(i)
                seg *= factor
                seg[i] = target * duty.level
