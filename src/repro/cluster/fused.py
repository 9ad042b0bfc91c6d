"""The tick engine: simulated seconds of many machines as one arena.

:class:`FusedFleet` concatenates its machines' task tables into one arena
so the ~30 elementwise operations of a tick run once over *all* resident
tasks instead of once per machine.  A second runs in one of two ways, for
any number of machines:

* :meth:`FusedFleet.step`, one second of any fleet: the demand program,
  tier allocation, then the physics and the usage charge, then the
  workloads' ``on_tick`` observations;
* :meth:`FusedFleet.block`, ``k`` seconds of a blockable fleet: the same
  phases, demand and allocation as one ``(seconds x tasks)`` pass, then
  the physics and the charge once.

Both share one routine per phase, each over ``(tick, machine)`` segments:
the demand program (:mod:`repro.cluster.demandplane`), tier allocation
and duty cycling (:meth:`FusedFleet._allocate`), the physics
(:meth:`FusedFleet._physics`, the only implementation of the formulas
stated in :mod:`repro.cluster.interference`) and the charge
(:meth:`FusedFleet._charge`).  The simulation steps one fleet over all its
machines: a block for the quiet seconds between events, a step at each
event second.  :meth:`Machine.tick` steps a one-machine fleet of its own,
and :meth:`Machine.advance` runs that fleet a block at a time where it
takes one and a step at any other second (trials and ablations advance
from one sampling-window edge to the next).  A block is at most
:data:`_BLOCK_SLOTS` arena slots (seconds x tasks) and 64 seconds.  Each
phase costs a fixed number of numpy calls however many machines and
seconds there are:

* the demand program is one compiled
  :class:`~repro.cluster.demandplane.DemandColumns` pass over the arena
  when every resident workload and cgroup compiles; an arena with any
  that does not calls every row's closures
  (:class:`~repro.cluster.demandplane.DemandClosures`) behind the same
  interface;
* allocation is one ``bincount`` summing each (tick x machine, tier) bin's
  want and a fixed number of elementwise operations over the (tick x
  machine, tier) matrix, for every tier of every machine;
* per-(tick, machine) cache/membw pressure is one ``np.bincount`` over the
  arena's bin column, broadcast back to the arena with ``take``;
* every resident cgroup's counters are rows of one counter arena
  (:meth:`~repro.perf.counters.CounterBank.matrix_view` with ``out=``),
  burned with one :meth:`~repro.perf.counters.CounterBank.burn_matrix`
  per tick, or a block's ticks as one sequential ``np.add.accumulate``;
* a tick's grants (a block's ticks) are columns of every task table's
  usage history, one ``UsageHistory.charge_each`` for the fleet;
* the tick's results are one read-only mapping that builds a machine's
  :class:`TickResult` the first time it is read, from per-tick copies of
  the grant and CPI columns, and lists the machines that had departures
  (:attr:`TickResults.departed`), so a tick that nobody reads costs nothing
  per machine.

When every workload's ``on_tick`` is plain accounting its
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
* a block defers every second's physics and charge to one commit, which
  is unobservable because nothing in its per-second half reads counters
  or usage, no workload of a blockable fleet observes a second
  (``on_tick`` is plain accounting, so nothing departs), and no second of
  it can raise (:meth:`FusedFleet.block`);
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
import sys
from collections.abc import Mapping
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.cluster.cgroup import UsageHistory
from repro.cluster.demandplane import _PRIVATE_RNG_REFS, DemandColumns
from repro.cluster.interference import _SATURATE_KNEE
from repro.cluster.machine import _TIER_ORDER, Machine, TickResult
from repro.perf.counters import CounterBank

__all__ = ["FusedFleet", "TickResults", "fused_eligible"]

#: Ticks of measurement noise a fleet buffers per machine (rows of its
#: noise block), and the longest block a fleet steps, so a block reads
#: across at most one refill.
_NOISE_ROWS = 64

#: The arena slots (seconds x tasks) a fleet's block buffers hold: a
#: block is ``clamp(_BLOCK_SLOTS // total, 2, _NOISE_ROWS)`` seconds long.
#: Each slot costs about 190 bytes of buffers (the fleet's grant, CPI,
#: scratch and counter-increment rows and bins, and its demand program's
#: rows).  64-second blocks over the 600-640-task benchmark fleets raised
#: their peak RSS by about 3 MiB; 4096 slots raise it by under 1 MiB and
#: still give a 10-task trial machine 64-second blocks.
_BLOCK_SLOTS = 4096

_INF = math.inf


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
    offset, task names)``, where ``cpi`` and ``grants`` are the tick's own
    copies of the arena's CPI and grant columns.
    """

    def __init__(self, t: int, source: tuple, departures: list) -> None:
        self.t = t
        self.departures = departures
        self._source = source

    @cached_property
    def grants(self) -> dict[str, float]:
        _, grants, o, names = self._source
        return dict(zip(names, grants[o:o + len(names)].tolist()))

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

    def __init__(self, t: int, index: dict, cpi: np.ndarray,
                 grants: np.ndarray, departures: dict[str, list]) -> None:
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
        "segments", "usage_parts", "total", "result_index", "batch",
        "rows", "max_rows", "block_ids", "views",
        "seg_id", "bins", "capacity", "granted", "left", "fits",
        "live", "ends", "bin_scale", "bin_dead", "row_scale", "row_dead",
        "tier_bins", "capacities", "blockable", "noise_private",
        "duty_epoch", "duty_segments",
        "grants", "cpi", "scratch", "events",
        "counter_arena", "llc_mib", "membw_cap", "cpi_scale",
        "cycles_per_sec", "coupling", "coupling4", "cache_mib",
        "membw_gbps", "cache_sens", "membw_sens", "base_l3", "l2_base",
        "cold", "noise_block", "noise_row", "noise_segments",
        "demand_columns", "__weakref__",
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
        #: Each table's usage history and its rows of the arena.
        self.usage_parts = tuple((tb.usage, o, o + n)
                                 for _, _, tb, o, n in self.segments)
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

        # Tier allocation over (tick x machine, tier) bins: each slot's
        # (machine, tier) bin within one second and each machine's core
        # capacity, repeated over a block's rows by _alloc_rows.  The
        # duty-cycle list is rebuilt whenever Machine._duty_mutations moves.
        tier = np.empty(total, dtype=np.intp)
        for _, _, tb, o, _ in self.segments:
            for k, indices in enumerate(tb.tier_indices):
                tier[[o + i for i in indices]] = k
        self.bins = self.seg_id * len(_TIER_ORDER) + tier
        self.capacity = np.array([m.cpu_capacity for m in machines])
        self.duty_epoch = -1        # forces a listing on first use
        self.duty_segments = ()

        # One demand program over the whole arena: demand/cap/base-CPI
        # columns span every resident task, so phase 1 is a single columnar
        # pass however many machines there are.  Per-task noise draws
        # happen in arena order == machine order x table order, exactly the
        # per-machine sequence.  An arena some workload or cgroup of which
        # is beyond the compiler (or that has no resident task) gets the
        # rows' closures, in the same order.
        workloads: list = []
        cgroups: list = []
        limits: list[float] = []
        for _, _, tb, _, _ in self.segments:
            workloads.extend(tb.workloads)
            cgroups.extend(tb.cgroups)
            limits.extend(tb.cpu_limits)
        fdc = self.demand_columns = DemandColumns.compile(
            workloads, cgroups, limits)
        if type(fdc) is not DemandColumns and workloads:
            from repro.obs import default_observability
            default_observability().metrics.counter(
                "demand_program_fallbacks").inc()

        # Block buffers, one row per second (one row until the first
        # block).
        self._alloc_rows(1)

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
        # Cold-start slots as (arena indices, penalties, scales), or None.
        self.cold = (np.array([c[0] for c in cold], dtype=np.intp),
                     [c[1] for c in cold], [c[2] for c in cold]
                     ) if cold else None

        # Batch accounting: each workload's granted_cpu_seconds lives in
        # its row of the fleet's ``granted`` column while this fleet steps
        # it (its own on_tick, run by a fleet without batch accounting, or
        # Machine.remove unbinds it).
        self.granted = np.zeros(total)
        self.batch = fdc.batch_on_tick
        if self.batch:
            for _, _, tb, o, _ in self.segments:
                for i, w in enumerate(tb.workloads):
                    w._bind_granted(self.granted, o + i)
        # Whether a block's per-second half may run as one array pass
        # (block): the fleet's program is blockable.  A block is at most
        # ``rows`` seconds, sized from the slot budget.
        self.blockable = fdc.blockable
        self.rows = min(_NOISE_ROWS, max(2, _BLOCK_SLOTS // max(total, 1)))
        # Whether nothing but this fleet can draw any noisy machine's
        # generator: no reference to it beyond the machine's own (the
        # demand plane's privacy test, machine by machine).
        self.noise_private = all(
            sys.getrefcount(m._rng) <= _PRIVATE_RNG_REFS
            for m, _, _, _ in self.noise_segments)

    def _alloc_rows(self, rows: int) -> None:
        """(Re)allocate the block buffers for ``rows`` seconds: the grant
        and CPI rows, the physics scratch, the counter increments in the
        counter arena's ``(total, 5)`` layout per second, each slot's
        (tick, machine) bin and (tick, machine, tier) bin, and the
        allocation's ``(tick x machine, tier)`` matrices."""
        total = self.total
        n_machines = len(self.machines)
        tiers = len(_TIER_ORDER)
        self.grants, self.cpi = np.empty((2, rows, total))
        self.scratch = np.empty((11, rows, total))
        self.events = np.empty((rows, total, 5))
        ticks = np.arange(rows, dtype=np.intp)[:, None]
        self.block_ids = (ticks * n_machines + self.seg_id).ravel()
        self.tier_bins = (ticks * (n_machines * tiers) + self.bins).ravel()
        self.capacities = np.tile(self.capacity, rows)
        shape = (rows * n_machines, tiers)
        self.left, self.bin_scale = np.empty((2, *shape))
        self.fits, self.live, self.bin_dead = np.empty((3, *shape),
                                                       dtype=bool)
        self.ends = np.empty((rows * n_machines, tiers - 1), dtype=bool)
        self.row_scale = np.empty(rows * total)
        self.row_dead = np.empty(rows * total, dtype=bool)
        self.max_rows = rows
        #: Each block length's buffer views, built once, so a step or a
        #: block makes no view.
        self.views: dict[int, tuple] = {}

    def _views(self, k: int) -> tuple:
        """The buffer views of a ``k``-second block: :meth:`_physics`'s
        and :meth:`_allocate`'s (built at first use, then cached)."""
        views = self.views.get(k)
        if views is None:
            views = self.views[k] = (self._physics_views(k),
                                     self._alloc_views(k))
        return views

    def _alloc_views(self, k: int) -> tuple:
        """The allocation buffers over rows ``0 .. k-1``, in
        :meth:`_allocate`'s order: every slot's (tick, machine, tier) bin,
        each (tick, machine)'s capacity, the ``left``, ``fits``, ``live``,
        ``ends``, ``bin_scale`` and ``bin_dead`` matrices, and the
        per-slot scale and dead flags."""
        slots = k * self.total
        bins = k * len(self.machines)
        return (self.tier_bins[:slots], self.capacities[:bins],
                self.left[:bins], self.fits[:bins], self.live[:bins],
                self.ends[:bins], self.bin_scale[:bins],
                self.bin_dead[:bins], self.row_scale[:slots],
                self.row_dead[:slots])

    def _physics_views(self, k: int) -> tuple:
        """Every block buffer over rows ``0 .. k-1`` — one second's 1-D
        rows when ``k`` is 1 (ufuncs on 1-D rows cost half what they cost
        broadcasting a (1, total) row against the per-element constants),
        else ``(k, total)`` blocks — in
        :meth:`_physics`'s order: grants, CPI, the scratch, the five
        increment columns and the increments; then the (tick, machine)
        bin of every slot, the bin count, the contributions and pressures
        flattened, and the noise factors as ``(k, total)``."""
        rows = 0 if k == 1 else slice(0, k)
        ev = self.events[rows]
        scratch = self.scratch[:, rows]
        cc, mc, noise, pc, pm = (scratch[i] for i in (0, 1, 8, 9, 10))
        return (self.grants[rows], self.cpi[rows], *scratch,
                *(ev[..., i] for i in range(5)), ev,
                self.block_ids[:k * self.total], k * len(self.machines),
                cc.reshape(-1), mc.reshape(-1), pc.reshape(-1),
                pm.reshape(-1), noise.reshape(k, -1))

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
        built when first read.

        The demand program's allowances and base CPIs, tier allocation
        and duty cycling (:meth:`_allocate`), :meth:`commit`, then the
        workloads' ``on_tick`` observations, or under batch accounting
        the ``_now`` clock.
        """
        fdc = self.demand_columns
        allowed, capped = fdc.allowed_and_capped(t)
        base_all = fdc.base_cpi()
        if fdc.check_base_cpi and not min(base_all) > 0:
            bad = min(base_all)
            raise ValueError(f"base_cpi must be positive, got {bad}")
        self.cpi[0] = base_all
        self._allocate(t, 1, allowed, self.grants[0])
        self.commit(t, 1)
        # The CPI and grant rows are overwritten next tick, so results
        # read copies taken here.
        cpi = self.cpi[0].copy()
        grants = self.grants[0].copy()
        departures: dict[str, list] = {}
        if self.batch:
            for w in fdc.now_workloads:
                w._now = t
        else:
            grant_list = grants.tolist()
            for _, m, tb, o, n in self.segments:
                end = o + n
                left = m._observe(t, tb, grant_list[o:end], capped[o:end])
                if left:
                    departures[m.name] = left
        return TickResults(t, self.result_index, cpi, grants, departures)

    def block(self, t0: int, t1: int) -> int:
        """Seconds ``t0 ..`` toward ``t1`` as one block with the
        per-second half as one pass, for any number of machines; returns
        the second after the block, or ``t0`` when the block must step
        second by second instead (having run and drawn nothing).

        The pass: the program's base-CPI, demand and allowance rows, then
        tier allocation over (tick x machine, tier) bins, then
        :meth:`commit`; the batch ``_now`` clock is set once, to the
        block's last second.  Nothing in the per-second half reads
        counters or usage, so deferring every second's physics and charge
        to the one commit equals :meth:`step` at every second.  It runs
        only when the fleet is :attr:`blockable` (batch accounting, a
        compiled program with every dynamic base CPI pure and finite
        limits, so no row's grant can be non-finite and no second can
        raise in the burn), no program buffers a shared stream, every
        table's clock ends at ``t0 - 1``, no machine has a duty cycle in
        force at ``t0`` (one in force later would have to start inside
        the block), and every row's base CPI is positive (the per-second
        step raises it at its second).  The block is at most :attr:`rows`
        seconds and, when something else may draw a noisy machine's
        generator (not :attr:`noise_private`), runs through the second
        whose physics refills the noise block at the latest, so the refill
        falls between the same draws as in a second-by-second run.
        """
        fdc = self.demand_columns
        if not self.blockable or not fdc.block_ready():
            return t0
        for _, _, tb, _, _ in self.segments:
            if tb.usage.last != t0 - 1:
                return t0
        for m, _, _, _ in self._duty_segments():
            if m.duty_cycle_at(t0) is not None:
                return t0
        if self.max_rows < self.rows:
            self._alloc_rows(self.rows)
        end = min(t1, t0 + self.rows)
        if not self.noise_private:
            end = min(end, t0 + _NOISE_ROWS + 1 - self.noise_row)
        k = end - t0
        if not fdc.base_cpi_block(t0, self.cpi[:k]):
            return t0
        allowed = fdc.allowed_block(t0, k)
        self._allocate(t0, k, allowed.reshape(-1),
                       self.grants[:k].reshape(-1))
        self.commit(t0, k)
        for w in fdc.now_workloads:
            w._now = end - 1
        return end

    def commit(self, t0: int, k: int) -> None:
        """Run the ``k`` seconds of block rows ``0 .. k-1`` from ``t0``:
        their physics, counter burn, usage charge and grant accounting.

        When every second's counter increments are valid they burn as
        sequential adds (``np.add.accumulate`` over the seconds, never a
        pairwise sum); otherwise second by second through
        :meth:`CounterBank.burn_matrix`, each charged after its burn, so
        the seconds before a rejected one commit and its error raises
        exactly as per-second steps would.
        """
        ev = self._physics(k)
        arena = self.counter_arena
        if k == 1:
            CounterBank.burn_matrix(arena, ev)
            self._charge(t0, 0, 1)
        elif ev.min() >= 0.0 and ev.max() != _INF:
            ev[0] += arena
            np.add.accumulate(ev, axis=0, out=ev)
            arena[...] = ev[k - 1]
            self._charge(t0, 0, k)
        else:
            for i in range(k):
                CounterBank.burn_matrix(arena, ev[i])
                self._charge(t0 + i, i, i + 1)

    def _physics(self, k: int) -> np.ndarray:
        """Contention, inflation, CPI, cold start, miss rates, noise and
        counter increments for block rows ``0 .. k-1``; returns the
        ``(k, total, 5)`` increments (``(total, 5)`` when ``k`` is 1).

        The formulas stated in :mod:`repro.cluster.interference`, over
        ``(tick, machine)`` segments: row ``r`` of every buffer is one
        second of the whole arena, per-element constants broadcast across
        the rows, and each (tick, machine) bin's pressure is one
        ``np.bincount`` bin.  :meth:`step` is its one-row case.  (``out``
        is passed positionally throughout: the keyword form costs extra
        argument parsing on every ufunc call.)
        """
        (g, cpi, cc, mc, tmp, tmp2, infl, l3, l2, kilo, noise, pc, pm,
         cycles, instructions, l2e, l3e, mem, ev, ids, bins, cc_flat,
         mc_flat, pc_flat, pm_flat, exp) = self._views(k)[0]
        np.multiply(g, self.cache_mib, cc)
        np.divide(cc, self.llc_mib, cc)
        np.multiply(g, self.membw_gbps, mc)
        np.divide(mc, self.membw_cap, mc)
        # Per-(tick, machine) pressure: bincount sums each bin's
        # contributions in arena order from 0.0, i.e. the per-machine
        # running sum.  With no resident task it returns int64 zeros,
        # hence the cast.  take() broadcasts it back ("clip" skips the
        # buffered out of "raise"; every index is in range).
        np.bincount(ids, weights=cc_flat, minlength=bins).astype(
            np.float64, copy=False).take(ids, out=pc_flat, mode="clip")
        np.bincount(ids, weights=mc_flat, minlength=bins).astype(
            np.float64, copy=False).take(ids, out=pm_flat, mode="clip")
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
        # Cold start: every cold slot's factor in scalar math.exp (np.exp
        # may round differently), then one elementwise multiply.
        if self.cold is not None:
            idx, penalties, scales = self.cold
            x = self.grants[:k, idx]
            factors = [1.0 + p * math.exp(-v / s) for v, p, s in zip(
                x.ravel().tolist(), penalties * k, scales * k)]
            self.cpi[:k, idx] *= np.reshape(factors, x.shape)
        np.multiply(infl, self.coupling, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.base_l3, l3)
        np.multiply(infl, self.coupling4, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.l2_base, l2)

        block = self.noise_block
        if block is not None:
            # The block's rows in order, across a refill when they run
            # past its end.
            row = self.noise_row
            m = _NOISE_ROWS - row
            if k <= m:
                np.exp(block[row:row + k], exp)
                self.noise_row = row + k
            else:
                if m:
                    np.exp(block[row:], exp[:m])
                self.noise_row = _NOISE_ROWS    # every buffered row read
                self._refill_noise()
                np.exp(block[:k - m], exp[m:])
                self.noise_row = k - m
            np.multiply(cpi, noise, cpi)

        np.multiply(g, self.cycles_per_sec, cycles)
        np.divide(cycles, cpi, instructions)
        np.divide(instructions, 1000.0, kilo)
        np.multiply(kilo, l2, l2e)
        np.multiply(kilo, l3, l3e)
        np.multiply(l3e, 1.1, mem)
        return ev

    def _charge(self, t0: int, lo: int, hi: int) -> None:
        """Charge block rows ``lo .. hi-1`` (seconds ``t0 ..``) into every
        table's usage history, one column per second, with one
        :meth:`~repro.cluster.cgroup.UsageHistory.charge_each` for the
        fleet; under batch accounting add them to the ``granted`` column
        as sequential per-second adds.

        Each history checks for a replayed second before anything of its
        table is written, and zero-fills skipped ones.  The grants need no
        check here: the counter burn has already rejected negative and NaN
        ones.
        """
        k = hi - lo
        if k == 1:
            src = self.grants[lo]
        else:
            g = self.grants[lo:hi]
            src = g.T
        UsageHistory.charge_each(t0, src, self.usage_parts)
        if self.batch:
            granted = self.granted
            if k == 1:
                np.add(granted, src, granted)
            else:
                acc = self.scratch[2, :k]       # the physics' tmp rows
                np.copyto(acc, g)
                acc[0] += granted
                np.add.accumulate(acc, axis=0, out=acc)
                granted[...] = acc[k - 1]

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

    def _allocate(self, t0: int, k: int, allowed: np.ndarray,
                  g: np.ndarray) -> None:
        """Tick phase 3 of seconds ``t0 .. t0+k-1`` over the arena: tier
        allocation, then duty cycling, from the flattened ``(k, total)``
        allowances into the flattened grant rows ``g``; no call per
        machine or second.

        The arithmetic of a per-machine loop over the tiers (latency
        sensitive, batch, best effort: pro-rata within the first tier that
        does not fit), on every machine of every second at once, as
        ``(tick x machine, tier)`` matrices (the way :meth:`_physics` bins
        by (tick, machine)); :meth:`step` is its one-second case.  One
        ``bincount`` over the slots' bins gives each tier's want, summed
        from 0.0 in table order.  ``left`` is the
        capacity before each tier when every earlier tier fitted: the
        loop's ``remaining -= want`` (subtracting a skipped tier's 0.0
        changes nothing).  A tier fits when ``want <= left``; when every
        tier of every machine does, the grants are the allowances.
        Otherwise a tier that wants something and does not fit, or leaves
        nothing, ends its machine's loop; a tier the loop reaches with a
        non-zero want grants its allowances times 1.0, or times ``left /
        want`` when it does not fit, and every other slot gets 0.0 by
        selection.
        """
        (bins, capacity, left, fits, live, ends, scale, dead, row_scale,
         row_dead) = self._views(k)[1]
        want = np.bincount(bins, weights=allowed,
                           minlength=left.size).reshape(left.shape)
        np.copyto(left[:, 0], capacity)
        for j in range(len(_TIER_ORDER) - 1):
            np.subtract(left[:, j], want[:, j], left[:, j + 1])
        np.less_equal(want, left, fits)
        if fits.all():
            np.copyto(g, allowed)
        else:
            np.greater(want, 0.0, live)
            np.less_equal(left[:, 1:], 0.0, ends)
            np.logical_or(ends, ~fits[:, :-1], ends)
            np.logical_and(ends, live[:, :-1], ends)
            np.logical_or.accumulate(ends, axis=1, out=ends)
            np.logical_and(live[:, 1:], ~ends, live[:, 1:])
            scale.fill(1.0)
            np.divide(left, want, out=scale, where=live & ~fits)
            np.logical_not(live, dead)
            scale.take(bins, out=row_scale, mode="clip")
            dead.take(bins, out=row_dead, mode="clip")
            # An infinite allowance in a tier scaled to 0.0 makes a NaN
            # grant, which the counter burn refuses; no warning for it.
            with np.errstate(invalid="ignore"):
                np.multiply(allowed, row_scale, g)
            np.copyto(g, 0.0, where=row_dead)

        duty_segments = self._duty_segments()
        for r in range(k) if duty_segments else ():
            row = g[r * self.total:(r + 1) * self.total]
            for m, tb, o, n in duty_segments:
                duty = m.duty_cycle_at(t0 + r)
                if duty is None:
                    continue
                factor = max(0.0, 1.0 - duty.core_share * (1.0 - duty.level))
                seg = row[o:o + n]
                try:
                    i = tb.names.index(duty.target_task)
                except ValueError:
                    seg *= factor
                else:
                    target = seg.item(i)
                    seg *= factor
                    seg[i] = target * duty.level

    def _duty_segments(self) -> tuple:
        """``(machine, table, offset, count)`` of every machine that had a
        duty cycle when :attr:`Machine._duty_mutations` last moved (some
        of them may have expired since)."""
        if Machine._duty_mutations != self.duty_epoch:
            self.duty_epoch = Machine._duty_mutations
            self.duty_segments = tuple(
                (m, tb, o, n) for _, m, tb, o, n in self.segments
                if m._duty_cycle is not None)
        return self.duty_segments
