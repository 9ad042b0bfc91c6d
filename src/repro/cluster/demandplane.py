"""The vectorized demand/allocation plane: columnar demand programs.

The tick batches its *physics* into numpy arrays over a fleet arena
(:mod:`repro.cluster.fused`), but phases 1-3 and 5b-6 — demand
evaluation, cgroup clipping, base-CPI reads, charging, ``on_tick``
accounting — still made three Python closure calls per task per simulated
second.  This module removes that last big
Python loop from the hot path: :class:`DemandColumns` compiles the
declarative ``spec`` forms that the combinators in
:mod:`repro.workloads.demand` attach to their closures into
struct-of-arrays programs, so a fleet's demand for tick ``t`` — one
machine's or a whole cluster's — is a handful of numpy ufunc passes.

Bit-exactness against the per-task closures is a hard contract
(``docs/performance.md`` has the full argument):

* **RNG ordering** — every consumer of a generator's normals (the
  ``with_noise`` closure, this program, a transaction counter, a latency
  model) draws through that generator's one :class:`NormalStream`, so the
  generator has exactly one cursor.  A generator private to its stream
  gets a row of the program's ``(k, 256)`` noise block: a tick's noise is
  one gather, and a row whose cursor reaches 256 refills with
  ``standard_normal(out=row)``, which consumes the bit stream exactly as
  256 scalar draws.  Shared generators keep strict per-tick scalar draws
  in arena order (machine order x table order); the block form
  (:meth:`DemandColumns.demand_block`) draws each once per block, in
  (second, arena) order.  Either way every consumer sees the sequence the
  scalar closures would draw, and a closed
  :func:`~repro.workloads.demand.gated` row draws nothing.
* **Operand order** — every compiled formula multiplies/adds in the same
  order as its closure, clamps with the same NaN-safe ``d if d > 0.0 else
  0.0`` branch, and keeps the one transcendental per noisy task
  (``np.exp``) elementwise-identical to the scalar call.
* **Shared factor evaluation** — ``scaled`` factors carrying a ``spec``
  attribute (e.g. :class:`~repro.workloads.diurnal.DiurnalPattern`)
  declare themselves pure, so tasks with equal factor specs share one
  scalar evaluation per tick; the ``math.cos`` calls stay scalar and
  therefore bit-identical.
* **Eligibility fallback** — an arena the compiler cannot express (a
  hand-written demand lambda, an overridden ``cpu_demand``, a subclassed
  cgroup, non-finite parameters) still gets a program:
  :meth:`DemandColumns.compile` returns :class:`DemandClosures`, which
  calls every row's closures in arena order behind the same interface,
  and the fleet counts ``demand_program_fallbacks``.  The workloads make
  this choice; no option or environment variable does.

Cgroup state is columnar too: per-task limit and hard-cap columns are
rebuilt only when any cap changes (a class-level mutation counter on
:class:`~repro.cluster.cgroup.Cgroup`).  Charging is not part of this
plane: the machine's task table writes each tick's grants straight into
its cgroups' usage rings, one column of a shared matrix.

The closures double as the reference: ``tests/test_demand_plane.py``
pins compiled == closures by making :meth:`DemandColumns.compile` build
:class:`DemandClosures` everywhere (``tests/reference/demand.py``), or by
binding ``cpu_demand`` on a workload instance, which puts any arena
holding it on the closures.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.cluster.cgroup import Cgroup

__all__ = ["DemandClosures", "DemandColumns", "NormalStream"]

_INF = float("inf")

#: Draws buffered per row of a program's noise block.
_DRAW_CHUNK = 256

#: ``sys.getrefcount`` ceiling that proves a noise generator is private to
#: its :class:`NormalStream`: the stream's own reference plus getrefcount's
#: argument.  Any further reference — a second stream over the same
#: generator, a model that kept the generator, a test holding it — means
#: someone might draw from it directly, so its stream must stay strictly
#: per-tick.
_PRIVATE_RNG_REFS = 2


class NormalStream:
    """One generator's ``standard_normal()`` sequence, with one cursor.

    Every consumer of a generator's normals draws through its one stream,
    so buffering draws never reorders them.  Outside a compiled program
    (``home is None``) :meth:`take` draws a scalar from ``rng``.  Once a
    :class:`DemandColumns` program adopts the stream, its state is row
    ``row`` of that program's noise block plus that row's cursor, and
    :meth:`take` reads it there.
    """

    __slots__ = ("rng", "home", "row")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.home: Optional["DemandColumns"] = None
        self.row = 0

    def take(self) -> float:
        """The next value of ``rng``'s ``standard_normal()`` sequence."""
        home = self.home
        if home is None:
            return self.rng.standard_normal()
        return home._take(self.row)

    def normal(self, sigma: float) -> float:
        """The next ``rng.normal(0.0, sigma)``, drawn through the stream.

        ``0.0 + sigma * z`` is numpy's own ``normal(loc, scale)`` formula
        over the same ziggurat draw, so the value is bit-identical.
        """
        return 0.0 + sigma * self.take()


# The workload modules import repro.cluster.interference, whose package
# __init__ imports machine, which imports this module — so the reference to
# SyntheticWorkload and the spec classes must resolve lazily at first
# compile, after every module involved has finished importing.
_WMODS = None


def _workload_modules():
    global _WMODS
    if _WMODS is None:
        from repro.workloads import base as wbase
        from repro.workloads import demand as wdemand
        _WMODS = (wbase, wdemand)
    return _WMODS


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _as_index(indices: list[int], n: int):
    """A fancy index for ``indices`` — the cheap full slice when possible."""
    if len(indices) == n and indices == list(range(n)):
        return slice(None)
    return np.asarray(indices, dtype=np.intp)


def _spec_rows(workloads: Sequence, cgroups: Sequence[Cgroup]
               ) -> Optional[tuple[list, list, list, list]]:
    """Every row's leaf spec, ``scaled`` factors (innermost first), noise
    spec and gate start, or ``None`` when some row or cgroup is beyond
    :meth:`DemandColumns.compile` (or there is no row)."""
    wbase, wdemand = _workload_modules()
    sw = wbase.SyntheticWorkload
    if not workloads:
        return None
    leaves: list = []
    chains: list[tuple] = []      # scaled factors, innermost first
    noises: list = []             # NoiseSpec or None
    gates: list = []              # GatedSpec.start or None
    try:
        for w in workloads:
            if (type(w).cpu_demand is not sw.cpu_demand
                    or "cpu_demand" in getattr(w, "__dict__", ())):
                return None
            spec = wdemand.demand_spec(w._demand)
            gate = None
            if isinstance(spec, wdemand.GatedSpec):
                gate = spec.start
                spec = spec.base
            noise = None
            if isinstance(spec, wdemand.NoiseSpec):
                noise = spec
                if not _finite(noise.sigma):
                    return None
                spec = spec.base
            factors = []
            while isinstance(spec, wdemand.ScaledSpec):
                if getattr(spec.factor, "spec", None) is None:
                    return None
                factors.append(spec.factor)
                spec = spec.base
            if isinstance(spec, wdemand.ConstantSpec):
                ok = _finite(spec.level)
            elif isinstance(spec, wdemand.OnOffSpec):
                ok = _finite(spec.on_level, spec.off_level,
                             spec.on_seconds)
            else:
                return None
            if not ok:
                return None
            leaves.append(spec)
            chains.append(tuple(reversed(factors)))
            noises.append(noise)
            gates.append(gate)
    except AttributeError:
        return None
    for cg in cgroups:
        if type(cg) is not Cgroup:
            return None
    if len({id(cg) for cg in cgroups}) != len(workloads):
        return None
    return leaves, chains, noises, gates


class DemandClosures:
    """The demand program of an arena :meth:`DemandColumns.compile` cannot
    express: every row's own closures, in arena order.

    The per-second interface of :class:`DemandColumns` (never blockable,
    never batch-accounted): each row's ``cpu_demand(t)``, clamped at 0.0
    (NaN included), clipped by its limit and by any cap in force; then
    every row's ``base_cpi()``.  Demand closures draw in arena order,
    which is machine order x table order, as stepping the machines one at
    a time would.  No base-CPI read draws, so reading them after every
    row's demand moves no draw.
    """

    __slots__ = ("_rows", "_base_cpi_fns", "_allowed", "check_base_cpi")

    batch_on_tick = False
    blockable = False
    now_workloads = ()

    def __init__(self, workloads: Sequence, cgroups: Sequence[Cgroup],
                 cpu_limits: Sequence[float]) -> None:
        self._rows = tuple(zip([w.cpu_demand for w in workloads], cgroups,
                               cpu_limits))
        self._base_cpi_fns = tuple(w.base_cpi for w in workloads)
        self._allowed = np.empty(len(self._rows))
        self.check_base_cpi = bool(self._rows)

    def allowed_and_capped(self, t: int) -> tuple[np.ndarray, list[bool]]:
        """Demand clipped by limits and active caps, plus the capped flags
        (the array is an internal buffer, overwritten by the next call)."""
        allowed = []
        capped = []
        for fn, cg, limit in self._rows:
            d = fn(t)
            if not d > 0.0:     # matches max(0.0, d), including d = NaN
                d = 0.0
            a = d if d < limit else limit
            cap = cg.cap_at(t)
            if cap is not None and cap.quota < a:
                a = cap.quota
            allowed.append(a)
            capped.append(cap is not None)
        self._allowed[:] = allowed
        return self._allowed, capped

    def base_cpi(self) -> list[float]:
        """Every row's contention-free CPI."""
        return [fn() for fn in self._base_cpi_fns]


class DemandColumns:
    """A compiled, batch-evaluable demand/cgroup program for one arena.

    Built by :meth:`compile` from the workloads and cgroups of every task
    a :class:`~repro.cluster.fused.FusedFleet` steps (in arena order), so
    the ufunc passes run once per fleet-tick however many machines it
    spans; :meth:`FusedFleet.step` evaluates it.
    """

    __slots__ = (
        "n", "workloads", "cgroups",
        "_base0", "_vals",
        "_onoff", "_scaled", "_noise",
        "_streams", "_block", "_pos", "_row_base", "_flat", "_left",
        "_stale", "_gate", "_gate_until", "_closed", "_shared_groups",
        "_rows", "_block_vals", "_block_z", "_block_mask", "_block_allowed",
        "_limits", "_allowed", "_cap_mask",
        "_cap_quota", "_cap_expires", "_cap_epoch", "_any_cap", "_no_caps",
        "_base_cpi_vals", "_base_cpi_dyn", "_base_cpi_pure",
        "check_base_cpi", "batch_on_tick", "now_workloads", "blockable",
    )

    @classmethod
    def compile(cls, workloads: Sequence, cgroups: Sequence[Cgroup],
                cpu_limits: Sequence[float]
                ) -> "DemandColumns | DemandClosures":
        """Compile an arena's demand plane: columns when every row is
        eligible, else the rows' own closures (:class:`DemandClosures`).

        Ineligibility: any overridden/patched ``cpu_demand``, a demand
        function without a recognised spec tree (leaf under optional
        ``scaled`` wrappers under an optional ``with_noise`` under an
        optional outermost ``gated``), a spec-less ``scaled`` factor,
        non-finite parameters, a subclassed cgroup, or a cgroup shared
        between tasks (a cgroup's usage ring is one row of the table's
        usage matrix, so each task needs its own).  The empty arena gets
        the closures too.
        """
        rows = _spec_rows(workloads, cgroups)
        if rows is None:
            return DemandClosures(workloads, cgroups, cpu_limits)
        leaves, chains, noises, gates = rows
        wbase, wdemand = _workload_modules()
        sw = wbase.SyntheticWorkload
        n = len(workloads)

        self = object.__new__(cls)
        self.n = n
        self.workloads = tuple(workloads)
        self.cgroups = tuple(cgroups)

        # -- leaf columns, grouped by kind ---------------------------------
        base0 = np.zeros(n)
        onoff_i: list[int] = []
        onoff_rows: list = []
        for i, spec in enumerate(leaves):
            if isinstance(spec, wdemand.ConstantSpec):
                base0[i] = spec.level
            else:
                onoff_i.append(i)
                onoff_rows.append(spec)
        self._base0 = base0
        self._vals = np.empty(n)
        if onoff_i:
            self._onoff = (
                _as_index(onoff_i, n),
                np.array([s.on_level for s in onoff_rows]),
                np.array([s.off_level for s in onoff_rows]),
                np.array([s.period for s in onoff_rows], dtype=np.int64),
                np.array([s.phase for s in onoff_rows], dtype=np.int64),
                np.array([s.on_seconds for s in onoff_rows]),
                np.empty(len(onoff_i), dtype=np.int64),
            )
        else:
            self._onoff = None

        # -- scaled stages: depth-major, one evaluation per factor spec ----
        stages: list[tuple] = []
        depth = 0
        while True:
            groups: dict = {}
            for i, chain in enumerate(chains):
                if len(chain) > depth:
                    key = chain[depth].spec
                    groups.setdefault(key, (chain[depth], []))[1].append(i)
            if not groups:
                break
            for fn, idx in groups.values():
                stages.append((_as_index(idx, n), fn))
            depth += 1
        self._scaled = tuple(stages)

        # -- noise: one block row per private stream, scalars for the rest --
        # Full-width columns (sigma = 0 on noiseless slots): exp(0) == 1.0
        # exactly, so one in-place table-wide multiply applies the noise.
        noise_i = [i for i, s in enumerate(noises) if s is not None]
        if noise_i:
            sigma_full = np.zeros(n)
            uses = Counter(id(noises[i].stream) for i in noise_i)
            priv_i: list[int] = []
            streams: list = []
            shared_i: list[int] = []
            takes: list = []
            groups: dict = {}
            for i in noise_i:
                sigma_full[i] = noises[i].sigma
                stream = noises[i].stream
                # A stream drawn once per tick whose generator no one else
                # can reach (or that a program already buffers) gets a
                # block row; a generator someone else might draw from keeps
                # strict per-tick scalar draws.
                if uses[id(stream)] == 1 and (
                        stream.home is not None
                        or sys.getrefcount(stream.rng) <= _PRIVATE_RNG_REFS):
                    priv_i.append(i)
                    streams.append(stream)
                else:
                    shared_i.append(i)
                    takes.append(stream.take)
                    groups.setdefault(id(stream.rng), (stream.rng, [], []))
                    groups[id(stream.rng)][1].append(i)
                    groups[id(stream.rng)][2].append(stream)
            self._noise = (
                sigma_full,
                np.zeros(n),
                np.empty(n, dtype=bool),
                _as_index(priv_i, n) if priv_i else None,
                _as_index(shared_i, n) if shared_i else None,
                tuple(takes),
                np.asarray(priv_i, dtype=np.intp),
                np.asarray(shared_i, dtype=np.intp),
            )
            # Each shared generator with the arena slots it draws for (in
            # arena order) and their streams, for the block form.
            self._shared_groups = tuple(
                (rng, np.asarray(idx, dtype=np.intp), tuple(st))
                for rng, idx, st in groups.values())
            if streams:
                k = len(streams)
                self._streams = tuple(streams)
                self._block = np.empty((k, _DRAW_CHUNK))
                # Every row starts empty; the first demand() adopts the
                # streams (carrying over rows another program buffered)
                # and fills the rest, so compiling draws nothing.
                self._pos = np.full(k, _DRAW_CHUNK, dtype=np.intp)
                self._row_base = np.arange(0, k * _DRAW_CHUNK, _DRAW_CHUNK,
                                           dtype=np.intp)
                self._flat = np.empty(k, dtype=np.intp)
                self._left = 0      # gathers before the fullest row runs out
                self._stale = True
        else:
            self._noise = None
            self._shared_groups = ()

        # -- gates: each slot's start second, -inf for an ungated slot ------
        if any(g is not None for g in gates):
            self._gate = np.array([-_INF if g is None else g for g in gates],
                                  dtype=np.float64)
            # From this second on no gate is closed (a NaN start, like the
            # closure's ``t < nan``, never closes).
            self._gate_until = max((g for g in self._gate.tolist()
                                    if g == g), default=-_INF)
            self._closed = np.empty(n, dtype=bool)
        else:
            self._gate = None
        self._rows = 0              # block buffers are made at first use

        # -- cgroup columns ------------------------------------------------
        self._limits = np.asarray(cpu_limits, dtype=np.float64)
        self._allowed = np.empty(n)
        self._cap_quota = np.empty(n)
        self._cap_expires = np.empty(n)
        self._cap_mask = np.empty(n, dtype=bool)
        self._cap_epoch = -1        # forces a sync on first use
        self._any_cap = False
        self._no_caps = [False] * n

        # -- base-CPI columns: constants cached, the rest scalar slots -----
        # A constant slot is validated (> 0) here once, so the tick loop
        # only needs its positivity check when dynamic slots exist; a
        # non-positive constant is routed through a dynamic slot so the
        # per-tick check raises exactly as the closure path would.
        # A dynamic slot is pure when it is the plain modulated base CPI and
        # its modulation declares itself pure with a ``spec`` (as
        # DiurnalPattern does): the block form may then evaluate it ahead.
        vals = [0.0] * n
        dyn: list[tuple[int, object]] = []
        pure: list[tuple[int, object]] = []
        now_workloads: list = []
        for i, w in enumerate(workloads):
            overridden = (type(w).base_cpi is not sw.base_cpi
                          or "base_cpi" in getattr(w, "__dict__", ()))
            if overridden or w._cpi_modulation is not None:
                dyn.append((i, w.base_cpi))
                if (not overridden and getattr(
                        w._cpi_modulation, "spec", None) is not None):
                    pure.append((i, w))
                # Modulation (and any override) may read ``_now``, which
                # the batched on_tick path must therefore keep advancing.
                now_workloads.append(w)
            elif w._base_cpi > 0:
                vals[i] = w._base_cpi
            else:
                dyn.append((i, w.base_cpi))
        self._base_cpi_vals = vals
        self._base_cpi_dyn = tuple(dyn)
        self._base_cpi_pure = tuple(pure)
        self.check_base_cpi = bool(dyn)
        self.now_workloads = tuple(now_workloads)

        self.batch_on_tick = all(
            type(w).on_tick is sw.on_tick
            and "on_tick" not in getattr(w, "__dict__", ())
            for w in workloads)
        # Whether a block of seconds can run as one (seconds x tasks) pass
        # (:meth:`allowed_block`): plain accounting, every dynamic base CPI
        # pure, and finite limits, so no row's grant can be non-finite.
        self.blockable = (self.batch_on_tick and len(pure) == len(dyn)
                          and bool(np.isfinite(self._limits).all()))
        return self

    # -- demand ---------------------------------------------------------------

    def demand(self, t: int) -> np.ndarray:
        """All tasks' clamped CPU demand at ``t``, in arena order.

        Returns an internal buffer, overwritten by the next call.
        """
        vals = self._vals
        np.copyto(vals, self._base0)
        oo = self._onoff
        if oo is not None:
            idx, on, off, period, phase, on_seconds, ti = oo
            np.add(phase, t, ti)
            np.remainder(ti, period, ti)
            vals[idx] = np.where(np.less(ti, on_seconds), on, off)
        for idx, fn in self._scaled:
            seg = vals[idx] * fn(t)
            vals[idx] = np.where(seg > 0.0, seg, 0.0)
        # A closed gate's slot demands 0.0 and draws nothing.
        closed = None
        if self._gate is not None and t < self._gate_until:
            closed = np.less(t, self._gate, out=self._closed)
        nz = self._noise
        if nz is not None:
            sigma, z, mask, priv, shared, takes, priv_i, shared_i = nz
            if priv is not None:
                if self._stale:
                    self._adopt()
                if closed is None:
                    if not self._left:
                        self._refill()
                    # One gather: row r's next draw is block[r, pos[r]].
                    flat = self._flat
                    np.add(self._row_base, self._pos, flat)
                    z[priv] = self._block.take(flat)
                    self._pos += 1
                    self._left -= 1
                else:
                    # Only the open rows draw, each refilling when it runs
                    # out, as the block form does.
                    rows = np.flatnonzero(~closed[priv_i]).tolist()
                    z[priv_i[rows]] = [self._take(r) for r in rows]
            if shared is not None:
                # One scalar per shared stream, in arena order.
                if closed is None:
                    z[shared] = [take() for take in takes]
                else:
                    z[shared] = [0.0 if c else take() for take, c in
                                 zip(takes, closed[shared_i].tolist())]
            self._noisy(vals, z, sigma, mask)
        if closed is not None:
            vals[closed] = 0.0
        return vals

    @staticmethod
    def _noisy(vals: np.ndarray, z: np.ndarray, sigma: np.ndarray,
               mask: np.ndarray) -> None:
        """``vals *= exp(sigma * z)``, clamped at 0.0, in place."""
        np.multiply(z, sigma, z)
        np.exp(z, z)
        # sigma is 0 on noiseless slots, so exp gives exactly 1.0 there
        # and the table-wide multiply leaves them bit-unchanged.  The
        # mask clamp matches the closures' ``d if d > 0.0 else 0.0``
        # (NaN — e.g. 0 × inf from an overflowing exp — goes to 0 too).
        np.multiply(vals, z, vals)
        np.greater(vals, 0.0, mask)
        np.logical_not(mask, mask)
        vals[mask] = 0.0

    def demand_block(self, t0: int, k: int) -> np.ndarray:
        """:meth:`demand` for seconds ``t0 .. t0+k-1`` as ``(k, n)`` rows.

        Every row is computed from its own ``t`` with the per-second
        operands, so row ``r`` equals ``demand(t0 + r)``.  The draws equal
        the per-second ones: a private stream's row of the noise block
        yields its next ``k`` values (fewer for a gate closed part of the
        block), and every shared generator is drawn once, ``z[mask] =
        rng.standard_normal(count)``, the mask row-major in (second, arena)
        order without closed gates — one bulk draw consumes a generator
        exactly as ``count`` scalar draws.  So the block must own its
        shared generators: the caller checks :meth:`block_ready` first,
        and nothing may draw them until the block's seconds have run.

        Returns an internal buffer, overwritten by the next call.
        """
        if k > self._rows:
            self._rows = k
            self._block_vals = np.empty((k, self.n))
            self._block_z = np.zeros((k, self.n))
            self._block_mask = np.empty((k, self.n), dtype=bool)
            self._block_allowed = np.empty((k, self.n))
        tcol = np.arange(t0, t0 + k)[:, None]
        vals = self._block_vals[:k]
        vals[...] = self._base0
        oo = self._onoff
        if oo is not None:
            idx, on, off, period, phase, on_seconds, _ = oo
            ti = np.add(phase, tcol)
            np.remainder(ti, period, ti)
            vals[:, idx] = np.where(np.less(ti, on_seconds), on, off)
        for idx, fn in self._scaled:
            seg = vals[:, idx] * np.array(
                [fn(t) for t in range(t0, t0 + k)], dtype=np.float64)[:, None]
            vals[:, idx] = np.where(seg > 0.0, seg, 0.0)
        closed = None
        if self._gate is not None and t0 < self._gate_until:
            closed = np.less(tcol, self._gate)
        nz = self._noise
        if nz is not None:
            sigma, _, _, priv, _, _, priv_i, _ = nz
            z = self._block_z[:k]
            if priv is not None:
                if self._stale:
                    self._adopt()
                if closed is None:
                    # Every row's next draws, a gather at a time: each
                    # gather stops where the fullest row runs out, which
                    # then refills, as demand() does every second.
                    r = 0
                    while r < k:
                        if not self._left:
                            self._refill()
                        m = min(k - r, self._left)
                        flat = (self._row_base + self._pos
                                + np.arange(m)[:, None])
                        z[r:r + m, priv] = self._block.take(flat)
                        self._pos += m
                        self._left -= m
                        r += m
                else:
                    # Only each row's open seconds draw.
                    for r, i in enumerate(priv_i.tolist()):
                        rows = ~closed[:, i]
                        col = z[:, i]       # a view: writes go to z
                        col[rows] = self._take_many(
                            r, int(np.count_nonzero(rows)))
                    self._left = _DRAW_CHUNK - int(self._pos.max())
            for rng, idx, _ in self._shared_groups:
                if closed is None:
                    z[:, idx] = rng.standard_normal((k, len(idx)))
                else:
                    sub = z[:, idx]
                    draw = ~closed[:, idx]
                    sub[draw] = rng.standard_normal(int(np.count_nonzero(
                        draw)))
                    z[:, idx] = sub
            self._noisy(vals, z, sigma, self._block_mask[:k])
        if closed is not None:
            vals[closed] = 0.0
        return vals

    def block_ready(self) -> bool:
        """Whether :meth:`demand_block` may draw every shared generator
        directly: no shared stream is being buffered by a program."""
        for _, _, streams in self._shared_groups:
            for stream in streams:
                if stream.home is not None:
                    return False
        return True

    # -- noise block ------------------------------------------------------------

    def _adopt(self) -> None:
        """Become the home of every stream of the block.

        A stream another program buffers brings its row and cursor along
        (and leaves that program stale, to re-adopt before its own next
        draw); a stream that never had a home starts from an empty row.
        """
        pos = self._pos
        moved: dict = {}
        for r, stream in enumerate(self._streams):
            home = stream.home
            if home is self:
                continue
            if home is None:
                pos[r] = _DRAW_CHUNK
            else:
                rows = moved.setdefault(home, ([], []))
                rows[0].append(r)
                rows[1].append(stream.row)
            stream.home = self
            stream.row = r
        for home, (dst, src) in moved.items():
            self._block[dst] = home._block[src]
            pos[dst] = home._pos[src]
            home._stale = True
        self._stale = False
        self._left = _DRAW_CHUNK - int(pos.max())

    def _refill(self) -> None:
        """Refill every exhausted row from its stream's generator."""
        pos = self._pos
        block = self._block
        streams = self._streams
        empty = np.flatnonzero(pos == _DRAW_CHUNK)
        for r in empty.tolist():
            streams[r].rng.standard_normal(out=block[r])
        pos[empty] = 0
        self._left = _DRAW_CHUNK - int(pos.max())

    def _take(self, r: int) -> float:
        """Row ``r``'s next draw, outside the tick (:meth:`NormalStream.take`)."""
        row = self._block[r]
        p = int(self._pos[r])
        if p == _DRAW_CHUNK:
            self._streams[r].rng.standard_normal(out=row)
            p = 0
        self._pos[r] = p + 1
        if _DRAW_CHUNK - 1 - p < self._left:
            self._left = _DRAW_CHUNK - 1 - p
        return float(row[p])

    def _take_many(self, r: int, count: int) -> np.ndarray:
        """Row ``r``'s next ``count`` draws, refilling the row from its
        stream's generator each time it runs out."""
        out = np.empty(count)
        row = self._block[r]
        p = int(self._pos[r])
        got = 0
        while got < count:
            if p == _DRAW_CHUNK:
                self._streams[r].rng.standard_normal(out=row)
                p = 0
            m = min(count - got, _DRAW_CHUNK - p)
            out[got:got + m] = row[p:p + m]
            got += m
            p += m
        self._pos[r] = p
        return out

    def allowed_and_capped(self, t: int) -> tuple[np.ndarray, list[bool]]:
        """Demand clipped by limits and active caps, plus the capped flags.

        The array is an internal buffer, overwritten by the next call; the
        capped list is shared when no cap is active (callers treat it as
        read-only).
        """
        a = self._allowed
        np.minimum(self.demand(t), self._limits, out=a)
        if Cgroup._cap_mutations != self._cap_epoch:
            self._sync_caps()
        if self._any_cap:
            active = np.less(t, self._cap_expires, out=self._cap_mask)
            if active.any():
                np.minimum(a, np.where(active, self._cap_quota, _INF),
                           out=a)
                return a, active.tolist()
        return a, self._no_caps

    def allowed_block(self, t0: int, k: int) -> np.ndarray:
        """:meth:`allowed_and_capped`'s allowances for seconds ``t0 ..
        t0+k-1`` as ``(k, n)`` rows (an internal buffer): the block's
        demand clipped by the limits and the caps active at each row's
        second."""
        vals = self.demand_block(t0, k)
        a = self._block_allowed[:k]
        np.minimum(vals, self._limits, out=a)
        if Cgroup._cap_mutations != self._cap_epoch:
            self._sync_caps()
        if self._any_cap:
            active = np.less(np.arange(t0, t0 + k)[:, None],
                             self._cap_expires)
            if active.any():
                np.minimum(a, np.where(active, self._cap_quota, _INF),
                           out=a)
        return a

    def _sync_caps(self) -> None:
        """Rebuild the cap columns from the cgroups' current caps.

        Runs only when :attr:`Cgroup._cap_mutations` moved — i.e. some cap
        anywhere was applied or released.  Expired caps the scalar path
        would have dropped lazily stay in the columns; ``t < expires_at``
        makes them inactive all the same, and simulation time only moves
        forward.
        """
        quota = self._cap_quota
        expires = self._cap_expires
        any_cap = False
        for i, cg in enumerate(self.cgroups):
            cap = cg._cap
            if cap is None:
                quota[i] = _INF
                expires[i] = -_INF
            else:
                quota[i] = cap.quota
                expires[i] = cap.expires_at
                any_cap = True
        self._any_cap = any_cap
        self._cap_epoch = Cgroup._cap_mutations

    # -- base CPI -------------------------------------------------------------

    def base_cpi(self) -> list[float]:
        """Per-task contention-free CPI: cached constants, live modulated.

        Returns an internal list (constant slots written once at compile),
        overwritten by the next call; callers only read/copy it.
        """
        vals = self._base_cpi_vals
        for i, fn in self._base_cpi_dyn:
            vals[i] = fn()
        return vals

    def base_cpi_block(self, t0: int, out: np.ndarray) -> bool:
        """:meth:`base_cpi` for the ``len(out)`` seconds from ``t0`` into
        ``out``'s rows; whether every value is positive.

        Only for a :attr:`blockable` program: every dynamic slot is pure,
        so its values are computed ahead from the clock each second's read
        would see — the workload's ``_now`` for the first row, the second
        before it for every other (batch accounting advances ``_now``
        after each second's read).
        """
        out[...] = self._base_cpi_vals
        k = len(out)
        for i, w in self._base_cpi_pure:
            base = w._base_cpi
            mod = w._cpi_modulation
            nows = [w._now, *range(t0, t0 + k - 1)]
            out[:, i] = [base * max(1e-6, mod(now)) for now in nows]
        return not self.check_base_cpi or bool(out.min() > 0)
