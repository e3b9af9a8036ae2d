"""Memoization of MII, schedule, spill-run and register results.

The evaluation sweeps the same loops across machine configurations,
register budgets and heuristic variants, and the spilling driver needs
the MII of the (mutating) working graph on every round.  All of these
are pure functions of content, so this module caches them.  Keys start
from content identifiers:

* **fingerprint** — a content hash of a :class:`~repro.graph.ddg.DDG`
  (nodes, edges, invariants, live-outs; the graph *name* is excluded so
  equal graphs share cache entries).  The hash itself is cached on the
  instance and recomputed only when ``ddg.revision`` changed.
* **schedule fingerprint**, **machine key**, **scheduler key** — the
  same idea for schedules, machine configurations and scheduler
  configurations.

Every memo is an instance of one type, :class:`Memo`: a bounded FIFO
dict that reads through and writes through the optional **persistent
store** of :mod:`repro.sched.store` (a disk directory shared by every
process pointed at it) under its namespace, and counts
``<counter>_hits`` / ``<counter>_misses``.  The instances:

* :data:`MII` — ``(fingerprint, machine)`` → MII.  Combined with the
  revision-guarded fingerprint this makes MII computation happen at
  most once per graph mutation, however many times a round asks for it.
* :data:`SCHEDULE` — II searches and fixed-II attempts
  (:class:`ScheduleMemo`).  Failed searches are cached too and re-raise
  a :class:`~repro.sched.base.ScheduleError` carrying the failed
  search's effort.  A hit may return a schedule built on a *different*
  (content-identical) DDG instance; an entry whose graph no longer has
  the fingerprint it was stored under counts as absent, so a mutated
  graph can never leak a stale schedule.
* :data:`SPILL` — ``(fingerprint, machine, scheduler, budget,
  options)`` → a whole spilling-driver run.  ``fig9`` and the combined
  method run the identical spilling driver back to back; the second run
  is a copy-out instead of a recomputation.
* :data:`ALLOC` — ``(schedule fingerprint, machine, exact)`` → the
  lifetime/MaxLive/allocation measurement
  (:class:`~repro.lifetimes.requirements.RegisterReport`).  The spill
  and II-increase drivers re-measure the same schedule content across
  II restarts and register budgets.

:func:`disabled` bypasses everything, memos and store alike — the
benchmark harness uses that to time the uncached seed behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, replace

from repro.graph import index as _graph_index
from repro.graph.ddg import DDG
from repro.machine.machine import MachineConfig
from repro.sched import store as _store_mod
from repro.sched.mii import compute_mii
from repro.telemetry import CACHE, COUNTERS
from repro.trace.profile import phase

_MAX_ENTRIES = 4096


#: The hit/miss counters live in the one process-wide counter set
#: (:data:`repro.telemetry.COUNTERS`, the ``CACHE`` group).  ``store_*``
#: counts *disk* lookups against the persistent :mod:`repro.sched.store`
#: layer; it only moves when a store is active, and only on in-memory
#: memo misses.  ``STATS`` is this module's name for that set.
STATS = COUNTERS

_enabled = True


def caching_enabled() -> bool:
    """Whether the memos (and the persistent store behind them) are on;
    ``False`` only inside a :func:`disabled` block."""
    return _enabled


@contextlib.contextmanager
def disabled():
    """Bypass every cache inside the block (seed-behaviour baseline).

    The flag is **process-local**: it does not reach experiment-engine
    worker processes.  ``run_cells`` therefore refuses the worker pool
    and evaluates serially while caching is disabled, so an "uncached"
    timing never silently measures cached (or pool-frozen) behaviour.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


class Memo:
    """One bounded, store-backed memo.

    ``get(key)`` returns the entry or ``None``; ``put(key, value)``
    records a freshly computed one.  Callers go key → ``get`` → compute
    → ``put``, so a miss is counted at the lookup.

    * At most :data:`_MAX_ENTRIES` entries are held in memory; the
      oldest is evicted first.
    * An in-memory miss reads through the active persistent store under
      *namespace* (a store hit installs the entry back into memory), and
      ``put`` writes through it.  Pickling snapshots the value as of
      ``put``, so later caller-side mutation cannot reach the disk.
    * Lookups move ``COUNTERS.<counter>_hits`` / ``<counter>_misses``.
    * An in-memory entry for which *valid* returns false counts as
      absent.
    * Inside :func:`disabled`, ``get`` returns ``None`` and nothing is
      stored or counted.

    Values are shared between callers: a memo holds immutable values or
    private copies the caller never hands out.
    """

    def __init__(self, namespace: str, counter: str, valid=None) -> None:
        self.namespace = namespace
        self._hits = f"{counter}_hits"
        self._misses = f"{counter}_misses"
        self._valid = valid
        self._entries: dict = {}

    def clear(self) -> None:
        """Drop every in-memory entry (persistent-store files stay)."""
        self._entries.clear()

    def get(self, key: tuple):
        """The entry for *key*, or ``None`` (counted as a miss)."""
        if not _enabled:
            return None
        entry = self._entries.get(key)
        if entry is None or (
            self._valid is not None and not self._valid(entry)
        ):
            entry = self._load(key)
            if entry is None:
                setattr(COUNTERS, self._misses,
                        getattr(COUNTERS, self._misses) + 1)
                return None
            self._install(key, entry)
        setattr(COUNTERS, self._hits, getattr(COUNTERS, self._hits) + 1)
        return entry

    def put(self, key: tuple, value) -> None:
        """Record *value* in memory and in the persistent store."""
        if not _enabled:
            return
        self._install(key, value)
        store = _store_mod.active_store()
        if store is not None:
            store.put(self.namespace, key, value)

    def _load(self, key: tuple):
        """Read-through lookup against the persistent store; counts a
        store hit/miss only when a store is active.  A store entry is a
        freshly unpickled object no caller has held, so it is valid."""
        store = _store_mod.active_store()
        if store is None:
            return None
        entry = store.get(self.namespace, key)
        if entry is None:
            COUNTERS.store_misses += 1
            return None
        COUNTERS.store_hits += 1
        return entry

    def _install(self, key: tuple, value) -> None:
        if len(self._entries) >= _MAX_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value


def clear() -> None:
    """Drop all *in-memory* entries and reset the hit/miss counters.
    The persistent store (if any) keeps its files — use
    :meth:`repro.sched.store.ScheduleStore.clear` for that."""
    for memo in (MII, SCHEDULE, SPILL, ALLOC):
        memo.clear()
    _graph_index.clear_cache()
    COUNTERS.reset(CACHE)


# ----------------------------------------------------------------------
# fingerprints
def ddg_fingerprint(ddg: DDG) -> str:
    """Stable content hash of *ddg*, cached per revision."""
    cached = getattr(ddg, "_fingerprint", None)
    if cached is not None and cached[0] == ddg.revision:
        return cached[1]
    digest = hashlib.sha1()
    for name in sorted(ddg.nodes):
        node = ddg.nodes[name]
        digest.update(
            f"N{name}|{node.opcode.name}|{','.join(node.operands)}"
            f"|{node.mem!r}\n".encode()
        )
    for edge in sorted(
        ddg.edges,
        key=lambda e: (e.src, e.dst, e.kind.value, e.dep.value, e.distance),
    ):
        digest.update(
            f"E{edge.src}>{edge.dst}|{edge.kind.value}|{edge.dep.value}"
            f"|{edge.distance}|{edge.spillable:d}{edge.fused:d}\n".encode()
        )
    for name in sorted(ddg.invariants):
        invariant = ddg.invariants[name]
        digest.update(
            f"I{name}|{','.join(sorted(invariant.consumers))}"
            f"|{invariant.spillable:d}\n".encode()
        )
    digest.update(f"L{','.join(sorted(ddg.live_out))}".encode())
    fingerprint = digest.hexdigest()
    ddg._fingerprint = (ddg.revision, fingerprint)
    return fingerprint


def schedule_fingerprint(schedule) -> str:
    """Stable content hash of a *schedule* — its graph's fingerprint
    plus the II and the (name-sorted) start times — cached on the
    schedule instance and recomputed when the graph's revision moves.
    Two content-identical schedules of content-identical graphs share
    lifetime/MaxLive/allocation results, which is what the
    :data:`ALLOC` memo keys on."""
    cached = getattr(schedule, "_fingerprint", None)
    revision = schedule.ddg.revision
    if cached is not None and cached[0] == revision:
        return cached[1]
    digest = hashlib.sha1()
    digest.update(ddg_fingerprint(schedule.ddg).encode())
    digest.update(f"|ii={schedule.ii}".encode())
    times = schedule.times
    for name in sorted(times):
        digest.update(f"|{name}={times[name]}".encode())
    fingerprint = digest.hexdigest()
    schedule._fingerprint = (revision, fingerprint)
    return fingerprint


def scheduler_config(scheduler) -> dict:
    """A scheduler's configuration: public instance attributes only.
    Underscore attributes are per-run scratch (e.g. Swing's ``_times``)
    and must not leak into identity."""
    return {
        name: value
        for name, value in vars(scheduler).items()
        if not name.startswith("_")
    }


def scheduler_key(scheduler) -> str:
    """Cache key of a scheduler: its name plus any constructor state
    (e.g. ``IMSScheduler(budget_ratio=...)``), so differently-configured
    instances never share entries."""
    config = ",".join(
        f"{name}={value!r}"
        for name, value in sorted(scheduler_config(scheduler).items())
    )
    return f"{scheduler.name}|{config}"


def machine_key(machine: MachineConfig) -> str:
    """Cache key of a machine configuration (content, not just the name,
    so two different ``generic:U:L`` instances never collide).  Machines
    are frozen, so the key is computed once per instance."""
    cached = getattr(machine, "_cache_key", None)
    if cached is not None:
        return cached
    counts = ",".join(
        f"{fu.value}={machine.fu_counts[fu]}"
        for fu in sorted(machine.fu_counts, key=lambda f: f.value)
    )
    latencies = ",".join(
        f"{op.name}={machine.latencies[op]}"
        for op in sorted(machine.latencies, key=lambda o: o.name)
    )
    non_pipelined = ",".join(
        sorted(fu.value for fu in machine.non_pipelined)
    )
    key = (
        f"{machine.name}|{counts}|{latencies}|{non_pipelined}"
        f"|{machine.generic:d}"
    )
    object.__setattr__(machine, "_cache_key", key)
    return key


def compile_request_key(
    ddg: DDG,
    machine: MachineConfig,
    scheduler,
    strategy: str,
    registers: int | None,
    options: dict | None,
) -> tuple:
    """The identity of one whole compile request — the same key material
    the memo/store layers use (graph content fingerprint, machine,
    scheduler configuration), extended with the strategy, budget and
    options that select the driver.  Two requests with equal keys are
    guaranteed the same :class:`~repro.api.CompilationResult` document,
    which is what the server's in-flight request coalescing relies on
    (the loop *name* is part of the result, so callers that care about
    it must key on it separately — fingerprints ignore names)."""
    return (
        ddg_fingerprint(ddg),
        machine_key(machine),
        scheduler_key(scheduler),
        str(strategy).lower(),
        registers,
        repr(sorted((options or {}).items())),
    )


def owned_schedule(schedule):
    """A caller-owned copy of a possibly memo-shared schedule.

    Entry points that may return a memo entry (the spilling driver, the
    II-increase driver, the combined method) must hand out copies:
    results are caller-mutable, memo entries are not, and the staleness
    guard only watches the graph, not ``times``.
    """
    if schedule is None:
        return None
    return replace(
        schedule, ddg=schedule.ddg.copy(), times=dict(schedule.times)
    )


# ----------------------------------------------------------------------
# MII
MII = Memo("mii", "mii")


def cached_mii(ddg: DDG, machine: MachineConfig) -> int:
    """``compute_mii`` memoized on ``(graph content, machine)``, read
    through the persistent store when one is active."""
    key = (ddg_fingerprint(ddg), machine_key(machine))
    mii = MII.get(key)
    if mii is None:
        with phase("mii"):
            mii = compute_mii(ddg, machine)
        MII.put(key, mii)
    return mii


# ----------------------------------------------------------------------
# schedules
@dataclass
class _MemoEntry:
    ddg: DDG
    fingerprint: str
    schedule: object | None  # Schedule on success
    error: str | None        # ScheduleError message on failure
    effort: object = None    # the failed search's Effort


def _graph_unchanged(entry: _MemoEntry) -> bool:
    """An entry is stale once its graph no longer has the fingerprint
    it was stored under (a caller mutated the graph it scheduled)."""
    return ddg_fingerprint(entry.ddg) == entry.fingerprint


class ScheduleMemo(Memo):
    """Memo for II searches (``ModuloScheduler.schedule``) and fixed-II
    attempts (``ModuloScheduler.try_schedule_at``)."""

    def __init__(self) -> None:
        super().__init__("schedule", "schedule", valid=_graph_unchanged)

    def schedule(
        self,
        scheduler,
        ddg: DDG,
        machine: MachineConfig,
        min_ii: int | None = None,
        max_ii: int | None = None,
    ):
        """Like ``scheduler.schedule(...)`` but memoized.  On a hit the
        returned schedule may be built on a different, content-identical
        DDG instance, and a cached failure re-raises with its effort."""
        return self._memoized(
            (min_ii, max_ii), scheduler, ddg, machine,
            lambda: scheduler.schedule(
                ddg, machine, min_ii=min_ii, max_ii=max_ii
            ),
        )

    def try_at(
        self,
        scheduler,
        ddg: DDG,
        machine: MachineConfig,
        ii: int,
    ):
        """Like ``scheduler.try_schedule_at(ddg, machine, ii)`` but
        memoized; failed attempts cache ``None``.  The II-increase driver
        and the combined method's binary search probe the same
        ``(graph, machine, II)`` points for every register budget — the
        attempt outcome does not depend on the budget, so they share."""
        return self._memoized(
            ("at", ii), scheduler, ddg, machine,
            lambda: scheduler.try_schedule_at(ddg, machine, ii),
        )

    def _memoized(self, bounds: tuple, scheduler, ddg, machine, search):
        from repro.sched.base import ScheduleError

        fingerprint = ddg_fingerprint(ddg)
        key = (
            fingerprint, machine_key(machine), scheduler_key(scheduler),
        ) + bounds
        entry = self.get(key)
        if entry is None:
            try:
                with phase("schedule"):
                    entry = _MemoEntry(ddg, fingerprint, search(), None)
            except ScheduleError as error:
                entry = _MemoEntry(
                    ddg, fingerprint, None, str(error), error.effort
                )
            self.put(key, entry)
        if entry.error is not None:
            # a copy: the caller may add to the effort it is handed
            raise ScheduleError(entry.error, replace(entry.effort))
        return entry.schedule


SCHEDULE = ScheduleMemo()


def schedule_memo() -> ScheduleMemo:
    """The process-wide schedule memo (one per engine worker)."""
    return SCHEDULE


# ----------------------------------------------------------------------
# whole spilling-driver runs and register-requirement measurements
#: Entries are private copies the driver stores; hits are copied out.
SPILL = Memo("spill", "spill")
#: Reports are frozen dataclasses: hits hand out the entry itself.
ALLOC = Memo("alloc", "alloc")


def spill_memo() -> Memo:
    """The process-wide spilling-driver memo (one per engine worker)."""
    return SPILL


def alloc_memo() -> Memo:
    """The process-wide register-requirement memo (one per worker)."""
    return ALLOC
