"""The process-wide work counters: one named, monotonic counter set
(only :meth:`Counters.reset`, a test-isolation helper, moves one back).

Every layer that counts work increments a slot of the one
:data:`COUNTERS` object — a plain attribute add, no lookup by name and
no lock, cheap enough for the MRT probe loop and the relaxation loops:

=========  ===========================================================
group      counters
=========  ===========================================================
CACHE      memo and persistent-store hits/misses of
           :mod:`repro.sched.cache` (MII, schedule, spill-run and
           register-allocation memos, store lookups), plus store write
           errors and store degradations
WORK       deterministic analysis work: relaxation edge-visits, MRT
           slot probes, index builds, lifetime edge-visits, rotating
           register-file probes
POOL       worker-pool recovery: respawns and retried tasks
=========  ===========================================================

Readers never look at absolute values across process boundaries; they
take a :meth:`Counters.snapshot` before some work and a
:meth:`Counters.delta` after it.  Pool workers send the delta of every
chunk they run back with its results (:func:`repro.pool.imap_resilient`
:meth:`merges <Counters.merge>` it into the parent's set), so a delta
taken in the parent counts the work wherever it ran.

:class:`repro.sched.base.Effort` is deliberately not here: it is the
effort of one search, stored on its schedule and replayed by memo hits,
not a process counter.
"""

from __future__ import annotations

CACHE = (
    "mii_hits", "mii_misses",
    "schedule_hits", "schedule_misses",
    "spill_hits", "spill_misses",
    "alloc_hits", "alloc_misses",
    "store_hits", "store_misses",
    "store_write_errors", "store_degradations",
)
WORK = (
    "relax_visits", "mrt_probes", "index_builds",
    "lifetime_visits", "alloc_probes",
)
POOL = ("worker_restarts", "tasks_retried")
NAMES = CACHE + WORK + POOL


class Counters:
    """A fixed set of named integer counters (see the module table)."""

    __slots__ = NAMES

    def __init__(self) -> None:
        self.reset()

    def snapshot(self) -> "Counters":
        """An independent copy of the current values."""
        copy = Counters()
        copy.merge(self)
        return copy

    def delta(self, before: "Counters") -> "Counters":
        """Counter movement since the *before* snapshot."""
        moved = Counters()
        for name in NAMES:
            setattr(moved, name, getattr(self, name) - getattr(before, name))
        return moved

    def merge(self, other: "dict | Counters") -> None:
        """Add *other* — a :class:`Counters` (a pool worker's chunk
        delta) or an :meth:`as_dict` mapping (a shard's reply) — into
        this set."""
        if isinstance(other, Counters):
            other = other.as_dict()
        for name, value in other.items():
            setattr(self, name, getattr(self, name) + value)

    def reset(self, names: tuple = NAMES) -> None:
        """Zero *names* (test-isolation helper)."""
        for name in names:
            setattr(self, name, 0)

    def as_dict(self, names: tuple = NAMES) -> dict:
        """The *names* counters as a plain dict (telemetry output)."""
        return {name: getattr(self, name) for name in names}


#: The process-wide counter set.
COUNTERS = Counters()
