"""Scheduler interface and the II search loop shared by all schedulers.

Modulo scheduling tries candidate IIs starting at the MII and increasing
until one works (paper Figure 1).  Concrete schedulers implement a single
attempt at a fixed II; this base class owns the search, the effort
accounting that Figure 8c reports (scheduling time is dominated by failed
attempts), and the ``min_ii`` hook the *last-II-tried* acceleration of
Section 4.5 uses to skip doomed IIs.  Before any II is tried, a graph
holding a complex operation that fits at no II is rejected outright.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.graph.ddg import DDG
from repro.machine.machine import MachineConfig
from repro.sched.cache import cached_mii
from repro.sched.groups import unplaceable_unit
from repro.sched.schedule import Schedule

#: Reason fragments of the two ways :meth:`ModuloScheduler.schedule`
#: fails: a fused group no II can place, or a search that walked the
#: whole window without finding an II that works.
FITS_AT_NO_II = "fits at no II"
NO_SCHEDULE = "no schedule for"


class ScheduleError(RuntimeError):
    """No valid schedule exists or was found within the II search
    window."""


@dataclass
class Effort:
    """Scheduler work counters — the machine-independent proxy for the
    paper's compilation-time measurements.

    ``placements`` counts slot probes (each cycle tried for each unit);
    ``attempts`` counts full scheduling attempts (one per candidate II).
    """

    placements: int = 0
    attempts: int = 0

    def add(self, other: "Effort") -> None:
        self.placements += other.placements
        self.attempts += other.attempts


class ModuloScheduler(abc.ABC):
    """Base class: II search + effort accounting."""

    name = "abstract"

    @abc.abstractmethod
    def _attempt(
        self, ddg: DDG, machine: MachineConfig, ii: int, effort: Effort
    ) -> dict[str, int] | None:
        """Try to build a schedule at exactly *ii*; return start times or
        ``None`` on failure."""

    # ------------------------------------------------------------------
    def try_schedule_at(
        self, ddg: DDG, machine: MachineConfig, ii: int
    ) -> Schedule | None:
        """One attempt at a fixed II (used by the II-increase driver and
        the combined method's binary search)."""
        effort = Effort(attempts=1)
        times = self._attempt(ddg, machine, ii, effort)
        if times is None:
            return None
        schedule = Schedule(
            ddg=ddg,
            machine=machine,
            ii=ii,
            times=times,
            scheduler=self.name,
            effort_placements=effort.placements,
            effort_attempts=effort.attempts,
        )
        return schedule

    def schedule(
        self,
        ddg: DDG,
        machine: MachineConfig,
        min_ii: int | None = None,
        max_ii: int | None = None,
    ) -> Schedule:
        """Search upward from ``max(MII, min_ii)`` until an II works.

        ``min_ii`` implements the last-II-tried acceleration: the paper
        observes the II almost never decreases between spill iterations,
        so restarting at the previous II skips futile attempts.

        A fused group that fails :func:`~repro.sched.groups.unit_fits`
        fits at no II, so the search raises before its first attempt.
        """
        unit = unplaceable_unit(ddg, machine)
        if unit is not None:
            raise ScheduleError(
                f"{self.name}: complex operation {unit} of {ddg.name}"
                f" {FITS_AT_NO_II} on {machine.name}"
            )
        mii = cached_mii(ddg, machine)
        start = max(mii, min_ii or 1)
        if max_ii is None:
            max_ii = start + _search_window(ddg, machine)
        effort = Effort()
        for ii in range(start, max_ii + 1):
            effort.attempts += 1
            times = self._attempt(ddg, machine, ii, effort)
            if times is not None:
                return Schedule(
                    ddg=ddg,
                    machine=machine,
                    ii=ii,
                    times=times,
                    scheduler=self.name,
                    effort_placements=effort.placements,
                    effort_attempts=effort.attempts,
                )
        raise ScheduleError(
            f"{self.name}: {NO_SCHEDULE} {ddg.name} with II in"
            f" [{start}, {max_ii}]"
        )


def _search_window(ddg: DDG, machine: MachineConfig) -> int:
    """How far past the start II the search goes before giving up: the
    length of a fully sequential iteration plus slack.

    By the time the search runs, every complex operation has passed the
    II-independent fit test (:func:`~repro.sched.groups.unit_fits`), so
    no group in the graph is unplaceable at every II.  The window is
    still a search bound, not a guarantee that a schedule is found: a
    non-backtracking scheduler can miss every II in it."""
    total_occupancy = sum(
        machine.occupancy(node.opcode) for node in ddg.nodes.values()
    )
    total_latency = sum(
        machine.latency(node.opcode) for node in ddg.nodes.values()
    )
    return total_occupancy + total_latency + len(ddg.nodes) + 4
