"""The iterative spilling driver (paper Figure 1b and Sections 4-4.5).

Schedule → allocate → if the loop does not fit, select lifetime(s), insert
spill code, and reschedule — the added loads/stores change the dependence
graph, so a fresh schedule is required each round.  Convergence is
guaranteed by the non-spillable marking and the complex-operation fusion
performed in :mod:`repro.core.spill`; a reload whose complex operation
would not fit the machine is left unfused.

Accelerations (Section 4.5), both on by default:

* ``multiple`` — spill several lifetimes per round, chosen with the
  optimistic MaxLive-based estimate, instead of one per reschedule;
* ``last_ii`` — start each round's II search at
  ``max(MII, previous round's II)``: the II almost never decreases when
  spill code is added, so lower IIs are wasted attempts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.select import SelectionPolicy, select_lifetimes
from repro.core.spill import apply_spill, fit_complex_operations
from repro.graph.ddg import DDG
from repro.lifetimes.requirements import RegisterReport, register_requirements
from repro.machine.machine import MachineConfig
from repro.sched.base import Effort, ModuloScheduler, ScheduleError
from repro.sched.cache import (
    cached_mii,
    caching_enabled,
    ddg_fingerprint,
    machine_key,
    owned_schedule,
    schedule_memo,
    scheduler_key,
    spill_memo,
)
from repro.sched.hrms import HRMSScheduler
from repro.sched.schedule import Schedule


@dataclass
class SpillRound:
    """One schedule→measure→spill iteration (a point of Figure 7)."""

    ii: int
    mii: int
    registers: int
    max_live: int
    memory_ops: int
    spilled_values: tuple[str, ...] = ()


@dataclass
class SpillResult:
    """Outcome of the spilling driver.

    ``ddg`` is the final (transformed) graph the final schedule runs on;
    ``rounds`` traces every iteration for the trajectory figures.
    """

    converged: bool
    reason: str
    schedule: Schedule | None
    report: RegisterReport | None
    ddg: DDG | None
    rounds: list[SpillRound] = field(default_factory=list)
    spilled: list[str] = field(default_factory=list)
    effort: Effort = field(default_factory=Effort)
    wall_seconds: float = 0.0

    @property
    def final_ii(self) -> int | None:
        return self.schedule.ii if self.schedule else None

    @property
    def reschedules(self) -> int:
        return len(self.rounds)

    @property
    def memory_ops(self) -> int:
        return self.ddg.memory_node_count() if self.ddg else 0


def schedule_with_spilling(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler | None = None,
    policy: SelectionPolicy = SelectionPolicy.MAX_LT_TRAF,
    multiple: bool = True,
    last_ii: bool = True,
    exact: bool = True,
    max_rounds: int = 200,
    fuse: bool = True,
    mark_non_spillable: bool = True,
) -> SpillResult:
    """Run Figure 1b's flow until the loop fits in *available* registers.

    ``fuse`` / ``mark_non_spillable`` weaken the convergence safeguards for
    the ablation studies; leave them on for the paper's algorithm.

    Whole runs are memoized in :func:`repro.sched.cache.spill_memo`,
    keyed by graph content, machine, scheduler, budget and every option:
    ``fig9`` and the combined method run this identical driver back to
    back, and repeated sweeps re-run it per budget.  Hits hand out
    caller-owned copies, so results stay freely mutable.
    """
    scheduler = scheduler or HRMSScheduler()
    memo_key = None
    if caching_enabled():
        memo_key = (
            ddg_fingerprint(ddg),
            machine_key(machine),
            scheduler_key(scheduler),
            available,
            policy.value,
            multiple,
            last_ii,
            exact,
            max_rounds,
            fuse,
            mark_non_spillable,
        )
        hit = spill_memo().get(memo_key, _owned_spill_result)
        if hit is not None:
            return hit
    result = _run_spilling(
        ddg, machine, available, scheduler, policy, multiple, last_ii,
        exact, max_rounds, fuse, mark_non_spillable,
    )
    if memo_key is not None:
        # Store a private copy: the returned result is caller-mutable,
        # memo entries must never be.
        spill_memo().put(memo_key, _owned_spill_result(result))
    return result


def _run_spilling(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler,
    policy: SelectionPolicy,
    multiple: bool,
    last_ii: bool,
    exact: bool,
    max_rounds: int,
    fuse: bool,
    mark_non_spillable: bool,
) -> SpillResult:
    started = time.perf_counter()
    work = ddg.copy()
    effort = Effort()
    rounds: list[SpillRound] = []
    spilled: list[str] = []
    min_ii: int | None = None
    last_schedule: Schedule | None = None
    last_report: RegisterReport | None = None

    for _ in range(max_rounds):
        round_mii = cached_mii(work, machine)
        try:
            # The memoized search lets heuristic variants share rounds
            # that reach the same graph (all of Figure 8's variants
            # schedule the identical round-1 graph, for instance).
            schedule = schedule_memo().schedule(
                scheduler, work, machine, min_ii=min_ii
            )
        except ScheduleError as error:
            return SpillResult(
                converged=False,
                reason=str(error),
                schedule=_owned(last_schedule),
                report=last_report,
                ddg=work,
                rounds=rounds,
                spilled=spilled,
                effort=effort,
                wall_seconds=time.perf_counter() - started,
            )
        effort.attempts += schedule.effort_attempts
        effort.placements += schedule.effort_placements
        report = register_requirements(schedule, exact=exact)
        last_schedule, last_report = schedule, report

        candidates = []
        if not report.fits(available):
            candidates = select_lifetimes(
                schedule, report, available, policy=policy, multiple=multiple
            )
        selection = tuple(c.lifetime.value for c in candidates)
        rounds.append(
            SpillRound(
                ii=schedule.ii,
                mii=round_mii,
                registers=report.total,
                max_live=report.estimate,
                memory_ops=work.memory_node_count(),
                spilled_values=selection,
            )
        )
        if report.fits(available):
            schedule = _owned(schedule)
            return SpillResult(
                converged=True,
                reason="fits",
                schedule=schedule,
                report=report,
                ddg=schedule.ddg,
                rounds=rounds,
                spilled=spilled,
                effort=effort,
                wall_seconds=time.perf_counter() - started,
            )
        if not selection:
            return SpillResult(
                converged=False,
                reason="no spillable lifetimes remain",
                schedule=_owned(schedule),
                report=report,
                ddg=work,
                rounds=rounds,
                spilled=spilled,
                effort=effort,
                wall_seconds=time.perf_counter() - started,
            )
        # Spill into a fresh copy: the graph just scheduled may now be a
        # schedule-memo entry, and memo entries must never mutate.
        work = work.copy()
        for candidate in candidates:
            apply_spill(
                work,
                candidate.lifetime,
                fuse=fuse,
                mark_non_spillable=mark_non_spillable,
            )
            spilled.append(candidate.lifetime.value)
        fit_complex_operations(work, machine)
        if last_ii:
            # Section 4.5: restart at max(MII, previous II).  The MII is
            # that of the *mutated* graph — the spill code's memory edges
            # lengthen dependence cycles, so RecMII can rise above the II
            # just scheduled.  (This also warms the MII cache for the next
            # round's schedule call.)
            min_ii = max(schedule.ii, cached_mii(work, machine))
    return SpillResult(
        converged=False,
        reason=f"gave up after {max_rounds} rounds",
        schedule=_owned(last_schedule),
        report=last_report,
        ddg=work,
        rounds=rounds,
        spilled=spilled,
        effort=effort,
        wall_seconds=time.perf_counter() - started,
    )


#: Schedules out of the memoized search are shared process-wide; results
#: must not alias them, or one caller mutating its result (its times, or
#: its graph via further spilling) would corrupt every other caller's.
_owned = owned_schedule


def _owned_spill_result(result: SpillResult) -> SpillResult:
    """A caller-owned copy of a (possibly memo-stored) driver result.

    The schedule and graph are deep-copied (callers mutate both);
    ``rounds`` entries and the report are treated as read-only and
    shared.  When the result's graph *is* the schedule's graph (the
    converged case) that aliasing is preserved in the copy.
    """
    schedule = owned_schedule(result.schedule)
    if result.ddg is None:
        ddg = None
    elif result.schedule is not None and result.ddg is result.schedule.ddg:
        ddg = schedule.ddg
    else:
        ddg = result.ddg.copy()
    return SpillResult(
        converged=result.converged,
        reason=result.reason,
        schedule=schedule,
        report=result.report,
        ddg=ddg,
        rounds=list(result.rounds),
        spilled=list(result.spilled),
        effort=Effort(
            placements=result.effort.placements,
            attempts=result.effort.attempts,
        ),
        wall_seconds=result.wall_seconds,
    )
