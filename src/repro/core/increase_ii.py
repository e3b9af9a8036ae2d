"""Register reduction by increasing the initiation interval (Section 3).

The Cydra 5 approach: reschedule at ``II+1, II+2, ...`` until the schedule
fits the register file.  A larger II means fewer overlapped iterations, so
the *scheduling component* of each lifetime spans fewer registers — but the
*distance component* (``delta * II``) and loop-invariants are insensitive
(or grow), so for some loops the requirement plateaus above the available
registers and the search never converges (Figure 4b).

Non-convergence is detected two ways:

* **analytic certificate** — ``invariants + sum over values of the carried
  distance`` registers are needed at *any* II; if that floor exceeds the
  budget, no II can work (the dominant cause the paper identifies);
* **plateau** — the measured requirement has not improved for ``patience``
  consecutive IIs (matches the paper's empirical observation that the
  requirement flattens out, e.g. APSI loop 50 stuck at 41 registers).
"""

from __future__ import annotations

from repro.core.registry import StrategyOutcome
from repro.graph.ddg import DDG
from repro.lifetimes.requirements import RegisterReport, register_requirements
from repro.machine.machine import MachineConfig
from repro.sched.base import Effort, ModuloScheduler
from repro.sched.cache import cached_mii, owned_schedule, schedule_memo
from repro.sched.hrms import HRMSScheduler
from repro.sched.schedule import Schedule


def distance_register_floor(ddg: DDG) -> int:
    """Registers needed at *any* II: one per invariant plus, per value, the
    dependence distance to its farthest consumer (that many instances stay
    permanently live).  Reads the per-producer maximum off the compiled
    :class:`~repro.lifetimes.index.LifetimeIndex` instead of re-filtering
    edge lists."""
    from repro.lifetimes.index import lifetime_index

    return len(ddg.invariants) + sum(lifetime_index(ddg).maxdist)


def schedule_increasing_ii(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler | None = None,
    max_ii: int | None = None,
    patience: int = 8,
    exact: bool = True,
    stop_on_certificate: bool = True,
) -> StrategyOutcome:
    """Figure 1a's flow: schedule, check registers, bump the II, repeat.

    ``trace`` records ``{"ii", "registers"}`` for every II actually
    scheduled — the series Figure 4 plots.  On failure ``schedule`` holds
    the best-effort (lowest-register) schedule found."""
    scheduler = scheduler or HRMSScheduler()
    mii = cached_mii(ddg, machine)
    if max_ii is None:
        max_ii = max(mii * 20, mii + 100)
    effort = Effort()
    trace: list[dict] = []
    best: tuple[Schedule, RegisterReport] | None = None
    floor = distance_register_floor(ddg)

    def outcome(converged, reason, schedule, report):
        return StrategyOutcome(
            converged=converged,
            reason=reason,
            schedule=schedule,
            report=report,
            ddg=schedule.ddg if schedule is not None else None,
            trace=tuple(trace),
            effort=effort,
            details={"iis_tried": len(trace)},
        )

    if stop_on_certificate and floor > available:
        return outcome(
            False,
            f"distance/invariant floor {floor} exceeds"
            f" {available} registers at any II",
            None,
            None,
        )

    since_improvement = 0
    best_registers: int | None = None
    for ii in range(mii, max_ii + 1):
        schedule = schedule_memo().try_at(scheduler, ddg, machine, ii)
        if schedule is None:
            continue
        effort.attempts += schedule.effort_attempts
        effort.placements += schedule.effort_placements
        report = register_requirements(schedule, exact=exact)
        trace.append({"ii": ii, "registers": report.total})
        if best is None or report.total < best[1].total:
            best = (schedule, report)
        if report.fits(available):
            return outcome(True, "fits", owned_schedule(schedule), report)
        if best_registers is None or report.total < best_registers:
            best_registers = report.total
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= patience:
                break
    reason = (
        "register requirement plateaued"
        if since_improvement >= patience
        else f"no fitting schedule up to II={max_ii}"
    )
    if best is None:
        return outcome(False, reason, None, None)
    return outcome(False, reason, owned_schedule(best[0]), best[1])
