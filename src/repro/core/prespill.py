"""Pre-scheduling spill baseline (Wang, Krall, Ertl & Eisenbeis,
MICRO-27 1994 — the paper's reference [30]).

The only prior work combining software pipelining with spilling: spill
load/store operations are added *before* scheduling the loop, and only as
long as doing so does not increase the (estimated) initiation interval.
The contrast with the paper's iterative method (Figure 1b) is structural:

* selection uses *static* lifetime estimates (ASAP times at the MII plus
  the distance component), because no schedule exists yet;
* there is no feedback — after the single scheduling pass the loop either
  fits the register file or it does not;
* spilling stops at the first candidate that would raise the MII, so
  register pressure that can only be removed at some II cost is out of
  reach.

The benchmark harness uses this as the historical baseline for the
iterative driver: it preserves the MII by construction but fails to reach
small register files on exactly the loops the paper cares about.
"""

from __future__ import annotations

from repro.core.registry import StrategyOutcome
from repro.core.spill import apply_spill, fit_complex_operations
from repro.graph.analysis import longest_path_lengths
from repro.ir.operations import Opcode
from repro.graph.ddg import DDG
from repro.lifetimes.lifetime import Lifetime
from repro.lifetimes.requirements import register_requirements
from repro.machine.machine import MachineConfig
from repro.sched.base import Effort, ModuloScheduler, ScheduleError
from repro.sched.cache import cached_mii
from repro.sched.hrms import HRMSScheduler
from repro.telemetry import COUNTERS


def static_lifetimes(ddg: DDG, machine: MachineConfig, ii: int) -> list[Lifetime]:
    """Schedule-free lifetime estimates: ASAP start times at *ii* plus the
    usual distance component.  This is the information a pre-scheduling
    spiller has available.

    Runs over the compiled consumer CSR of
    :class:`~repro.lifetimes.index.LifetimeIndex` (same first-max
    last-consumer tie-break as the scheduled path)."""
    from repro.lifetimes.index import lifetime_index

    latencies = machine.latencies_for(ddg)
    try:
        asap = longest_path_lengths(ddg, latencies, ii)
    except ValueError:
        return []
    li = lifetime_index(ddg)
    names = li.index.names
    start_of = [asap[name] for name in names]
    coff, cdst, cdist = li.coff, li.cdst, li.cdist
    estimates = []
    for j, node_id in enumerate(li.prod):
        lo = coff[j]
        hi = coff[j + 1]
        if lo == hi:
            continue
        best_end = start_of[cdst[lo]] + ii * cdist[lo]
        best_d = cdist[lo]
        for k in range(lo + 1, hi):
            end = start_of[cdst[k]] + ii * cdist[k]
            if end > best_end:
                best_end = end
                best_d = cdist[k]
        name = names[node_id]
        sched = max(
            best_end - ii * best_d - start_of[node_id],
            latencies[name],
        )
        estimates.append(
            Lifetime(
                value=name,
                start=start_of[node_id],
                sched_component=sched,
                dist_component=ii * best_d,
                consumers=li.consumers[j],
                spillable=li.spillable[j],
            )
        )
    COUNTERS.lifetime_visits += len(cdst)
    for invariant in ddg.invariants.values():
        estimates.append(
            Lifetime(
                value=invariant.name,
                start=0,
                sched_component=ii,
                dist_component=0,
                consumers=tuple(sorted(invariant.consumers)),
                spillable=invariant.spillable,
                is_invariant=True,
            )
        )
    return estimates


def estimated_pressure(ddg: DDG, machine: MachineConfig, ii: int) -> float:
    """Schedule-free register pressure estimate: total lifetime mass per
    II (the average-live lower bound) plus invariants."""
    variants = [lt for lt in static_lifetimes(ddg, machine, ii)
                if not lt.is_invariant]
    mass = sum(lt.length for lt in variants)
    return mass / ii + len(ddg.invariants)


def schedule_with_prescheduling_spill(
    ddg: DDG,
    machine: MachineConfig,
    available: int,
    scheduler: ModuloScheduler | None = None,
    max_spills: int = 100,
) -> StrategyOutcome:
    """Wang-style flow: spill statically while the MII is preserved, then
    schedule once and report whether the loop fits."""
    scheduler = scheduler or HRMSScheduler()
    work = ddg.copy()
    base_mii = cached_mii(work, machine)
    spilled: list[str] = []

    for _ in range(max_spills):
        if estimated_pressure(work, machine, base_mii) <= available:
            break
        reload_latency = machine.latency(Opcode.SPILL_LOAD)
        candidates = [
            lt for lt in static_lifetimes(work, machine, base_mii)
            if lt.spillable and lt.consumers and lt.length > reload_latency
        ]
        candidates.sort(key=lambda lt: (-lt.length, lt.value))
        progressed = False
        for candidate in candidates:
            trial = work.copy()
            try:
                apply_spill(trial, candidate)
            except (ValueError, KeyError):
                continue
            if cached_mii(trial, machine) > base_mii:
                continue  # the defining rule: never raise the (M)II
            work = trial
            spilled.append(candidate.value)
            progressed = True
            break
        if not progressed:
            break
    fit_complex_operations(work, machine)

    details = {"base_mii": base_mii, "mii_preserved": True}
    try:
        schedule = scheduler.schedule(work, machine)
    except ScheduleError as error:
        return StrategyOutcome(
            converged=False,
            reason=str(error),
            schedule=None,
            report=None,
            ddg=work,
            spilled=tuple(spilled),
            details=details,
        )
    report = register_requirements(schedule)
    fits = report.fits(available)
    return StrategyOutcome(
        converged=fits,
        reason="fits" if fits else (
            f"needs {report.total} registers after the single pass"
        ),
        schedule=schedule,
        report=report,
        ddg=work,
        spilled=tuple(spilled),
        effort=Effort(
            attempts=schedule.effort_attempts,
            placements=schedule.effort_placements,
        ),
        details=details,
    )
