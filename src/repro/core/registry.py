"""Register-pressure strategy registry.

The paper's four ways of making a modulo-scheduled loop fit a register
file — iterative spilling (Figure 1b), increasing the II (Figure 1a),
the pre-scheduling spill baseline [30] and the combined Section-5 method
— plus the trivial "none" (schedule and report), are all instances of
one loop: *schedule → measure registers → react*.  This module names
them, so the CLI, the experiment engine and the :mod:`repro.api` facade
select a strategy by string instead of hard-coding the four driver entry
points.  The drivers themselves (:mod:`repro.core.driver`,
:mod:`repro.core.increase_ii`, :mod:`repro.core.prespill`,
:mod:`repro.core.combined`) build and return :class:`StrategyOutcome`,
so each built-in strategy below only checks its options and calls one.

Each strategy is a callable

    strategy(ddg, machine, scheduler, registers, options) -> StrategyOutcome

returning the normalized :class:`StrategyOutcome` shape the facade turns
into a :class:`repro.api.CompilationResult`.  ``options`` is a plain
dict; unknown keys raise :class:`ValueError` (silently dropping one
would change the run's semantics).

Third-party strategies join with the :func:`register` decorator::

    from repro.core.registry import StrategyOutcome, register

    @register("anneal")
    def anneal(ddg, machine, scheduler, registers, options):
        ...
        return StrategyOutcome(converged=..., ...)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.select import SelectionPolicy
from repro.graph.ddg import DDG
from repro.lifetimes.requirements import RegisterReport, register_requirements
from repro.machine.machine import MachineConfig
from repro.sched.base import Effort, ModuloScheduler, ScheduleError
from repro.sched.cache import owned_schedule, schedule_memo
from repro.sched.schedule import Schedule


@dataclass
class StrategyOutcome:
    """What every strategy reports, whatever its internal driver.

    ``trace`` is the per-round/per-II history (list of flat dicts, JSON
    safe); ``details`` carries small strategy-specific scalars.
    """

    converged: bool
    reason: str
    schedule: Schedule | None
    report: RegisterReport | None
    ddg: DDG | None
    spilled: tuple[str, ...] = ()
    trace: tuple[dict, ...] = ()
    effort: Effort = field(default_factory=Effort)
    details: dict = field(default_factory=dict)


StrategyFn = Callable[
    [DDG, MachineConfig, ModuloScheduler, "int | None", dict],
    StrategyOutcome,
]

_STRATEGIES: dict[str, StrategyFn] = {}
_OPTION_NAMES: dict[str, tuple[str, ...]] = {}


def register(name: str, *, replace: bool = False,
             options: tuple[str, ...] = ()):
    """Decorator adding a strategy callable under *name*.

    *options* declares the option names the strategy accepts; callers
    (e.g. the CLI's ``--policy`` plumbing) introspect them with
    :func:`strategy_options` instead of hard-coding strategy names.
    """

    def _register(fn: StrategyFn) -> StrategyFn:
        key = name.lower()
        if not replace and key in _STRATEGIES and _STRATEGIES[key] is not fn:
            raise ValueError(
                f"strategy {key!r} is already registered; pass"
                " replace=True to override"
            )
        _STRATEGIES[key] = fn
        _OPTION_NAMES[key] = tuple(options)
        return fn

    return _register


def unregister(name: str) -> None:
    """Remove a registry entry (mainly for tests of custom strategies)."""
    _STRATEGIES.pop(name.lower(), None)
    _OPTION_NAMES.pop(name.lower(), None)


def strategy_names() -> list[str]:
    """All registered strategy names, sorted."""
    return sorted(_STRATEGIES)


def strategy_options(name: str) -> tuple[str, ...]:
    """The option names a registered strategy declared."""
    get_strategy(name)  # raises on unknown names
    return _OPTION_NAMES.get(name.lower(), ())


def get_strategy(name: str) -> StrategyFn:
    """Look up a strategy by (case-insensitive) name."""
    fn = _STRATEGIES.get(name.lower())
    if fn is None:
        raise ValueError(
            f"unknown strategy {name!r}"
            f" (registered: {', '.join(strategy_names())})"
        )
    return fn


# ----------------------------------------------------------------------
# option plumbing shared by the built-in strategies
def _check_options(strategy: str, options: dict):
    allowed = strategy_options(strategy)
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown option(s) {', '.join(map(repr, unknown))} for"
            f" strategy {strategy!r} (allowed: {', '.join(allowed)})"
        )


def _policy(options: dict) -> SelectionPolicy:
    value = options.get("policy", SelectionPolicy.MAX_LT_TRAF)
    if isinstance(value, SelectionPolicy):
        return value
    try:
        return SelectionPolicy(value)
    except ValueError:
        raise ValueError(
            f"unknown selection policy {value!r}"
            f" (choose {', '.join(p.value for p in SelectionPolicy)})"
        ) from None


def _require_budget(strategy: str, registers) -> int:
    if registers is None:
        raise ValueError(
            f"strategy {strategy!r} needs a register budget"
            " (registers=None is only meaningful for strategy 'none')"
        )
    return int(registers)


# ----------------------------------------------------------------------
# built-in strategies
@register("spill", options=(
    "policy", "multiple", "last_ii", "exact", "max_rounds", "fuse",
    "mark_non_spillable",
))
def _spill(ddg, machine, scheduler, registers, options) -> StrategyOutcome:
    """Iterative spilling (paper Figure 1b, Sections 4-4.5)."""
    from repro.core.driver import schedule_with_spilling

    _check_options("spill", options)
    return schedule_with_spilling(
        ddg, machine, _require_budget("spill", registers),
        scheduler=scheduler, **{**options, "policy": _policy(options)},
    )


@register("increase", options=(
    "patience", "max_ii", "exact", "stop_on_certificate",
))
def _increase(ddg, machine, scheduler, registers, options) -> StrategyOutcome:
    """Reschedule at ever larger IIs (paper Figure 1a, the Cydra 5 way)."""
    from repro.core.increase_ii import schedule_increasing_ii

    _check_options("increase", options)
    return schedule_increasing_ii(
        ddg, machine, _require_budget("increase", registers),
        scheduler=scheduler, **options,
    )


@register("prespill", options=("max_spills",))
def _prespill(ddg, machine, scheduler, registers, options) -> StrategyOutcome:
    """Pre-scheduling spill baseline (Wang et al. [30]): single pass,
    MII preserved by construction."""
    from repro.core.prespill import schedule_with_prescheduling_spill

    _check_options("prespill", options)
    return schedule_with_prescheduling_spill(
        ddg, machine, _require_budget("prespill", registers),
        scheduler=scheduler, **options,
    )


@register("combined", options=("policy", "exact"))
def _combined(ddg, machine, scheduler, registers, options) -> StrategyOutcome:
    """The Section-5 "best of all" method: spill, then probe plain
    schedules below the spill II and keep the faster loop."""
    from repro.core.combined import schedule_best_of_both

    _check_options("combined", options)
    return schedule_best_of_both(
        ddg, machine, _require_budget("combined", registers),
        scheduler=scheduler, **{**options, "policy": _policy(options)},
    )


@register("none", options=("exact",))
def _none(ddg, machine, scheduler, registers, options) -> StrategyOutcome:
    """No register-pressure reaction: schedule once and report.  With a
    budget, ``converged`` says whether the loop happens to fit; without
    one (``registers=None``) the schedule always counts as converged."""
    _check_options("none", options)
    effort = Effort()
    try:
        schedule = schedule_memo().schedule(scheduler, ddg, machine)
    except ScheduleError as error:
        return StrategyOutcome(
            converged=False,
            reason=str(error),
            schedule=None,
            report=None,
            ddg=None,
            effort=effort,
        )
    effort.attempts += schedule.effort_attempts
    effort.placements += schedule.effort_placements
    report = register_requirements(
        schedule, exact=options.get("exact", True)
    )
    schedule = owned_schedule(schedule)
    fits = registers is None or report.fits(registers)
    return StrategyOutcome(
        converged=fits,
        reason="fits" if fits else (
            f"needs {report.total} registers, budget is {registers}"
        ),
        schedule=schedule,
        report=report,
        ddg=schedule.ddg,
        effort=effort,
        details={"budget_checked": registers is not None},
    )
