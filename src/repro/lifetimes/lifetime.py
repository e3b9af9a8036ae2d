"""Value lifetimes of a modulo schedule (paper Sections 2.3-2.4).

A loop-variant value is alive from the *start* of its producer until the
start of its last consumer; the consumer of iteration ``i + delta`` reads
``delta * II`` cycles later than its own-iteration position, giving each
lifetime two components:

* ``LTSch = t(last consumer) - t(producer)`` — the scheduling component,
  shrinks as iteration overlap is reduced;
* ``LTDist = delta * II`` — the distance component, *grows* with II.

That split is the heart of the paper's non-convergence argument: increasing
the II only attacks the scheduling component.

Loop-invariants have a single value alive for the whole loop: one register
each, lifetime II by convention, insensitive to scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.ddg import DDG
from repro.sched.schedule import Schedule
from repro.telemetry import COUNTERS


@dataclass(frozen=True)
class Lifetime:
    """One value's lifetime in a given schedule.

    ``start`` is the producer's start cycle in the flat schedule; length
    components are in cycles.  ``spillable`` reflects the Section 4.3
    marking: values produced or consumed by spill code must not be selected
    again.
    """

    value: str
    start: int
    sched_component: int
    dist_component: int
    consumers: tuple[str, ...]
    spillable: bool = True
    is_invariant: bool = False

    @property
    def length(self) -> int:
        return self.sched_component + self.dist_component

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "inv" if self.is_invariant else "var"
        return (
            f"{self.value}[{kind}] start={self.start}"
            f" LT={self.length} (sch={self.sched_component}"
            f" dist={self.dist_component})"
        )


def variant_lifetimes(schedule: Schedule) -> list[Lifetime]:
    """Lifetimes of all loop-variant values, in producer order.

    Runs on the compiled :mod:`repro.lifetimes.index` arrays — one CSR
    pass instead of per-producer edge-list rebuilds.  The pure-python
    path survives as :func:`variant_lifetimes_reference` (the
    property-test oracle).
    """
    from repro.lifetimes.index import variant_arrays

    varr = variant_arrays(schedule)
    li = varr.li
    names = li.index.names
    starts, sched, dist = varr.starts, varr.sched, varr.dist
    consumers, spillable = li.consumers, li.spillable
    return [
        Lifetime(
            value=names[node_id],
            start=starts[j],
            sched_component=sched[j],
            dist_component=dist[j],
            consumers=consumers[j],
            spillable=spillable[j],
        )
        for j, node_id in enumerate(li.prod)
    ]


def variant_lifetimes_reference(schedule: Schedule) -> list[Lifetime]:
    """Pure-python oracle for :func:`variant_lifetimes`: the original
    per-name edge-list traversal, kept for property tests."""
    ddg = schedule.ddg
    result: list[Lifetime] = []
    for producer in ddg.producers():
        result.append(_lifetime_of(schedule, ddg, producer.name))
    return result


def _lifetime_of(schedule: Schedule, ddg: DDG, name: str) -> Lifetime:
    t_producer = schedule.time(name)
    edges = ddg.reg_out_edges(name)
    COUNTERS.lifetime_visits += len(edges)
    if not edges:
        # Live-out value with no in-loop consumer: the value merely has to
        # be produced; only the final iteration's instance is used after
        # the loop, so charge the producer's latency.
        length = schedule.machine.latency(ddg.nodes[name].opcode)
        return Lifetime(
            value=name,
            start=t_producer,
            sched_component=length,
            dist_component=0,
            consumers=(),
            spillable=False,
        )
    last = max(
        edges, key=lambda e: schedule.time(e.dst) + schedule.ii * e.distance
    )
    sched_component = schedule.time(last.dst) - t_producer
    dist_component = schedule.ii * last.distance
    spillable = (
        not ddg.nodes[name].is_spill
        and all(edge.spillable for edge in edges)
    )
    return Lifetime(
        value=name,
        start=t_producer,
        sched_component=sched_component,
        dist_component=dist_component,
        consumers=tuple(sorted(e.dst for e in edges)),
        spillable=spillable,
    )


def invariant_lifetimes(schedule: Schedule) -> list[Lifetime]:
    """One II-long lifetime per loop-invariant (Section 3: 'the lifetime of
    loop-invariants is always II cycles')."""
    result = []
    for invariant in schedule.ddg.invariants.values():
        result.append(
            Lifetime(
                value=invariant.name,
                start=0,
                sched_component=schedule.ii,
                dist_component=0,
                consumers=tuple(sorted(invariant.consumers)),
                spillable=invariant.spillable,
                is_invariant=True,
            )
        )
    return result
