"""Register allocation for software-pipelined loops on a rotating register
file — the "wands-only, end-fit, adjacency ordering" strategy of Rau,
Lee, Tirumalai & Schlansker (PLDI 1992), which the paper uses to validate
that MaxLive is achievable ("almost never required more than MaxLive + 1").

Model: with a rotating file of ``R`` registers, the register name space
seen across iterations is a circle of circumference ``R * II`` cycles (the
file rotates one register every II).  A value born at cycle ``s`` with
lifetime ``L`` occupies an arc of length ``L``; the allocator's only
freedom is which register the value starts in, i.e. the arc may be placed
at ``(s + k * II) mod (R * II)`` for ``k in 0..R-1``.  Allocation succeeds
if all arcs are placed without overlap.

* adjacency ordering: values are placed in order of their start position
  around the circle (ties: longer first), so each placement tends to abut
  the previous one;
* end-fit: among the feasible start positions, pick the one leaving the
  smallest free gap behind the arc.

Like the PR-4 MRT rework, the circle is one ``R * II``-bit Python int:
an arc is a shifted ``(1 << L) - 1`` mask folded around the circumference,
overlap is a single AND, and the gap behind a position falls out of
``bit_length`` on the rotated occupancy word — the per-cell scans of the
original implementation (kept as :func:`allocate_registers_reference`,
the property-test oracle) collapse to a handful of bignum operations per
candidate slot.  Both paths count their occupancy probes into
``repro.telemetry.COUNTERS.alloc_probes`` (cells touched vs. arcs
tested), which is what the allocation CI gate compares.

Loop-invariants live in ordinary (static) registers: one each, added on
top of the rotating allocation by :mod:`repro.lifetimes.requirements`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lifetimes.lifetime import Lifetime, variant_lifetimes
from repro.lifetimes.maxlive import _pattern_from, max_live
from repro.telemetry import COUNTERS
from repro.trace.profile import phase
from repro.sched.schedule import Schedule


@dataclass
class AllocationResult:
    """Outcome of rotating-file allocation.

    ``registers`` is the smallest file size that worked; ``placement`` maps
    value name → start offset ``k`` (in registers) around the file;
    ``max_live`` is the lower bound for comparison.
    """

    registers: int
    max_live: int
    placement: dict[str, int] = field(default_factory=dict)

    @property
    def excess_over_maxlive(self) -> int:
        return self.registers - self.max_live


def allocate_registers(
    schedule: Schedule,
    lifetimes: list[Lifetime] | None = None,
    max_registers: int | None = None,
) -> AllocationResult:
    """Allocate all loop-variant lifetimes; returns the smallest feasible
    rotating-file size (>= MaxLive).

    Raises ``RuntimeError`` if no size up to *max_registers* (default:
    MaxLive plus one register per value — always sufficient) works.
    """
    ii = schedule.ii
    if lifetimes is None:
        from repro.lifetimes.index import variant_arrays

        varr = variant_arrays(schedule)
        names = varr.li.index.names
        prod = varr.li.prod
        live = [j for j in range(len(prod)) if varr.lengths[j] > 0]
        values = [names[prod[j]] for j in live]
        starts = [varr.starts[j] for j in live]
        lengths = [varr.lengths[j] for j in live]
        pattern = _pattern_from(varr.starts, varr.lengths, ii)
        live_bound = max(pattern) if pattern else 0
    else:
        values = [lt.value for lt in lifetimes]
        starts = [lt.start for lt in lifetimes]
        lengths = [lt.length for lt in lifetimes]
        live_bound = max_live(schedule, include_invariants=False)
    return allocate_arrays(
        schedule.ddg.name, ii, values, starts, lengths, live_bound,
        max_registers,
    )


def allocate_arrays(
    loop_name: str,
    ii: int,
    values: list[str],
    starts: list[int],
    lengths: list[int],
    live_bound: int,
    max_registers: int | None = None,
) -> AllocationResult:
    """Array-level entry point: allocate parallel value/start/length
    vectors (every length > 0) against *live_bound*."""
    with phase("allocation"):
        return _allocate_arrays(
            loop_name, ii, values, starts, lengths, live_bound,
            max_registers,
        )


def _allocate_arrays(
    loop_name: str,
    ii: int,
    values: list[str],
    starts: list[int],
    lengths: list[int],
    live_bound: int,
    max_registers: int | None,
) -> AllocationResult:
    if not values:
        return AllocationResult(registers=0, max_live=0)
    ceiling = max_registers
    if ceiling is None:
        ceiling = live_bound + len(values) + 1
    # Rau et al. evaluate several ordering strategies; trying the two best
    # (adjacency and sorted-by-length) per file size keeps the achieved
    # count at MaxLive(+1) nearly always.
    orderings = [
        sorted(
            range(len(values)),
            key=lambda j: (starts[j] % ii, -lengths[j], values[j]),
        ),
        sorted(
            range(len(values)),
            key=lambda j: (-lengths[j], starts[j], values[j]),
        ),
    ]
    for registers in range(max(live_bound, 1), ceiling + 1):
        for ordered in orderings:
            placement = _try_allocate(
                ordered, values, starts, lengths, ii, registers
            )
            if placement is not None:
                return AllocationResult(
                    registers=registers,
                    max_live=live_bound,
                    placement=placement,
                )
    raise RuntimeError(
        f"allocation failed for {loop_name} even with"
        f" {ceiling} rotating registers (MaxLive={live_bound})"
    )


def _try_allocate(
    ordered: list[int],
    values: list[str],
    starts: list[int],
    lengths: list[int],
    ii: int,
    registers: int,
) -> dict[str, int] | None:
    """One end-fit placement pass on a ``registers * ii``-bit circle.

    Bit ``c`` of ``occupied`` is circle cell ``c``.  For each candidate
    slot the arc mask is the length mask shifted to its start and folded
    around the circumference; the gap behind a feasible start is the run
    of clear bits at the top of the occupancy word rotated so the start
    becomes bit 0 — identical, slot for slot, to the reference scan's
    strict-< first-wins selection.
    """
    circumference = registers * ii
    full = (1 << circumference) - 1
    occupied = 0
    placement: dict[str, int] = {}
    probes = 0
    for j in ordered:
        length = lengths[j]
        if length > circumference:
            COUNTERS.alloc_probes += probes
            return None
        arc = (1 << length) - 1
        position = starts[j] % circumference
        best_slot = -1
        best_gap = 0
        for slot in range(registers):
            probes += 1
            shifted = arc << position
            mask = (shifted | (shifted >> circumference)) & full
            if not occupied & mask:
                if position:
                    rotated = (
                        (occupied >> position)
                        | (occupied << (circumference - position))
                    ) & full
                else:
                    rotated = occupied
                gap = (
                    circumference - rotated.bit_length() if rotated
                    else circumference
                )
                if best_slot < 0 or gap < best_gap:
                    best_slot = slot
                    best_gap = gap
                    if gap == 0:
                        break
            position += ii
            if position >= circumference:
                position -= circumference
        if best_slot < 0:
            COUNTERS.alloc_probes += probes
            return None
        start = (starts[j] + best_slot * ii) % circumference
        shifted = arc << start
        occupied |= (shifted | (shifted >> circumference)) & full
        placement[values[j]] = best_slot
    COUNTERS.alloc_probes += probes
    return placement


# ----------------------------------------------------------------------
# pure-python oracle (the original per-cell implementation)
def allocate_registers_reference(
    schedule: Schedule,
    lifetimes: list[Lifetime] | None = None,
    max_registers: int | None = None,
) -> AllocationResult:
    """Pure-python oracle for :func:`allocate_registers`: the original
    bytearray circle with per-cell overlap and gap scans.  Property tests
    assert placement-for-placement equality with the bitmask path."""
    if lifetimes is None:
        lifetimes = [
            lt for lt in variant_lifetimes(schedule) if lt.length > 0
        ]
    live_bound = max_live(schedule, include_invariants=False)
    if not lifetimes:
        return AllocationResult(registers=0, max_live=0)
    ceiling = max_registers
    if ceiling is None:
        ceiling = live_bound + len(lifetimes) + 1
    orderings = [
        sorted(
            lifetimes,
            key=lambda lt: (lt.start % schedule.ii, -lt.length, lt.value),
        ),
        sorted(lifetimes, key=lambda lt: (-lt.length, lt.start, lt.value)),
    ]
    for registers in range(max(live_bound, 1), ceiling + 1):
        for ordered in orderings:
            placement = _try_allocate_reference(ordered, schedule.ii, registers)
            if placement is not None:
                return AllocationResult(
                    registers=registers,
                    max_live=live_bound,
                    placement=placement,
                )
    raise RuntimeError(
        f"allocation failed for {schedule.ddg.name} even with"
        f" {ceiling} rotating registers (MaxLive={live_bound})"
    )


def _try_allocate_reference(
    ordered: list[Lifetime], ii: int, registers: int
) -> dict[str, int] | None:
    circumference = registers * ii
    occupied = bytearray(circumference)
    placement: dict[str, int] = {}
    for lifetime in ordered:
        if lifetime.length > circumference:
            return None
        slot = _end_fit(occupied, lifetime, ii, registers)
        if slot is None:
            return None
        start = (lifetime.start + slot * ii) % circumference
        for cycle in range(lifetime.length):
            occupied[(start + cycle) % circumference] = 1
        placement[lifetime.value] = slot
    return placement


def _end_fit(
    occupied: bytearray, lifetime: Lifetime, ii: int, registers: int
) -> int | None:
    """The feasible register offset whose arc start sits closest behind an
    already-occupied cell (smallest wasted gap)."""
    circumference = registers * ii
    best_slot: int | None = None
    best_gap: int | None = None
    for slot in range(registers):
        start = (lifetime.start + slot * ii) % circumference
        if _overlaps(occupied, start, lifetime.length, circumference):
            continue
        limit = circumference if best_gap is None else best_gap
        gap = _gap_behind(occupied, start, circumference, limit)
        if best_gap is None or gap < best_gap:
            best_slot, best_gap = slot, gap
            if gap == 0:
                break
    return best_slot


def _overlaps(
    occupied: bytearray, start: int, length: int, circumference: int
) -> bool:
    for cycle in range(length):
        COUNTERS.alloc_probes += 1
        if occupied[(start + cycle) % circumference]:
            return True
    return False


def _gap_behind(
    occupied: bytearray, start: int, circumference: int, limit: int
) -> int:
    """Free cells immediately behind *start*, capped at *limit* (callers
    only need gaps smaller than the best one found so far)."""
    gap = 0
    position = (start - 1) % circumference
    while gap < limit and not occupied[position]:
        COUNTERS.alloc_probes += 1
        gap += 1
        position = (position - 1) % circumference
    return gap
