"""Modulo reservation table (MRT).

Modulo scheduling requires that the resource usage pattern of one iteration,
taken modulo II, never conflicts with itself.  The MRT records, for every
functional unit and every cycle ``0..II-1``, which operation occupies it.

Pipelined units are busy for one cycle per operation.  Non-pipelined units
(the paper's Div/Sqrt) stay busy for the operation's full latency; since the
same unit is reserved in every iteration, such an operation only fits if its
latency is at most II — which is why any loop containing a divide has
``ResMII >= 17`` on the paper's machines.

Availability checks are integer-bitmask operations: each unit carries an
II-bit occupancy mask, an operation's footprint is a mask of its slots
mod II, and ``can_place`` is one AND per unit instead of a nested
list scan.  The name-per-slot grid is kept alongside the masks for the
queries that need occupant identities (:meth:`conflicting`,
:meth:`render`, :meth:`utilization`).  Unit probes are counted in
:data:`repro.telemetry.COUNTERS` (``mrt_probes``) — the deterministic
effort proxy surfaced by :class:`repro.api.CompilationResult`.
"""

from __future__ import annotations

from repro.ir.operations import FuClass, Opcode
from repro.machine.machine import MachineConfig
from repro.telemetry import COUNTERS


class ModuloReservationTable:
    """Occupancy of every functional unit over one initiation interval."""

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        if ii < 1:
            raise ValueError(f"II must be positive, got {ii}")
        self.machine = machine
        self.ii = ii
        self._grid: dict[FuClass, list[list[str | None]]] = {
            fu_class: [[None] * ii for _ in range(count)]
            for fu_class, count in machine.fu_counts.items()
        }
        #: Per-unit occupancy bitmask, bit ``c`` set when cycle ``c`` is
        #: busy; parallel to ``_grid``'s rows.
        self._masks: dict[FuClass, list[int]] = {
            fu_class: [0] * count
            for fu_class, count in machine.fu_counts.items()
        }
        self._placements: dict[str, tuple[FuClass, int, list[int]]] = {}

    # ------------------------------------------------------------------
    def _cycles(self, opcode: Opcode, start: int) -> list[int] | None:
        """Slots (mod II) an operation starting at *start* occupies, or
        ``None`` if it cannot fit at any start cycle (occupancy > II)."""
        occupancy = self.machine.occupancy(opcode)
        if occupancy > self.ii:
            return None
        return [(start + j) % self.ii for j in range(occupancy)]

    def _footprint(self, opcode: Opcode, start: int) -> int | None:
        """The occupancy bitmask of an operation starting at *start*, or
        ``None`` when it cannot fit at any start cycle."""
        occupancy = self.machine.occupancy(opcode)
        ii = self.ii
        if occupancy > ii:
            return None
        start %= ii
        mask = ((1 << occupancy) - 1) << start
        # fold the wrap-around back into the low bits
        return (mask | (mask >> ii)) & ((1 << ii) - 1)

    def _free_unit(self, fu_class: FuClass, footprint: int) -> int | None:
        """Lowest-numbered unit whose mask does not intersect
        *footprint* (one AND per unit)."""
        for unit, busy in enumerate(self._masks.get(fu_class, ())):
            COUNTERS.mrt_probes += 1
            if not busy & footprint:
                return unit
        return None

    # ------------------------------------------------------------------
    def can_place(self, opcode: Opcode, start: int) -> bool:
        footprint = self._footprint(opcode, start)
        if footprint is None:
            return False
        return (
            self._free_unit(self.machine.fu_class(opcode), footprint)
            is not None
        )

    def place(self, name: str, opcode: Opcode, start: int) -> None:
        """Reserve resources for operation *name* starting at *start*.

        Raises ``RuntimeError`` when no unit is free (callers are expected
        to test with :meth:`can_place` or evict first).
        """
        if name in self._placements:
            raise RuntimeError(f"{name} is already placed")
        footprint = self._footprint(opcode, start)
        fu_class = self.machine.fu_class(opcode)
        unit = (
            None if footprint is None
            else self._free_unit(fu_class, footprint)
        )
        if unit is None:
            raise RuntimeError(f"no free {fu_class.value} unit for {name} at {start}")
        cycles = self._cycles(opcode, start)
        for cycle in cycles:
            self._grid[fu_class][unit][cycle] = name
        self._masks[fu_class][unit] |= footprint
        self._placements[name] = (fu_class, unit, cycles)

    def remove(self, name: str) -> None:
        fu_class, unit, cycles = self._placements.pop(name)
        for cycle in cycles:
            self._grid[fu_class][unit][cycle] = None
            self._masks[fu_class][unit] &= ~(1 << cycle)

    def is_placed(self, name: str) -> bool:
        return name in self._placements

    def conflicting(self, opcode: Opcode, start: int) -> set[str]:
        """Operations whose eviction would free some unit for *opcode* at
        *start*: the occupants of the least-loaded unit's needed slots
        (used by iterative modulo scheduling's forced placement)."""
        cycles = self._cycles(opcode, start)
        if cycles is None:
            return set()
        fu_class = self.machine.fu_class(opcode)
        best: set[str] | None = None
        for row in self._grid.get(fu_class, []):
            occupants = {row[c] for c in cycles if row[c] is not None}
            if best is None or len(occupants) < len(best):
                best = occupants
        return best or set()

    # ------------------------------------------------------------------
    def utilization(self, fu_class: FuClass) -> float:
        """Fraction of this class's slots occupied — e.g. bus usage of the
        memory units (Section 4.4's traffic discussion)."""
        rows = self._grid.get(fu_class, [])
        total = len(rows) * self.ii
        if total == 0:
            return 0.0
        busy = sum(1 for row in rows for cell in row if cell is not None)
        return busy / total

    def render(self) -> str:
        """ASCII dump for debugging and the figure-style reports."""
        lines = []
        for fu_class, rows in self._grid.items():
            for unit, row in enumerate(rows):
                cells = " ".join(f"{cell or '.':>10}" for cell in row)
                lines.append(f"{fu_class.value}[{unit}] {cells}")
        return "\n".join(lines)
