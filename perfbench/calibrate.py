"""Host-speed calibration.

The benchmark's host is a few cores of a shared machine whose speed
moves in steps: a fixed pure-Python loop timed back to back on a
2-core VM (Python 3.11) took anywhere from 0.47 s to 0.85 s, with
process CPU time equal to wall time (no steal), and whole timed runs
drifted by up to 1.7x between minutes.  No aggregation inside one run
removes a step that lasts longer than the run.

So every timed stretch of program work is interleaved with a fixed
reference workload, :func:`unit`, that lives in the benchmark and never
imports the program.  The ratio of its measured time to
:data:`NOMINAL_UNIT_S` is the host's *slowdown* while the program ran,
and every time the benchmark reports is divided by it: times are
seconds on a host that runs :func:`unit` in ``NOMINAL_UNIT_S``.  A
program change moves those times as it moves wall time; a host step
moves the program and the reference together and cancels.  The
slices read the host's level over a pass or a run; they do not follow
its second-to-second jitter inside one long operation.

:func:`unit` mimics the program's interpreter profile: small dicts and
sets keyed by ints and tuples, attribute-free list work, sorting and
short function calls over a dependence-graph-like structure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

#: seconds one :func:`unit` takes on the reference host (the fast end
#: of the 2-core VM named above, where it takes 0.11-0.15 ms)
NOMINAL_UNIT_S = 0.0001
#: reference work per second of program work
DUTY = 0.25

_OPS = 48


def _edges(seed: int) -> dict[int, list[tuple[int, int]]]:
    state = seed * 2654435761 % 2**32 or 1
    edges: dict[int, list[tuple[int, int]]] = {}
    for src in range(_OPS):
        out = []
        for _ in range(3):
            state = state * 1103515245 + 12345 & 0x7FFFFFFF
            dst = src + 1 + state % 7
            if dst < _OPS:
                out.append((dst, 1 + (state >> 8) % 4))
        edges[src] = out
    return edges


def unit(seed: int = 0) -> int:
    """One fixed piece of reference work (~0.1 ms): a longest-path pass
    and a modulo-reservation-table placement over a small random DAG.
    Returns a checksum so the work cannot be skipped."""
    edges = _edges(seed)
    earliest = dict.fromkeys(range(_OPS), 0)
    for src in range(_OPS):
        for dst, latency in edges[src]:
            if earliest[src] + latency > earliest[dst]:
                earliest[dst] = earliest[src] + latency
    order = sorted(range(_OPS), key=lambda op: (-earliest[op], op))
    ii = 1 + _OPS // 4
    table: dict[tuple[int, int], int] = {}
    placed: set[int] = set()
    checksum = 0
    for op in order:
        slot = earliest[op]
        while table.get((slot % ii, op % 2), 0) >= 2:
            slot += 1
        table[(slot % ii, op % 2)] = table.get((slot % ii, op % 2), 0) + 1
        placed.add(op)
        checksum = (checksum * 31 + slot) % 1_000_003
    return checksum + len(placed)


class Meter:
    """Accumulates reference-work time interleaved with program work.

    Call :meth:`sample` after each timed stretch of program work with
    that stretch's duration; it runs reference units for :data:`DUTY`
    of it (at least one unit).  :meth:`slowdown` is then the host's mean
    slowdown over the stretches, weighted by their length.

    With ``processes`` > 1 every slice runs in that many worker
    processes at once, which start with the meter and live until
    :meth:`close`: the host's speed with that many cores busy, for
    program work that keeps that many cores busy.  With one process the
    slice runs in the calling process."""

    def __init__(self, processes: int = 1):
        self.units = 0
        self.seconds = 0.0
        self.workers = [
            subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
            )
            for _ in range(processes if processes > 1 else 0)
        ]

    def close(self) -> None:
        """Stop the worker processes and wait for them."""
        for worker in self.workers:
            worker.stdin.close()
        for worker in self.workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()
        self.workers = []

    def sample(self, work_s: float) -> None:
        """The calibration slice after *work_s* seconds of program work:
        reference units for ``DUTY * work_s`` seconds (one at least, in
        each process)."""
        seconds = DUTY * work_s
        if self.workers:
            # every worker starts and stops its clock at the same times
            start = time.time() + 0.01
            for worker in self.workers:
                worker.stdin.write(f"{start} {start + seconds}\n")
                worker.stdin.flush()
            units = spent = 0
            for worker in self.workers:
                done = json.loads(worker.stdout.readline())
                units += done["units"]
                spent += done["seconds"]
        else:
            units, spent = _run_units(self.units,
                                      time.perf_counter() + seconds)
        self.units += units
        self.seconds += spent

    def slowdown(self) -> float:
        """Seconds per unit over all slices, over the nominal."""
        if not self.units:
            return 1.0
        return self.seconds / (self.units * NOMINAL_UNIT_S)


def _run_units(first: int, deadline: float) -> tuple[int, float]:
    """Run units until *deadline* (``perf_counter``), one at least;
    returns the count and the seconds spent."""
    started = time.perf_counter()
    units = 0
    while True:
        unit((first + units) % 8)  # a fixed cycle of eight graphs
        units += 1
        now = time.perf_counter()
        if now >= deadline:
            return units, now - started


def _worker() -> None:
    """A :class:`Meter` worker: each stdin line "START END" (wall-clock
    times) runs units from START to END and answers {"units",
    "seconds"}."""
    done_units = 0
    for line in sys.stdin:
        begin, end = map(float, line.split())
        time.sleep(max(0.0, begin - time.time()))
        count, spent = _run_units(done_units,
                                  time.perf_counter() + end - time.time())
        done_units += count
        print(json.dumps({"units": count, "seconds": spent}), flush=True)


if __name__ == "__main__":
    _worker()
