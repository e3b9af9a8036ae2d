"""The tight-spill corpus: dense-recurrence random loops under small
register budgets, on a one- and a two-memory-unit machine.

The corpus is fixed (see README.md): ``random_suite`` loops from the
fuzz seed of ROADMAP Open item 1 at two generator settings, each loop
compiled once on P1L4 and twice on P2L4 (at two budgets).  The
scheduler rotates over hrms/ims/swing and the budget over 4/8/12/16
with the request index.  The run's seed only orders the stream.

P2L4 compiles take milliseconds and P1L4 ones up to seconds, so the
two-to-one mix keeps the median inside the P2L4 group rather than on
the gap between the groups.
"""

from __future__ import annotations

from common import TIGHT_CORPUS_SEED

LOOPS_PER_SETTING = 8
SETTINGS = (
    # (ops, recurrence_density, seed offset)
    (20, 0.4, 0),
    (16, 0.3, 1),
)
SCHEDULERS = ("hrms", "ims", "swing")
BUDGETS = (4, 8, 12, 16)


def requests(corpus_seed: int = TIGHT_CORPUS_SEED) -> list[dict]:
    from repro.workloads.suite import random_suite
    from repro.workloads.synthetic import RandomDDGParams

    loops = [
        (ops, workload)
        for ops, density, offset in SETTINGS
        for workload in random_suite(
            LOOPS_PER_SETTING, corpus_seed + offset,
            RandomDDGParams(ops=ops, recurrence_density=density),
        )
    ]
    out = []
    for i, (ops, workload) in enumerate(loops):
        def add(machine: str, rotation: int, budget_shift: int = 0) -> None:
            out.append({
                "loop": f"tight_o{ops}_{workload.name}",
                "source": workload.source,
                "weight": workload.weight,
                "machine": machine,
                "scheduler": SCHEDULERS[rotation % len(SCHEDULERS)],
                "budget": BUDGETS[(rotation // len(SCHEDULERS) + budget_shift)
                                  % len(BUDGETS)],
            })

        add("P1L4", 2 * i)
        add("P2L4", 2 * i + 1)
        # the second P2L4 compile: next scheduler, opposite budget
        add("P2L4", 2 * i + 2, budget_shift=2)
    return out
