"""Effort-counter regression gate.

Compiles a pinned suite with every cache bypassed and compares the
deterministic work counters (`attempts`, `placements`, `relaxations`,
`mrt_probes`, `lifetime_visits`, `alloc_probes` — plus `mii`/`ii` as
sanity anchors) against the checked-in expectations in
``benchmarks/expected_effort.json``.

The counters are pure counts of algorithmic work — no wall clock — so
any drift is a real behaviour or performance change: an intended one is
recorded by re-running with ``--update`` and committing the diff, an
unintended one fails CI.

Usage::

    PYTHONPATH=src python tools/effort_regression.py            # verify
    PYTHONPATH=src python tools/effort_regression.py --update   # re-pin
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

EXPECTATIONS = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "expected_effort.json"
)

#: The pinned grid: every (loop, scheduler, strategy, budget, machine)
#: cell below is compiled cold.  Small enough to run in seconds, wide
#: enough to cover all three schedulers and every built-in strategy.
#: The P1L4 cells pin the work of spill groups on one memory unit at a
#: tight budget, where the driver unfuses the reloads a complex
#: operation cannot hold.
SUITE_SIZE = 10
SUITE_SEED = 424242
MACHINE = "P2L4"
CELLS = (
    ("hrms", "spill", 32, MACHINE),
    ("hrms", "increase", 32, MACHINE),
    ("ims", "spill", 32, MACHINE),
    ("swing", "none", None, MACHINE),
    ("hrms", "combined", 32, MACHINE),
    ("hrms", "prespill", 32, MACHINE),
    ("hrms", "spill", 4, "P1L4"),
    ("ims", "spill", 4, "P1L4"),
    ("swing", "spill", 4, "P1L4"),
)


def measured() -> dict:
    from repro.api import compile_loop
    from repro.sched import cache as sched_cache
    from repro.workloads import random_suite

    rows: dict[str, dict] = {}
    suite = random_suite(size=SUITE_SIZE, seed=SUITE_SEED)
    for workload in suite:
        for scheduler, strategy, registers, machine in CELLS:
            with sched_cache.disabled():
                result = compile_loop(
                    workload.source,
                    machine=machine,
                    scheduler=scheduler,
                    strategy=strategy,
                    registers=registers,
                    name=workload.name,
                )
            cell = f"{scheduler}/{strategy}"
            if machine != MACHINE:
                cell = f"{machine}/{cell}"
            rows[f"{workload.name}/{cell}"] = {
                "mii": result.mii,
                "ii": result.ii,
                "attempts": result.attempts,
                "placements": result.placements,
                "relaxations": result.relaxations,
                "mrt_probes": result.mrt_probes,
                "lifetime_visits": result.lifetime_visits,
                "alloc_probes": result.alloc_probes,
            }
    return {
        "suite": {"kind": "random", "size": SUITE_SIZE, "seed": SUITE_SEED},
        "machine": MACHINE,
        "cells": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the expectations file with the measured counters",
    )
    args = parser.parse_args(argv)

    current = measured()
    if args.update:
        EXPECTATIONS.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        print(f"pinned {len(current['cells'])} cells to {EXPECTATIONS}")
        return 0

    if not EXPECTATIONS.exists():
        print(f"missing {EXPECTATIONS}; run with --update first")
        return 1
    expected = json.loads(EXPECTATIONS.read_text())
    if current == expected:
        print(
            f"effort counters stable: {len(current['cells'])} cells match"
            f" {EXPECTATIONS.name}"
        )
        return 0

    drifted = []
    for key in sorted(set(expected.get("cells", {})) | set(current["cells"])):
        want = expected.get("cells", {}).get(key)
        got = current["cells"].get(key)
        if want != got:
            drifted.append(f"  {key}:\n    expected {want}\n    measured {got}")
    header = [
        f"effort counters drifted from {EXPECTATIONS.name}"
        f" ({len(drifted)} of {len(current['cells'])} cells):"
    ]
    if expected.get("suite") != current["suite"] or (
        expected.get("machine") != current["machine"]
    ):
        header.append(
            f"  (pin mismatch: expected {expected.get('suite')}"
            f"/{expected.get('machine')}, measured {current['suite']}"
            f"/{current['machine']})"
        )
    print("\n".join(header + drifted))
    print("intended change?  re-pin with: python tools/effort_regression.py"
          " --update")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
