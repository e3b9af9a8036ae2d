"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``tight-spill`` and
``serve-routed`` (README.md says what each measures and why).  ``--trace 0`` measures the end-to-end metrics
with no instrumentation; ``--trace 1`` makes the separate traced run
that yields the per-layer metrics.  Every metric is printed by name
with its unit; the last stdout line is the JSON result, and the full
record (environment, evidence, checks) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("tight-spill", "serve-routed")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _dispatch(args) -> dict:
    import report

    if args.workload == "tight-spill":
        import tight

        outcome = (tight.traced(args.seed) if args.trace
                   else tight.run(args.seed, args.seconds))
    else:
        import serve

        outcome = (serve.traced(args.seed, args.seconds) if args.trace
                   else serve.run(args.seed, args.seconds))
    if args.trace:
        outcome["metrics"], outcome["not_exercised"] = (
            report.complete_layers(outcome["metrics"])
        )
    else:
        names = [name for name, _ in report.END_TO_END]
        outcome["metrics"] = {name: outcome["metrics"][name] for name in names}
    return outcome


def _print(outcome: dict, environment: dict) -> None:
    print("environment: " + ", ".join(
        f"{key}={value}" for key, value in environment.items()))
    for name, entry in outcome["metrics"].items():
        evidence = {k: v for k, v in entry.items() if k not in ("value", "unit")}
        extra = f"  {evidence}" if evidence else ""
        print(f"{name:<30} {entry['value']:>14.6g} {entry['unit']}{extra}")
    if outcome.get("not_exercised"):
        print("not exercised by this workload (reported as 0): "
              + ", ".join(outcome["not_exercised"]))
    if outcome.get("listing"):
        print(outcome["listing"])


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.program_present():
        print("perfbench: no program under src/repro in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    started = time.perf_counter()
    outcome = _dispatch(args)
    environment = common.environment(args.workload, args.seed)
    correct = outcome["failed"] == 0
    suffix = "-trace" if args.trace else ""
    common.write_record(
        f"{args.workload}-seed{args.seed}{suffix}.json",
        {
            "environment": environment,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "run_wall_s": time.perf_counter() - started,
            "correct": correct,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": outcome["metrics"],
            "not_exercised": outcome.get("not_exercised", []),
            "checks": outcome.get("checks", {}),
        },
    )
    _print(outcome, environment)
    print(common.result_line(correct, outcome["attempted"], outcome["failed"],
                             outcome["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
