"""Shared plumbing: paths, the environment record, statistics, child
processes and the result line.

Everything the benchmark writes lands under ``perfbench/out/`` of the
checkout it runs in (git-ignored); nothing is read or written outside
the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Seed named in advance for confirming a claim: a gain measured while
#: developing on other seeds must also hold on this one.
HELD_OUT_SEED = 7

#: Fixed populations (see README.md, "Why the populations are fixed").
SUITE_SEED = 1996          # perfect_club_like_suite's own default seed
TIGHT_CORPUS_SEED = 12345  # the fuzz seed of ROADMAP Open item 1

#: Keys dropped before comparing a served result with the in-process
#: one: wall time and the effort counters (the service zeroes the
#: analysis-work counters by design).
EFFORT_KEYS = (
    "wall_seconds", "attempts", "placements", "relaxations",
    "mrt_probes", "lifetime_visits", "alloc_probes",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for program processes: the checkout's ``src`` on the
    path, and no inherited store, fault plan or trace switch."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def scratch_dir(tag: str) -> Path:
    """A fresh, empty directory under ``perfbench/out/tmp``."""
    path = OUT / "tmp" / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# the environment record
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over ``src/**/*.py`` — identifies the code under test
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ----------------------------------------------------------------------
# statistics
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> dict:
    """Nearest-rank percentile with the evidence behind it: the sample
    count and how many samples lie strictly beyond the value."""
    ordered = sorted(values)
    if not ordered:
        return {"value": 0.0, "samples": 0, "beyond": 0}
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100)
    value = ordered[int(rank) - 1]
    beyond = sum(1 for v in ordered if v > value)
    return {"value": value, "samples": len(ordered), "beyond": beyond}


def peak_rss_mb() -> float:
    """Largest resident set of this process and every child it has
    waited for (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# program processes
def run_child(config: dict, timeout: float = 170.0) -> dict:
    """Run ``perfbench/child.py`` in a fresh interpreter on *config*
    and return the JSON document it writes.  Raises ``RuntimeError``
    with the child's stderr on a non-zero exit."""
    work = scratch_dir("child")
    try:
        config_path = work / "config.json"
        result_path = work / "result.json"
        config = dict(config, result=str(result_path))
        config_path.write_text(json.dumps(config))
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(config_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"child {config.get('mode')} exited {done.returncode}:\n"
                f"{done.stderr[-4000:]}"
            )
        return json.loads(result_path.read_text())
    finally:
        remove(work)


def run_repro(args: list[str], timeout: float = 170.0):
    """``python -m repro ARGS`` from the checkout; returns the completed
    process (stdout/stderr captured as text)."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# result documents
def write_record(name: str, document: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The final stdout line: ``value``/``unit`` only per metric."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    })
