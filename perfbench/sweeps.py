"""The paper sweep's layers: ``repro.eval.engine.run_sweep`` for
table1+fig8 over the fixed 48-loop club suite on the three paper
machines, budgets 64/32.

No timed workload runs the sweep (README.md, "Dropped workloads"
says why), but its layers are exercised nowhere else: the pool and
cell evaluation, the schedule store, and the program's own tracing of
a sweep.  :func:`layers` measures them, and the tight-spill traced run
reports them with its own.

Every sweep runs in a fresh interpreter (:mod:`child`) and writes into
an empty store directory, and is followed by a host-speed calibration
slice in ``nproc`` processes (:mod:`calibrate`); times are divided by
the slowdown of all the slices together.  The run checks that every
sweep produced byte-identical JSON, including a sweep with the
``repro.verify`` oracle on that is served from the first sweep's store
(a warm, store-read sweep must equal the cold one).
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import calibrate
import report
import spans as layer_spans
from common import (
    SUITE_SEED, nproc, percentile, remove, run_child, run_repro,
    scratch_dir,
)
from report import m

#: loops in the swept suite (33 named/APSI kernels + 15 synthetic)
SIZE = 48

#: the per-layer metrics :func:`layers` contributes
LAYERS = (
    "store.get_s", "store.put_s", "store.hit_ratio", "store.bytes",
    "pool.busy_share", "eval.cell_p50_ms", "eval.cell_p99_ms",
    "pool.worker_restarts", "trace.program_overhead_share",
    "trace.cell_spans_recorded", "trace.cell_count", "trace.phase_coverage",
)


def _sweep(work: Path, tag: str, jobs: int, store: Path,
           meter: calibrate.Meter, **extra) -> dict:
    """Run one sweep child, then a calibration slice; the result
    carries its JSON text and the parent-side wall time of the whole
    process."""
    config = dict({
        "mode": "sweep",
        "size": SIZE,
        "suite_seed": SUITE_SEED,
        "jobs": jobs,
        "cache_dir": str(store),
        "json_out": str(work / f"{tag}.json"),
    }, **extra)
    started = time.perf_counter()
    result = run_child(config)
    result["process_s"] = time.perf_counter() - started
    meter.sample(result["process_s"])
    out = Path(config["json_out"])
    result["json"] = out.read_text() if out.exists() else None
    return result


def _store_bytes(store: Path) -> int:
    return sum(p.stat().st_size for p in store.rglob("*") if p.is_file())


def _layers_from_parallel(parallel: dict, slowdown: float) -> dict:
    jobs = nproc()
    busy = sum(parallel["cell_seconds"])
    cells_ms = [s * 1000.0 / slowdown for s in parallel["cell_seconds"]]
    return {
        "pool.busy_share": m("pool.busy_share",
                             busy / (parallel["wall_s"] * jobs), jobs=jobs),
        "eval.cell_p50_ms": m("eval.cell_p50_ms",
                              percentile(cells_ms, 50)["value"]),
        "eval.cell_p99_ms": m("eval.cell_p99_ms",
                              percentile(cells_ms, 99)["value"]),
        "pool.worker_restarts": m("pool.worker_restarts",
                                  parallel["pool"]["worker_restarts"]),
    }


def _program_trace(work: Path) -> dict:
    """``repro sweep --trace`` against the same sweep untraced, both
    cold at ``--jobs nproc``; read back with ``repro trace top --json``."""
    jobs = nproc()
    base = ["sweep", "--jobs", str(jobs), "--size", str(SIZE), "--seed",
            str(SUITE_SEED), "--artifacts", "table1", "fig8"]
    walls = {}
    for tag, extra in (("plain", []),
                       ("traced", ["--trace", str(work / "program.sqlite")])):
        done = run_repro(base + ["--cache-dir", str(work / f"cli-{tag}")]
                         + extra)
        if done.returncode != 0:
            raise RuntimeError(f"repro sweep failed: {done.stderr[-2000:]}")
        found = re.search(r"sweep: (\d+) cells, jobs=\d+, ([\d.]+)s wall",
                          done.stdout)
        walls[tag] = (int(found.group(1)), float(found.group(2)))
    top = run_repro(["trace", "top", "--json", "--metrics",
                     str(work / "program.sqlite")])
    if top.returncode != 0:
        raise RuntimeError(f"repro trace top failed: {top.stderr[-2000:]}")
    document = json.loads(top.stdout)
    cell_spans = sum(
        1 for trace in document.get("traces", [])
        for span in trace.get("spans", []) if span.get("name") == "cell"
    )
    phase_ms = sum(p["total_ms"] for p in document.get("phases", {}).values())
    cells, traced_wall = walls["traced"]
    return {
        "trace.program_overhead_share": m(
            "trace.program_overhead_share",
            traced_wall / walls["plain"][1] - 1.0,
            traced_wall_s=traced_wall, plain_wall_s=walls["plain"][1],
        ),
        "trace.cell_spans_recorded": m("trace.cell_spans_recorded",
                                       cell_spans),
        "trace.cell_count": m("trace.cell_count", cells),
        "trace.phase_coverage": m(
            "trace.phase_coverage", phase_ms / 1000.0 / (traced_wall * jobs),
            phase_s=phase_ms / 1000.0, jobs=jobs,
        ),
    }


def layers() -> dict:
    """An untraced sweep at ``jobs = nproc`` (pool, cells, store size),
    a span-traced serial sweep (``jobs=1``, so every span is recorded in
    one process: the store's get/put), the oracle sweep, and the
    program's own tracing of the sweep."""
    work = scratch_dir("sweep-layers")
    meter = calibrate.Meter(processes=nproc())
    try:
        store = work / "parallel-store"
        parallel = _sweep(work, "parallel", nproc(), store, meter)
        serial = _sweep(work, "traced", 1, work / "serial-store", meter,
                        trace=True, spans_out=str(work / "spans.json"))
        verified = _sweep(work, "verified", nproc(), store, meter,
                          verify=True)
        document = json.loads((work / "spans.json").read_text())
        slowdown = meter.slowdown()
        runs = [parallel, serial, verified]
        reference = parallel["json"]
        rejected = int(verified["error"] is not None)
        failed = rejected + sum(
            r.get("cells", 0) for r in runs if r["json"] != reference)

        summary = layer_spans.summarize(document["spans"])
        metrics = report.from_summary(summary, slowdown)
        metrics.update(_layers_from_parallel(parallel, slowdown))
        metrics["store.bytes"] = m("store.bytes", _store_bytes(store))
        metrics.update(_program_trace(work))
        return {
            "metrics": {name: metrics[name] for name in LAYERS},
            "attempted": sum(r.get("cells", 0) for r in runs) or 1,
            "failed": failed,
            "verify_s": verified["process_s"] / slowdown,
            "rejections": rejected,
            "checks": {"span_counts": summary["counts"],
                       "wrappers_bound": document["installed"],
                       "oracle_error": verified["error"]},
        }
    finally:
        meter.close()
        remove(work)
