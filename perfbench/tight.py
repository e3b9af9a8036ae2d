"""``tight-spill``: a serial stream of ``compile_loop(strategy="spill")``
calls over the fixed tight corpus (:mod:`tightcorpus`), one fresh
process per pass, no store.

Each compile is timed on its own; the oracle checks every schedule
outside that interval.  A calibration slice a quarter as long as each
compile runs after it (see :mod:`calibrate`), and every time of a pass
is divided by the slowdown of all its slices together.  Slices around
a single compile read the host no better: on a 2-core VM (Python 3.11)
a 3-4 s compile timed in fresh processes spread 0.20 raw and 0.18
divided by the slices just before and after it.  One row per compile is
written to
``perfbench/out/tight-spill-seed<N>.rows.json`` and the slowest rows
are printed.
"""

from __future__ import annotations

import json
import time

import report
import spans as layer_spans
import sweeps
from common import (
    TIGHT_CORPUS_SEED, median, remove, run_child, scratch_dir, write_record,
)
from report import m

SLOWEST = 8
#: Timed passes per run: one per this many seconds of --seconds, one at
#: least, so the count follows --seconds rather than how fast the host
#: happens to be.  The latency percentiles are over every compile of
#: every pass.  A pass, calibration included, takes about 10-18 s on a
#: 2-core VM.
PASS_S = 10.0


def _pass(seed: int, trace: bool = False, spans_out: str | None = None) -> dict:
    started = time.perf_counter()
    result = run_child({
        "mode": "tight",
        "corpus_seed": TIGHT_CORPUS_SEED,
        "order_seed": seed,
        "trace": trace,
        "spans_out": spans_out,
    })
    result["process_s"] = time.perf_counter() - started
    return result


def _calibrated(pass_result: dict) -> list[float]:
    """Each compile's latency divided by the pass's slowdown; each row
    keeps its calibrated time as ``calibrated_s``."""
    for row in pass_result["rows"]:
        row["calibrated_s"] = row["latency_s"] / pass_result["slowdown"]
    return [row["calibrated_s"] for row in pass_result["rows"]]


def _failed(rows: list[dict]) -> int:
    return sum(1 for r in rows if "error" in r or r.get("rejected"))


def _quality(rows: list[dict]) -> dict:
    """converged share, and the weighted mean of MII x iterations over
    achieved cycles ((iterations + SC - 1) x II), 0 when not converged."""
    done = [r for r in rows if "error" not in r]
    converged = sum(1 for r in done if r["converged"])
    weights = score = 0.0
    for r in done:
        weights += r["weight"]
        if r["converged"]:
            achieved = (r["weight"] + r["stage_count"] - 1) * r["ii"]
            score += r["weight"] * r["mii"] * r["weight"] / achieved
    return {
        "converged_share": converged / len(done) if done else 0.0,
        "schedule_quality": score / weights if weights else 0.0,
    }


def slowest(rows: list[dict], count: int = SLOWEST) -> str:
    lines = [f"slowest {count} of {len(rows)} compiles:"]
    for r in sorted(rows, key=lambda r: -r["latency_s"])[:count]:
        lines.append(
            f"  {r['latency_s'] * 1000:9.1f} ms"
            f" ({r['calibrated_s'] * 1000:7.1f} calibrated)"
            f"  {r['loop']:<22}"
            f" {r['machine']:<5} {r['scheduler']:<6} R={r['budget']:<3}"
            f" attempts={r.get('attempts', '-'):<4}"
            f" converged={r.get('converged', False)!s:<5}"
            f" {r.get('reason') or r.get('error', '')}"
        )
    return "\n".join(lines)


def run(seed: int, seconds: float) -> dict:
    passes = [_pass(seed) for _ in range(max(1, round(seconds / PASS_S)))]
    rows = [row for p in passes for row in p["rows"]]
    attempted = len(rows)
    failed = _failed(rows)
    calibrated = [_calibrated(p) for p in passes]
    rates = [len(times) / sum(times) for times in calibrated]
    setup = [p["setup_s"] / p["slowdown"] for p in passes]
    scores = _quality(passes[0]["rows"])
    metrics = {
        "setup_s": m("setup_s", median(setup), samples=setup),
        "ops_per_s": m("ops_per_s", median(rates), per_pass=rates,
                       slowdowns=[p["slowdown"] for p in passes]),
    }
    metrics.update(report.latency_metrics(
        [latency for times in calibrated for latency in times]))
    metrics.update({
        "peak_rss_mb": m("peak_rss_mb", median(p["rss_mb"] for p in passes)),
        "ok_share": m("ok_share", 1.0 - failed / attempted),
        "converged_share": m("converged_share", scores["converged_share"]),
        "schedule_quality": m("schedule_quality", scores["schedule_quality"]),
    })
    write_record(f"tight-spill-seed{seed}.rows.json", {"rows": rows})
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": {"passes": len(passes)},
        "listing": slowest(passes[0]["rows"]),
    }


def traced(seed: int) -> dict:
    """An untraced pass, then a span-traced pass; per-layer numbers come
    from the traced pass.  The paper sweep's layers, which no timed
    workload exercises, are measured here too (:func:`sweeps.layers`)."""
    work = scratch_dir("tight-traced")
    spans_path = work / "spans.json"
    try:
        plain = _pass(seed)
        traced_run = _pass(seed, trace=True, spans_out=str(spans_path))
        document = json.loads(spans_path.read_text())
    finally:
        remove(work)
    sweep = sweeps.layers()
    summary = layer_spans.summarize(document["spans"])
    rows = traced_run["rows"]
    metrics = report.from_summary(summary, traced_run["slowdown"])
    metrics.update(report.from_results(document["results"]))
    metrics.update(report.from_cache(traced_run["cache"]))
    metrics["trace.overhead_share"] = m(
        "trace.overhead_share",
        sum(_calibrated(traced_run)) / sum(_calibrated(plain)) - 1.0,
    )
    metrics["verify.s"] = m(
        "verify.s", traced_run["verify_s"] / traced_run["slowdown"],
        sweep_oracle_s=sweep["verify_s"],
    )
    metrics["verify.rejections"] = m(
        "verify.rejections",
        sum(1 for r in rows if r.get("rejected")) + sweep["rejections"],
    )
    metrics.update(sweep["metrics"])
    all_rows = plain["rows"] + rows
    return {
        "metrics": metrics,
        "attempted": len(all_rows) + sweep["attempted"],
        "failed": _failed(all_rows) + sweep["failed"],
        "checks": {"span_counts": summary["counts"],
                   "wrappers_bound": document["installed"],
                   "sweep": sweep["checks"]},
        "listing": slowest(rows),
    }
