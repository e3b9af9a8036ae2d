"""The metric catalogue and the helpers that fill it.

The catalogue is ``BENCHMARK.json``: every run without tracing reports
each of its end-to-end metrics, and every traced run reports each of
its per-layer metrics.  A layer a workload does not exercise reports 0
and is listed under ``not_exercised`` in the run record.
"""

from __future__ import annotations

import json

from common import ROOT, percentile

_CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((e["name"], e["unit"]) for e in _CATALOGUE["end_to_end"])
PER_LAYER = tuple((e["name"], e["unit"]) for e in _CATALOGUE["per_layer"])

_UNITS = dict(END_TO_END + PER_LAYER)


def m(name: str, value: float, **evidence) -> dict:
    """One catalogue metric with its catalogue unit and any evidence
    (sample counts, per-run values) for the record."""
    return dict(evidence, value=float(value), unit=_UNITS[name])


def latency_metrics(samples_s) -> dict:
    """p50/p90/p99 in ms, each with its sample count and the number of
    samples beyond it (a percentile with fewer than ten beyond it is
    marked ``thin``)."""
    out = {}
    for q in (50, 90, 99):
        found = percentile(samples_s, q)
        out[f"latency_p{q}_ms"] = m(
            f"latency_p{q}_ms", found["value"] * 1000.0,
            samples=found["samples"], beyond=found["beyond"],
            thin=found["beyond"] < 10,
        )
    return out


def ratio(hits: int, misses: int) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def complete_layers(metrics: dict) -> tuple[dict, list[str]]:
    """Fill the per-layer metrics this workload does not exercise with
    0; returns the full set and the names filled."""
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    full = dict(metrics)
    for name in missing:
        full[name] = m(name, 0.0)
    ordered = {name: full[name] for name, _ in PER_LAYER}
    return ordered, missing


def from_summary(summary: dict, slowdown: float = 1.0) -> dict:
    """Per-layer metrics a span summary (:func:`spans.summarize`)
    yields directly; times are divided by the host *slowdown* the
    traced run's calibration measured (see :mod:`calibrate`)."""
    self_s = {k: v / slowdown for k, v in summary["self_s"].items()}
    counts = summary["counts"]
    tags = summary["tags"]
    totals = {k: v / slowdown for k, v in summary["total_s"].items()}
    out = {
        "sched.attempts": m("sched.attempts", counts.get("sched.attempt", 0)),
        "sched.attempts_in_compiles": m(
            "sched.attempts_in_compiles", summary["attempts_in_compiles"]
        ),
        "sched.failed_searches": m(
            "sched.failed_searches", tags.get("sched.search:fail", 0)
        ),
        "sched.self_s": m("sched.self_s", self_s.get("sched.self_s", 0.0)),
        "sched.mii_self_s": m(
            "sched.mii_self_s", self_s.get("sched.mii_self_s", 0.0)
        ),
        "lifetimes.self_s": m(
            "lifetimes.self_s", self_s.get("lifetimes.self_s", 0.0)
        ),
        "lifetimes.alloc_self_s": m(
            "lifetimes.alloc_self_s", self_s.get("lifetimes.alloc_self_s", 0.0)
        ),
        "core.self_s": m("core.self_s", self_s.get("core.self_s", 0.0)),
        "graph.index_builds": m(
            "graph.index_builds", counts.get("graph.index_build", 0)
        ),
        "graph.index_self_s": m(
            "graph.index_self_s", self_s.get("graph.index_self_s", 0.0)
        ),
        "graph.parse_s": m("graph.parse_s", totals.get("graph.parse", 0.0)),
        "api.self_s": m("api.self_s", self_s.get("api.self_s", 0.0)),
        "store.get_s": m("store.get_s", totals.get("store.get", 0.0)),
        "store.put_s": m("store.put_s", totals.get("store.put", 0.0)),
        "store.hit_ratio": m("store.hit_ratio", ratio(
            tags.get("store.get:hit", 0), tags.get("store.get:miss", 0)
        )),
        "trace.unattributed_share": m(
            "trace.unattributed_share",
            1.0 - summary["attributed_s"] / summary["root_wall_s"]
            if summary["root_wall_s"] else 0.0,
        ),
    }
    return out


def from_results(results: list[dict]) -> dict:
    """Per-layer counts summed over the ``CompilationResult`` objects
    the traced run's ``compile_loop`` calls returned."""
    return {
        "sched.attempts_reported": m(
            "sched.attempts_reported", sum(r["attempts"] for r in results)
        ),
        "core.spill_rounds": m(
            "core.spill_rounds", sum(r["rounds"] for r in results)
        ),
        "core.spilled_values": m(
            "core.spilled_values", sum(r["spilled"] for r in results)
        ),
        "core.mem_ops_added": m(
            "core.mem_ops_added", sum(r["mem_ops_added"] for r in results)
        ),
    }


def from_cache(cache: dict) -> dict:
    """Memo ratios from a ``CacheStats`` dict (``CellResult.cache``
    summed, or the daemon's ``/stats`` block)."""
    return {
        "sched.memo_hit_ratio": m("sched.memo_hit_ratio", ratio(
            cache.get("schedule_hits", 0), cache.get("schedule_misses", 0)
        )),
        "sched.schedule_misses": m(
            "sched.schedule_misses", cache.get("schedule_misses", 0)
        ),
        "lifetimes.alloc_hit_ratio": m("lifetimes.alloc_hit_ratio", ratio(
            cache.get("alloc_hits", 0), cache.get("alloc_misses", 0)
        )),
        "core.spill_memo_hit_ratio": m("core.spill_memo_hit_ratio", ratio(
            cache.get("spill_hits", 0), cache.get("spill_misses", 0)
        )),
    }
