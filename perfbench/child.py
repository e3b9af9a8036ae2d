"""One fresh-interpreter unit of benchmark work.

``python perfbench/child.py CONFIG.json`` runs one cold/warm sweep or
one pass of the tight-spill stream, as the config says, and writes a
JSON result to ``config["result"]``.  Starting each unit in a new
interpreter gives it cold in-process memos, as a user's new process
has.  With ``"trace": true`` the layer wrappers of :mod:`spans` are
installed first and the spans are written to ``config["spans_out"]``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import spans as layer_spans  # noqa: E402
from common import peak_rss_mb  # noqa: E402


def _recorder(config: dict):
    if not config.get("trace"):
        return None
    recorder = layer_spans.Recorder()
    recorder.installed = layer_spans.install(recorder)
    return recorder


def _root(recorder):
    return recorder.open(layer_spans.ROOT) if recorder else None


def _close(recorder, index) -> None:
    if recorder is not None:
        recorder.close(index)


def _finish(config: dict, document: dict, recorder) -> None:
    if recorder is not None:
        Path(config["spans_out"]).write_text(json.dumps({
            "spans": recorder.spans,
            "results": recorder.results,
            "installed": recorder.installed,
        }))
    Path(config["result"]).write_text(json.dumps(document))


# ----------------------------------------------------------------------
def sweep(config: dict) -> None:
    """A table1+fig8 sweep of the fixed club suite on the three paper
    machines, budgets 64/32, into (cold) or from (warm) a store."""
    recorder = _recorder(config)
    from repro.eval.engine import run_sweep
    from repro.pool import pool_stats, shutdown_pool
    from repro.verify import VerificationError
    from repro.workloads.suite import perfect_club_like_suite

    suite = perfect_club_like_suite(config["size"], config["suite_seed"])

    root = _root(recorder)
    started = time.perf_counter()
    error = None
    try:
        report = run_sweep(
            suite=suite, jobs=config["jobs"], cache_dir=config["cache_dir"],
            artifacts=("table1", "fig8"), budgets=(64, 32),
            verify=config.get("verify", False),
        )
    except VerificationError as rejected:
        error = str(rejected)
    wall = time.perf_counter() - started
    _close(recorder, root)

    document = {"wall_s": wall, "error": error}
    if error is None:
        Path(config["json_out"]).write_text(report.to_json_text())
        document.update(
            cells=len(report.run.results),
            cell_seconds=[r.seconds for r in report.run.results],
        )
    document["pool"] = pool_stats()
    shutdown_pool()
    _finish(config, document, recorder)


# ----------------------------------------------------------------------
def tight(config: dict) -> None:
    """One pass of the tight-spill stream: every corpus request once,
    in seeded order, through ``compile_loop(strategy="spill")``.  Each
    compile is followed, outside its timed interval and outside the
    traced root, by the oracle and a calibration slice a quarter of its
    length (see :mod:`calibrate`)."""
    recorder = _recorder(config)
    from repro.api import compile_loop
    from repro.sched.cache import STATS
    from repro.verify import verify_result

    import tightcorpus

    requests = tightcorpus.requests(config["corpus_seed"])
    random.Random(config["order_seed"]).shuffle(requests)
    setup_s = time.perf_counter() - STARTED

    rows = []
    verify_s = 0.0
    meter = calibrate.Meter()
    cache_before = STATS.snapshot()
    root = _root(recorder)
    for request in requests:
        started = time.perf_counter()
        try:
            result = compile_loop(
                request["source"], name=request["loop"],
                machine=request["machine"], scheduler=request["scheduler"],
                strategy="spill", registers=request["budget"],
            )
        except Exception as error:  # a crash is a counted failure
            latency = time.perf_counter() - started
            meter.sample(latency)
            rows.append(dict(
                _row(request, latency),
                error=f"{type(error).__name__}: {error}",
            ))
            continue
        latency = time.perf_counter() - started
        # the oracle and calibration run outside the compile's timed
        # interval
        if recorder is not None:
            recorder.close(root)
        checked = time.perf_counter()
        oracle = verify_result(result) if result.schedule is not None else None
        verify_s += time.perf_counter() - checked
        meter.sample(latency)
        if recorder is not None:
            root = recorder.open(layer_spans.ROOT)
        rows.append(dict(
            _row(request, latency),
            attempts=result.attempts,
            converged=result.converged,
            reason=result.reason,
            ii=result.ii,
            mii=result.mii,
            stage_count=result.stage_count,
            rounds=len(result.trace),
            spilled=len(result.spilled),
            mem_ops_added=(
                result.memory_ops - result.trace[0]["memory_ops"]
                if result.trace else 0
            ),
            rejected=oracle is not None and not oracle.ok,
        ))
    _close(recorder, root)
    cache = STATS.delta(cache_before).as_dict()
    _finish(config, {
        "setup_s": setup_s,
        "rows": rows,
        "slowdown": meter.slowdown(),
        "verify_s": verify_s,
        "cache": cache,
        "rss_mb": peak_rss_mb(),
    }, recorder)


def _row(request: dict, latency: float) -> dict:
    return {
        "loop": request["loop"],
        "machine": request["machine"],
        "scheduler": request["scheduler"],
        "budget": request["budget"],
        "weight": request["weight"],
        "latency_s": latency,
    }


def main() -> None:
    config = json.loads(Path(sys.argv[1]).read_text())
    {"sweep": sweep, "tight": tight}[config["mode"]](config)


if __name__ == "__main__":
    main()
