"""``serve-routed``: a closed loop of ``nproc`` client threads, each
sending compile requests through its own ``repro.cluster.ClusterClient``
to two local ``repro serve --tcp --jobs 1`` shards.

Set-up starts the shards and sends every request key once, so the
timed phase measures the steady-state service.  The traffic is
synthetic: each thread draws its requests uniformly (seeded) from the
fixed club suite x the paper's budgets 64/32, compiled with
``compile_loop``'s defaults (P2L4, hrms, combined), and sends its next
request only when the previous one returned.  After the pre-warm every
request repeats a key the shards have compiled, so the distribution
over keys changes little of what a shard does.

The load runs in phases of :data:`PHASE_S` seconds: between phases the
clients hold their next request, the requests in flight finish, and
the benchmark runs a host-speed calibration slice (:mod:`calibrate`) in
``nproc`` processes while the shards are idle.  Each set-up is followed
by a slice too, and every time reported is divided by the slowdown of
all the run's slices together.

After the timed phase every distinct request is compiled in-process
with ``compile_loop``; each served response must equal that result with
the wall-time and effort fields removed, and the in-process schedule
must pass the ``repro.verify`` oracle.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import resource
import secrets
import subprocess
import sys
import threading
import time

import calibrate
import report
import spans as layer_spans
from common import (
    EFFORT_KEYS, ROOT, SUITE_SEED, child_env, median, nproc, percentile,
    remove, scratch_dir,
)
from report import m

SUITE_SIZE = 48
#: compile_loop's defaults, and the register budgets of the paper's
#: sweeps (fig8)
MACHINE = "P2L4"
SCHEDULER = "hrms"
STRATEGY = "combined"
BUDGETS = (64, 32)
SHARDS = 2
SETUPS = 3
#: The timed phase is cut into blocks of consecutive completions and
#: each figure is the median over blocks, so a few seconds of host
#: interference move it less.  p99 needs ten samples beyond it, hence
#: the larger block.
BLOCK = 500
TAIL_BLOCK = 1000
#: seconds of load between calibration slices
PHASE_S = 1.0


class Shards:
    """Two ``repro serve --tcp`` daemons, started and stopped together."""

    def __init__(self, work, token: str) -> None:
        self.work = work
        self.token = token
        self.procs: list[subprocess.Popen] = []
        self.addresses: list[str] = []

    def start(self) -> None:
        logs = []
        for k in range(SHARDS):
            log = self.work / f"shard{len(self.procs)}-{k}.log"
            logs.append(log)
            with open(log, "w") as handle:
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", "--tcp",
                     "127.0.0.1:0", "--jobs", "1", "--token", self.token],
                    cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=handle,
                ))
        deadline = time.monotonic() + 60.0
        for proc, log in zip(self.procs[-SHARDS:], logs):
            while True:
                found = re.search(r"listening on tcp://([\d.]+:\d+)",
                                  log.read_text())
                if found:
                    self.addresses.append(found.group(1))
                    break
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"shard did not start: {log.read_text()}")
                time.sleep(0.01)

    def client(self):
        from repro.cluster import ClusterClient

        return ClusterClient(self.addresses, token=self.token)

    def stop(self) -> None:
        if self.addresses:
            with self.client() as client:
                client.shutdown()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        self.addresses = []


def _keys():
    from repro.workloads.suite import perfect_club_like_suite

    suite = perfect_club_like_suite(SUITE_SIZE, SUITE_SEED)
    return [(w, budget) for w in suite for budget in BUDGETS]


def _streams(seed: int, keys: list) -> list:
    """Per thread, an endless seeded uniform draw of key indexes."""
    def stream(thread: int):
        rng = random.Random(f"{seed}:{thread}")
        return (rng.randrange(len(keys)) for _ in itertools.count())

    return [stream(thread) for thread in range(nproc())]


def _closed_loop(shards: Shards, keys: list, streams, seconds: float,
                 meter: calibrate.Meter, recorder=None) -> dict:
    """Run the clients for *seconds* in load phases separated by
    calibration slices (see the module docstring).  Every completion
    records its phase; phase ``k`` kept the clients sending for
    ``active[k]`` seconds."""
    lock = threading.Condition()
    state = {"open": False, "stop": False, "inflight": 0, "phase": 0}
    latencies: list[float] = []
    phase_of: list[int] = []
    active: list[float] = []
    responses: list = []
    order: list[int] = []
    errors: list[str] = []
    failovers = [0]

    def client_thread(stream) -> None:
        with shards.client() as client:
            for index in stream:
                with lock:
                    while not (state["open"] or state["stop"]):
                        lock.wait()
                    if state["stop"]:
                        break
                    state["inflight"] += 1
                request = _request(keys[index])
                root = recorder.open(layer_spans.ROOT) if recorder else None
                started = time.perf_counter()
                try:
                    result = client.compile_request(request)
                except Exception as error:  # typed client errors count
                    if recorder:
                        recorder.close(root)
                    with lock:
                        errors.append(f"{type(error).__name__}: {error}")
                        state["inflight"] -= 1
                        lock.notify_all()
                    continue
                latency = time.perf_counter() - started
                if recorder:
                    recorder.close(root)
                with lock:
                    latencies.append(latency)
                    phase_of.append(state["phase"])
                    order.append(index)
                    responses.append(result)
                    state["inflight"] -= 1
                    lock.notify_all()
            with lock:
                failovers[0] += client.failovers

    threads = [threading.Thread(target=client_thread, args=(s,))
               for s in streams]
    loop_started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        while time.perf_counter() - loop_started < seconds:
            phase_started = time.perf_counter()
            with lock:
                state["open"] = True
                lock.notify_all()
            time.sleep(PHASE_S)
            with lock:
                state["open"] = False
                while state["inflight"]:
                    lock.wait()
                state["phase"] += 1
            active.append(time.perf_counter() - phase_started)
            meter.sample(active[-1])
    finally:
        # the clients wait for an open phase; release them on every path
        with lock:
            state["stop"] = True
            lock.notify_all()
        for thread in threads:
            thread.join()
    with shards.client() as client:
        stats = client.stats()
    # responses are compared after the timed phase, not inside it
    served: dict[int, set] = {}
    for index, result in zip(order, responses):
        served.setdefault(index, set()).add(_comparable(result.to_json()))
    return {
        "wall_s": sum(active),
        "latencies": latencies,
        "phase_of": phase_of,
        "active": active,
        "served": served,
        "order": order,
        "errors": errors,
        "failovers": failovers[0],
        "stats": stats,
    }


def _comparable(document: dict) -> str:
    trimmed = {k: v for k, v in document.items() if k not in EFFORT_KEYS}
    return json.dumps(trimmed, sort_keys=True)


def _check(keys: list, served: dict) -> dict:
    """Reference compiles of every distinct served request, the oracle
    on each, and the served-equals-in-process comparison."""
    from repro.api import compile_loop
    from repro.verify import verify_result

    mismatched = rejected = converged = 0
    weights = score = 0.0
    verify_s = 0.0
    for index, documents in served.items():
        workload, budget = keys[index]
        result = compile_loop(
            workload.source, name=workload.name, machine=MACHINE,
            scheduler=SCHEDULER, strategy=STRATEGY, registers=budget,
        )
        if documents != {_comparable(result.to_json())}:
            mismatched += 1
        if result.schedule is not None:
            checked = time.perf_counter()
            rejected += not verify_result(result).ok
            verify_s += time.perf_counter() - checked
        converged += result.converged
        weights += workload.weight
        if result.converged:
            achieved = result.schedule.cycles_for(workload.weight)
            score += workload.weight * result.mii * workload.weight / achieved
    return {
        "distinct": len(served),
        "mismatched": mismatched,
        "rejected": rejected,
        "verify_s": verify_s,
        "converged_share": converged / len(served) if served else 0.0,
        "schedule_quality": score / weights if weights else 0.0,
    }


def _request(key) -> dict:
    workload, budget = key
    return {
        "loop": workload.source, "name": workload.name, "machine": MACHINE,
        "scheduler": SCHEDULER, "strategy": STRATEGY, "registers": budget,
    }


def _setup(work, keys: list, times: list[float], meter: calibrate.Meter,
           setups: int = SETUPS) -> tuple[Shards, dict]:
    """Start the shard pair and warm it with one request per key, so
    the timed phase measures the steady-state service; done *setups*
    times (stopping all but the last), each start-to-warm time kept.
    Returns the shards and the warm-up responses (checked like the
    timed ones)."""
    shards = None
    served: dict[int, set] = {}
    for k in range(setups):
        if shards is not None:
            shards.stop()
        shards = Shards(work, secrets.token_hex(8))
        started = time.perf_counter()
        shards.start()
        with shards.client() as client:
            results = client.compile_many([_request(key) for key in keys])
        times.append(time.perf_counter() - started)
        meter.sample(times[-1])
        for index, result in enumerate(results):
            served.setdefault(index, set()).add(_comparable(result.to_json()))
    return shards, served


def _shard_stats(stats: dict) -> list[dict]:
    return [doc for doc in stats["shards"].values() if "error" not in doc]


def run(seed: int, seconds: float) -> dict:
    work = scratch_dir("serve")
    shards = None
    meter = calibrate.Meter(processes=nproc())
    try:
        keys = _keys()
        streams = _streams(seed, keys)
        setup_times: list[float] = []
        shards, warmup = _setup(work, keys, setup_times, meter)
        outcome = _closed_loop(shards, keys, streams, seconds, meter)
        shards.stop()
        shards = None
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finally:
        if shards is not None:
            shards.stop()
        meter.close()
        remove(work)
    check = _check(keys, _merge(warmup, outcome["served"]))
    attempted = len(outcome["latencies"]) + len(outcome["errors"])
    failed = len(outcome["errors"]) + check["mismatched"] + check["rejected"]
    slowdown = meter.slowdown()
    setup = [t / slowdown for t in setup_times]
    metrics = {"setup_s": m("setup_s", median(setup), samples=setup)}
    metrics.update(_block_metrics(outcome, slowdown))
    metrics.update({
        "peak_rss_mb": m("peak_rss_mb", rss_mb),
        "ok_share": m("ok_share", 1.0 - failed / attempted),
        "converged_share": m("converged_share", check["converged_share"],
                             distinct=check["distinct"]),
        "schedule_quality": m("schedule_quality", check["schedule_quality"]),
    })
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": dict(check, errors=outcome["errors"][:10]),
    }


def _blocks(values: list, size: int) -> list[list]:
    """Whole blocks of *size* consecutive values; fewer values than one
    block (a short ``--seconds``) make one block of them all."""
    size = min(size, len(values)) or 1
    return [values[start:start + size]
            for start in range(0, len(values) - size + 1, size)]


def _block_metrics(outcome: dict, slowdown: float) -> dict:
    """Throughput as the median over load phases, latency percentiles
    as medians over blocks of consecutive completions; times divided by
    *slowdown*."""
    counts = [0] * len(outcome["active"])
    for phase in outcome["phase_of"]:
        counts[phase] += 1
    rates = [count / seconds * slowdown
             for count, seconds in zip(counts, outcome["active"])]
    latencies = [latency / slowdown for latency in outcome["latencies"]]
    out = {"ops_per_s": m(
        "ops_per_s", median(rates), phases=len(rates), clients=nproc(),
        shards=SHARDS, slowdown=slowdown,
    )}
    for q, size in ((50, BLOCK), (90, BLOCK), (99, TAIL_BLOCK)):
        found = [percentile(block, q) for block in _blocks(latencies, size)]
        out[f"latency_p{q}_ms"] = m(
            f"latency_p{q}_ms",
            median(f["value"] for f in found) * 1000.0,
            blocks=len(found), block=found[0]["samples"],
            beyond=found[0]["beyond"],
        )
    return out


def _merge(*served_maps: dict) -> dict:
    merged: dict[int, set] = {}
    for served in served_maps:
        for index, documents in served.items():
            merged.setdefault(index, set()).update(documents)
    return merged


def _layers(outcome: dict, slowdown: float) -> dict:
    """Service and cluster numbers from the shards' ``/stats``; times
    divided by *slowdown*."""
    shards = _shard_stats(outcome["stats"])
    counters = [doc["metrics"]["counters"] for doc in shards]
    batches = sum(c.get("batches", 0) for c in counters)
    batch_requests = sum(c.get("batch_requests", 0) for c in counters)
    service = [doc["service"] for doc in shards]
    requests = [s["requests"] for s in service]
    server_p50 = median(doc["metrics"]["latency"]["request"]["p50_ms"]
                        for doc in shards) / slowdown
    client_p50 = (percentile(outcome["latencies"], 50)["value"] * 1000.0
                  / slowdown)
    cache: dict = {}
    for doc in shards:
        for key, value in doc["cache_total"].items():
            cache[key] = cache.get(key, 0) + value
    out = report.from_cache(cache)
    out.update({
        "service.batch_size_mean": m(
            "service.batch_size_mean",
            batch_requests / batches if batches else 0.0),
        "service.coalesced": m("service.coalesced",
                               sum(s["coalesced"] for s in service)),
        "service.errors": m("service.errors", sum(s["errors"] for s in service)),
        "service.shed": m("service.shed", sum(s["shed"] for s in service)),
        "server.latency_p50_ms": m("server.latency_p50_ms", server_p50,
                                   bucketed=True),
        "cluster.transport_ms": m("cluster.transport_ms",
                                  client_p50 - server_p50,
                                  client_p50_ms=client_p50),
        "cluster.shard_imbalance": m(
            "cluster.shard_imbalance",
            max(requests) / (sum(requests) / len(requests)) - 1.0
            if sum(requests) else 0.0, requests=requests),
        "cluster.failovers": m("cluster.failovers", outcome["failovers"]),
        "graph.index_builds": m(
            "graph.index_builds",
            sum(doc["work"].get("index_builds", 0) for doc in shards)),
    })
    return out


def traced(seed: int, seconds: float) -> dict:
    """Untraced closed loop, then the same loop on fresh shards with the
    client-side wrappers installed (cluster routing, line-client round
    trip).  Server-side numbers come from the shards' ``/stats``."""
    work = scratch_dir("serve-traced")
    shards = None
    recorder = layer_spans.Recorder()
    meter = calibrate.Meter(processes=nproc())
    try:
        keys = _keys()
        shards, warmup = _setup(work, keys, [], meter, setups=1)
        plain = _closed_loop(shards, keys, _streams(seed, keys), seconds,
                             meter)
        shards.stop()
        shards, _ = _setup(work, keys, [], meter, setups=1)
        layer_spans.install_client(recorder)
        traced_loop = _closed_loop(shards, keys, _streams(seed, keys),
                                   seconds, meter, recorder)
        shards.stop()
        shards = None
    finally:
        if shards is not None:
            shards.stop()
        meter.close()
        remove(work)
    check = _check(keys, _merge(warmup, plain["served"],
                                traced_loop["served"]))
    summary = layer_spans.summarize(recorder.spans)
    slowdown = meter.slowdown()
    metrics = _layers(plain, slowdown)
    metrics["trace.unattributed_share"] = report.from_summary(summary)[
        "trace.unattributed_share"]
    for name in ("cluster.self_s", "client.wire_s"):
        metrics[name] = m(name,
                          summary["self_s"].get(name, 0.0) / slowdown)
    plain_rate = len(plain["latencies"]) / plain["wall_s"]
    traced_rate = len(traced_loop["latencies"]) / traced_loop["wall_s"]
    metrics.update({
        "trace.overhead_share": m("trace.overhead_share",
                                  plain_rate / traced_rate - 1.0,
                                  plain_ops_per_s=plain_rate,
                                  traced_ops_per_s=traced_rate),
        "verify.s": m("verify.s", check["verify_s"] / slowdown),
        "verify.rejections": m("verify.rejections", check["rejected"]),
    })
    errors = plain["errors"] + traced_loop["errors"]
    attempted = (len(plain["latencies"]) + len(traced_loop["latencies"])
                 + len(errors))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(errors) + check["mismatched"] + check["rejected"],
        "checks": dict(check, span_counts=summary["counts"],
                       self_s=summary["self_s"]),
    }
