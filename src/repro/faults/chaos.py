"""The ``repro chaos`` harness: a seeded fault schedule against a live
local cluster, asserting that degradation stays invisible in the data.

The experiment the harness runs is the repo's core robustness claim:
under injected worker crashes, disk failures, a shard death and a shard
rebirth, a routed sweep must still produce **byte-identical** artifact
JSON — every fault is allowed to show up in stats and metrics, never in
results.  The phases:

A. *Baseline* — one fault-free in-process sweep; its JSON text is the
   reference byte string every later phase is compared against.
B. *Faulted cluster* — two ``repro serve`` shard daemons are spawned
   with ``REPRO_FAULTS`` schedules (shard 0: every persistent-store
   write fails with ENOSPC, degrading it to memory-only mode; shard 1:
   a pool worker is SIGKILLed before its second cell, exercising the
   respawn-and-retry path).  The routed sweep must match the baseline,
   with the degradation visible in the shards' ``/stats``.
C. *Shard death* — shard 0 is SIGKILLed mid-ring and the sweep re-run;
   every request routed at the corpse must fail over (``failovers >=
   1``) and the bytes must still match.
D. *Shard rebirth* — shard 0 is restarted fault-free on its old port;
   after ``down_ttl`` expires the next sweep re-probes it, the client
   counts a recovery, and the bytes still match.

Finally each surviving daemon is sent SIGTERM and must drain and exit
with status 0 (the graceful-shutdown contract of ``repro serve``).

Everything is deterministic: the suite is seeded, the fault plans are
seeded, the ring layout is a pure function of the shard addresses, so
a CI job can assert exact counters, not just "something happened".
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.faults import plan as faults

__all__ = ["ChaosError", "ChaosReport", "run_chaos"]

_SCHEMA = "repro.chaos/1"

#: Environment keys that must not leak from the operator's shell into
#: the shard daemons (each shard gets explicit values instead).
_SCRUBBED_ENV = ("REPRO_FAULTS", "REPRO_TOKEN", "REPRO_CACHE_DIR",
                 "REPRO_SERVER")


class ChaosError(RuntimeError):
    """A chaos-run assertion failed (bytes diverged, a counter that the
    schedule guarantees stayed at zero, a shard that would not start)."""


@dataclass
class ChaosReport:
    """Machine-readable outcome of one chaos run (``repro chaos
    --json-out``): per-phase byte-identity plus the resilience counters
    the fault schedule guarantees."""

    seed: int
    size: int
    shards: list[str]
    phases: dict[str, dict] = field(default_factory=dict)
    worker_restarts: int = 0
    tasks_retried: int = 0
    failovers: int = 0
    recoveries: int = 0
    store_degraded_shards: list[str] = field(default_factory=list)
    graceful_exits: int = 0
    ok: bool = False

    def to_json(self) -> dict:
        return {
            "schema": _SCHEMA,
            "seed": self.seed,
            "size": self.size,
            "shards": list(self.shards),
            "phases": {name: dict(data)
                       for name, data in self.phases.items()},
            "worker_restarts": self.worker_restarts,
            "tasks_retried": self.tasks_retried,
            "failovers": self.failovers,
            "recoveries": self.recoveries,
            "store_degraded_shards": list(self.store_degraded_shards),
            "graceful_exits": self.graceful_exits,
            "ok": self.ok,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f"chaos run: seed={self.seed} size={self.size} "
                 f"shards={','.join(self.shards)}"]
        for name, data in self.phases.items():
            mark = "ok" if data.get("byte_identical") else "DIVERGED"
            lines.append(f"  phase {name:<18} {mark}")
        lines.append(
            f"  worker_restarts={self.worker_restarts}"
            f" tasks_retried={self.tasks_retried}"
            f" failovers={self.failovers}"
            f" recoveries={self.recoveries}"
        )
        lines.append(
            "  store degraded on: "
            + (",".join(self.store_degraded_shards) or "<none>")
        )
        lines.append(f"  graceful exits: {self.graceful_exits}")
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _shard_env(token: str, fault_spec: str | None) -> dict:
    env = dict(os.environ)
    for key in _SCRUBBED_ENV:
        env.pop(key, None)
    src_root = pathlib.Path(__file__).resolve().parents[2]
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{src_root}{os.pathsep}{existing}" if existing else str(src_root)
    )
    env["REPRO_TOKEN"] = token
    if fault_spec:
        env["REPRO_FAULTS"] = fault_spec
    return env


def _spawn_shard(
    port: int,
    jobs: int,
    token: str,
    cache_dir: pathlib.Path,
    fault_spec: str | None,
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "serve",
        "--tcp", f"127.0.0.1:{port}",
        "--jobs", str(jobs),
        "--cache-dir", str(cache_dir),
    ]
    return subprocess.Popen(
        command,
        env=_shard_env(token, fault_spec),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_ready(
    address: str,
    token: str,
    process: subprocess.Popen,
    timeout: float = 30.0,
) -> None:
    from repro.client import connect

    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if process.poll() is not None:
            raise ChaosError(
                f"shard {address} exited with status"
                f" {process.returncode} before becoming ready"
            )
        try:
            client = connect(address, token=token, fallback=False,
                             retries=0, timeout=5.0)
        except Exception:
            time.sleep(0.1)
            continue
        try:
            client.healthz()
            return
        except Exception:
            time.sleep(0.1)
        finally:
            client.close()
    raise ChaosError(f"shard {address} not ready within {timeout:.0f}s")


def _stop_shard(process: subprocess.Popen, timeout: float = 20.0) -> bool:
    """SIGTERM one shard daemon; ``True`` iff it drained and exited 0
    (the graceful-shutdown contract).  A stubborn process is SIGKILLed
    so the harness never leaks daemons."""
    if process.poll() is not None:
        return False
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return False


def run_chaos(
    size: int = 6,
    seed: int | None = None,
    jobs: int = 2,
    budgets: tuple[int, ...] = (32,),
    artifacts: tuple[str, ...] = ("table1", "fig8"),
    machine_names: tuple[str, ...] = ("P2L4",),
    down_ttl: float = 2.0,
    verify: bool = True,
    artifacts_dir: "str | pathlib.Path | None" = None,
    skip_restart: bool = False,
    log=None,
) -> ChaosReport:
    """Run the full chaos schedule; returns a :class:`ChaosReport`
    (``report.ok`` only when every phase byte-matched the baseline and
    every guaranteed counter moved).  Artifact JSON for each phase is
    written into *artifacts_dir* (``baseline.json``, ``faulted.json``,
    ``failover.json``, ``recovered.json``) so CI can ``cmp`` them."""
    from repro.cluster import ClusterClient
    from repro.eval.engine import run_sweep
    from repro.machine.specs import resolve_machine
    from repro.workloads import perfect_club_like_suite
    from repro.workloads.suite import DEFAULT_SEED

    if seed is None:
        seed = DEFAULT_SEED
    emit = log or (lambda message: None)

    # the harness itself must run fault-free regardless of the
    # operator's environment; the shards get their own explicit specs
    faults.install(None)

    suite = perfect_club_like_suite(size=size, seed=seed)
    suite_info = {"kind": "club", "seed": seed}
    machines = [resolve_machine(name) for name in machine_names]

    scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-")
    scratch_dir = pathlib.Path(scratch.name)
    out_dir = (
        pathlib.Path(artifacts_dir) if artifacts_dir is not None
        else scratch_dir / "artifacts"
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    def sweep_bytes(cluster=None) -> bytes:
        report = run_sweep(
            suite=suite,
            machines=machines,
            budgets=budgets,
            artifacts=artifacts,
            jobs=1,
            suite_info=suite_info,
            cluster=cluster,
            verify=verify,
        )
        return (report.to_json_text() + "\n").encode("utf-8")

    token = f"chaos-{seed}"
    ports = [_free_port(), _free_port()]
    addresses = [f"127.0.0.1:{port}" for port in ports]
    report = ChaosReport(seed=seed, size=size, shards=addresses)
    # the shared kill seam is inert on shard 0 (jobs=1 evaluates in the
    # daemon parent, where pool seams never fire) and guarantees one
    # worker SIGKILL on shard 1 once any worker has taken two cells
    kill_seam = "pool.kill_before_cell:nth=2:gen=0"
    shard_specs = [
        f"seed={seed};store.enospc:every=1;{kill_seam}",
        f"seed={seed};{kill_seam}",
    ]
    shard_jobs = [1, max(2, jobs)]

    def phase(name: str, payload: bytes, baseline: bytes,
              filename: str) -> None:
        (out_dir / filename).write_bytes(payload)
        identical = payload == baseline
        report.phases[name] = {
            "byte_identical": identical,
            "artifact": filename,
            "bytes": len(payload),
        }
        emit(f"phase {name}: {'byte-identical' if identical else 'DIVERGED'}"
             f" ({len(payload)} bytes)")

    processes: list[subprocess.Popen | None] = [None, None]
    try:
        emit(f"phase baseline: fault-free local sweep"
             f" (size={size} seed={seed})")
        baseline = sweep_bytes()
        phase("baseline", baseline, baseline, "baseline.json")

        for index in range(2):
            cache_dir = scratch_dir / f"shard{index}-cache"
            cache_dir.mkdir(exist_ok=True)
            processes[index] = _spawn_shard(
                ports[index], shard_jobs[index], token, cache_dir,
                shard_specs[index],
            )
        for index in range(2):
            _wait_ready(addresses[index], token, processes[index])
        emit(f"shards up: {addresses[0]} (jobs=1, ENOSPC store),"
             f" {addresses[1]} (jobs={shard_jobs[1]}, worker-kill)")

        cluster = ClusterClient(
            addresses, token=token, retries=1, down_ttl=down_ttl
        )
        with cluster:
            phase("faulted", sweep_bytes(cluster), baseline,
                  "faulted.json")

            stats = cluster.stats()
            for address, document in stats["shards"].items():
                if not isinstance(document, dict) or "error" in document:
                    continue
                store = document.get("store") or {}
                cache = document.get("cache") or {}
                if store.get("degraded") or cache.get("store_degradations"):
                    report.store_degraded_shards.append(address)
                pool = document.get("pool") or {}
                report.worker_restarts += pool.get("worker_restarts", 0)
                report.tasks_retried += pool.get("tasks_retried", 0)
            emit(f"shard stats: worker_restarts={report.worker_restarts}"
                 f" degraded={report.store_degraded_shards}")

            emit(f"phase failover: SIGKILL shard {addresses[0]}")
            processes[0].kill()
            processes[0].wait()
            processes[0] = None
            phase("failover", sweep_bytes(cluster), baseline,
                  "failover.json")
            report.failovers = cluster.failovers

            if not skip_restart:
                emit(f"phase recovery: restarting shard {addresses[0]}"
                     f" fault-free, waiting out down_ttl={down_ttl:.1f}s")
                cache_dir = scratch_dir / "shard0-cache-reborn"
                cache_dir.mkdir(exist_ok=True)
                processes[0] = _spawn_shard(
                    ports[0], 1, token, cache_dir, None
                )
                _wait_ready(addresses[0], token, processes[0])
                time.sleep(down_ttl + 0.2)
                phase("recovered", sweep_bytes(cluster), baseline,
                      "recovered.json")
                report.recoveries = cluster.recoveries

        for index in range(2):
            process = processes[index]
            if process is not None and _stop_shard(process):
                report.graceful_exits += 1
            processes[index] = None

        identical = all(
            data["byte_identical"] for data in report.phases.values()
        )
        counters_moved = (
            report.worker_restarts >= 1
            and report.failovers >= 1
            and bool(report.store_degraded_shards)
            and (skip_restart or report.recoveries >= 1)
        )
        report.ok = identical and counters_moved
        return report
    finally:
        for process in processes:
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
        scratch.cleanup()
