"""The compilation service vs per-request cold starts.

The scenario ``repro serve`` exists for: many small client requests
arriving over time.  Without the daemon each request pays whatever
state-warming its process hasn't done yet; against a warm service every
request after the first identical one is a memo (or coalesced-future)
hit.

Two axes:

* **warm service throughput** — a request set served twice through one
  :class:`repro.server.CompileService`; the second pass must perform
  zero new schedule computations (the ``/stats`` cache-counter check CI
  makes against a live daemon, here asserted in-process);
* **coalescing** — N identical concurrent submissions must cost one
  computation, measured by the schedule-miss counter movement.

The timings stay honest (no subprocess startup noise is measured — the
transports are exercised in ``tests/test_server.py`` and the CI smoke
job); what this harness records is the service-layer overhead on top of
the raw pipeline, which should be negligible.
"""

from __future__ import annotations

import time

from repro.api import Pipeline
from repro.sched import cache as sched_cache
from repro.server import CompileService


def _request_set(suite, count: int = 24) -> list[dict]:
    return [
        {"loop": workload.source, "name": workload.name, "registers": 16}
        for workload in suite[:count]
    ]


def test_warm_service_serves_repeats_without_rescheduling(
    benchmark, suite, record
):
    requests = _request_set(suite)
    sched_cache.clear()
    with CompileService(batch_window=0.0) as service:
        cold_started = time.perf_counter()
        cold = service.compile_many(requests)
        cold_seconds = time.perf_counter() - cold_started
        misses_after_cold = service.stats()["cache"]["schedule_misses"]

        warm = benchmark.pedantic(
            lambda: service.compile_many(requests), rounds=1, iterations=1
        )
        stats = service.stats()

    assert [r.to_json_text() for r in warm] == [
        r.to_json_text() for r in cold
    ]
    assert stats["cache"]["schedule_misses"] == misses_after_cold, (
        "warm repeat performed new schedule computations"
    )
    direct = Pipeline().compile_many(requests)
    assert [r.to_json_text() for r in warm] == [
        r.to_json_text() for r in direct
    ]
    record(
        "server_warm_repeat",
        f"service batch of {len(requests)}: cold {cold_seconds:.3f}s,"
        f" warm repeat served entirely from memos"
        f" (schedule misses {stats['cache']['schedule_misses']},"
        f" hits {stats['cache']['schedule_hits']})",
    )


def test_coalescing_costs_one_computation(benchmark, suite, record):
    workload = suite[0]
    duplicates = 16

    def coalesced_round() -> int:
        sched_cache.clear()
        before = sched_cache.STATS.snapshot()
        service = CompileService(start=False)
        futures = [
            service.submit(
                {"loop": workload.source, "name": workload.name,
                 "registers": 16}
            )
            for _ in range(duplicates)
        ]
        service.start()
        for future in futures:
            future.result(timeout=300)
        service.close()
        return sched_cache.STATS.delta(before).schedule_misses

    coalesced_misses = benchmark.pedantic(
        coalesced_round, rounds=1, iterations=1
    )

    sched_cache.clear()
    before = sched_cache.STATS.snapshot()
    Pipeline().compile_many(
        [{"loop": workload.source, "name": workload.name, "registers": 16}]
    )
    single_misses = sched_cache.STATS.delta(before).schedule_misses

    assert coalesced_misses == single_misses, (
        f"{duplicates} coalesced requests performed {coalesced_misses}"
        f" schedule computations; one request performs {single_misses}"
    )
    record(
        "server_coalescing",
        f"{duplicates} identical concurrent requests ->"
        f" {coalesced_misses} schedule computation(s), equal to one"
        f" request's {single_misses}",
    )
