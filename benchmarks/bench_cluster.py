"""The sharded cluster under concurrent client load.

The scenario ``repro.cluster`` exists for: many clients hammering a
small fleet of ``repro serve`` daemons.  The load generator here runs
N client threads against three in-process TCP shards (token-auth, the
deployment shape) and checks the two properties the cluster promises:

* **byte identity** — every routed result equals the direct in-process
  ``Pipeline.compile_many`` document, whatever shard served it and
  however the concurrent load interleaved;
* **useful sharding** — the consistent-hash ring spreads distinct
  request keys across every shard (each shard serves a non-trivial
  share), and repeat load is served from the shards' warm memos.

What gets recorded is operator-facing: sustained throughput plus the
p50/p90/p99 request latency of the loaded phase, measured with the
same :class:`repro.metrics.LatencyHistogram` the daemons persist — the
numbers ``repro cluster top`` would show for this run.
"""

from __future__ import annotations

import threading
import time

from repro.api import Pipeline
from repro.cluster import ClusterClient
from repro.metrics import LatencyHistogram
from repro.sched import cache as sched_cache
from repro.server import CompileService, LineTCPServer

SHARDS = 3
CLIENTS = 6
REQUESTS = 48
TOKEN = "bench-token"


def _start_shards():
    shards = []
    for _ in range(SHARDS):
        service = CompileService(batch_window=0.0)
        server = LineTCPServer("127.0.0.1", 0, service, token=TOKEN)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        shards.append((service, server, f"127.0.0.1:{server.port}"))
    return shards


def _stop_shards(shards):
    for service, server, _ in shards:
        server.shutdown()
        server.server_close()
        service.close()


def test_cluster_load_byte_identical_and_sharded(benchmark, suite, record):
    requests = [
        {"loop": workload.source, "name": workload.name, "registers": 16}
        for workload in suite[:REQUESTS]
    ]
    sched_cache.clear()
    direct = [
        result.to_json_text()
        for result in Pipeline().compile_many([dict(r) for r in requests])
    ]

    shards = _start_shards()
    addresses = [address for _, _, address in shards]
    cluster = ClusterClient(addresses, token=TOKEN)
    histogram = LatencyHistogram()
    histogram_lock = threading.Lock()
    try:
        # cold pass: one scatter/gather fills every shard's memos
        cold_started = time.perf_counter()
        cold = [
            result.to_json_text()
            for result in cluster.compile_many([dict(r) for r in requests])
        ]
        cold_seconds = time.perf_counter() - cold_started
        assert cold == direct

        # loaded phase: CLIENTS threads, each walking the whole request
        # set single-request-at-a-time from its own offset — the
        # many-small-clients shape, against warm shards
        def client_run(offset: int, out: list) -> None:
            local = LatencyHistogram()
            documents = [None] * len(requests)
            for step in range(len(requests)):
                index = (offset + step) % len(requests)
                started = time.perf_counter()
                result = cluster.compile_request(dict(requests[index]))
                local.observe_ms(
                    (time.perf_counter() - started) * 1000.0
                )
                documents[index] = result.to_json_text()
            out.append(documents)
            with histogram_lock:
                histogram.merge(local)

        def loaded_phase():
            outcomes: list = []
            threads = [
                threading.Thread(
                    target=client_run,
                    args=(client * len(requests) // CLIENTS, outcomes),
                )
                for client in range(CLIENTS)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return outcomes, time.perf_counter() - started

        outcomes, loaded_seconds = benchmark.pedantic(
            loaded_phase, rounds=1, iterations=1
        )

        # every client saw byte-identical documents
        assert len(outcomes) == CLIENTS
        for documents in outcomes:
            assert documents == direct

        # the ring used every shard, and the load stayed warm: no shard
        # recomputed a schedule after the cold pass
        shard_requests = [
            service.stats()["service"]["requests"]
            for service, _, _ in shards
        ]
        assert all(count > 0 for count in shard_requests), (
            f"a shard served no requests: {shard_requests}"
        )
        assert sum(shard_requests) >= CLIENTS * len(requests)
        warm_misses = [
            shard_service.stats()["cache"]["schedule_misses"]
            for shard_service, _, _ in shards
        ]
        assert sum(warm_misses) <= REQUESTS, (
            f"loaded phase recomputed schedules: {warm_misses}"
        )
        assert cluster.failovers == 0
    finally:
        cluster.close()
        _stop_shards(shards)

    total = CLIENTS * len(requests)
    throughput = total / loaded_seconds if loaded_seconds else 0.0
    summary = histogram.summary()
    record(
        "cluster_load",
        f"{CLIENTS} clients x {len(requests)} requests over"
        f" {SHARDS} TCP shards (token auth): cold scatter"
        f" {cold_seconds:.3f}s; loaded phase {total} requests in"
        f" {loaded_seconds:.3f}s = {throughput:.0f} req/s;"
        f" latency p50 {summary['p50_ms']:.1f}ms"
        f" p90 {summary['p90_ms']:.1f}ms"
        f" p99 {summary['p99_ms']:.1f}ms"
        f" max {summary['max_ms']:.1f}ms;"
        f" per-shard requests {shard_requests};"
        f" byte-identical to direct compilation"
    )
