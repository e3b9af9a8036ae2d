"""Tests for the sharded cluster: repro.cluster + TCP/token transports
+ the repro.metrics persistence layer.

The contracts under test, in the order the ISSUE states them:

* token authentication at the protocol layer: missing/wrong/correct
  token over TCP and HTTP (constant-time compare; ``/healthz`` open);
* consistent-hash ring determinism and rebalancing — removing a shard
  remaps only the keys it owned;
* fail-over byte-identity: with one of two shards dead, a routed batch
  still matches direct in-process compilation byte for byte;
* ``connect()`` retries transient connection errors with bounded
  backoff (``retries=0`` fails fast);
* the daemon's ``/stats`` counts worker-process cache work exactly;
* metrics: recorder histograms/counters, SQLite persistence, mergeable
  buckets and percentile estimation;
* a routed sweep is byte-identical to a local one, with every cell
  counted on exactly one shard.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import pool
from repro.api import Pipeline
from repro.client import ClientError, TCPClient, connect, is_transient_error
from repro.cluster import ClusterClient, HashRing, parse_addresses
from repro.eval.engine import (
    cell_from_wire,
    cell_to_wire,
    routed_through,
    run_cells,
    run_sweep,
    workload_cells,
)
from repro.machine.specs import resolve_machine
from repro.sched import cache as sched_cache
from repro.metrics import (
    BUCKET_BOUNDS_MS,
    LatencyHistogram,
    MetricsDB,
    MetricsRecorder,
    metrics_path,
    percentile,
)
from repro.server import (
    CompileService,
    LineTCPServer,
    UNAUTHORIZED,
    check_token,
    handle_line,
)
from repro.server.daemon import CompileHTTPServer, parse_tcp_address
from repro.workloads.suite import perfect_club_like_suite

FIG2 = "x[i] = y[i]*a + y[i-3]"


def start_tcp_daemon(token=None, **service_kwargs):
    """One in-process TCP shard on an ephemeral port; returns
    (service, server, address)."""
    service = CompileService(batch_window=0.0, **service_kwargs)
    server = LineTCPServer("127.0.0.1", 0, service, token=token)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return service, server, f"127.0.0.1:{server.port}"


def stop_tcp_daemon(service, server):
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def shard_pair():
    shards = [start_tcp_daemon(token="secret") for _ in range(2)]
    try:
        yield shards
    finally:
        for service, server, _ in shards:
            stop_tcp_daemon(service, server)


# ======================================================================
class TestTokenAuth:
    def test_check_token(self):
        assert check_token(None, None)
        assert check_token("anything", None)
        assert check_token("secret", "secret")
        assert not check_token("wrong", "secret")
        assert not check_token(None, "secret")
        assert not check_token(123, "secret")

    def test_protocol_layer_rejects_before_dispatch(self):
        # no service methods must run for an unauthenticated line: a
        # service-free sentinel object proves the op is never looked at
        response = handle_line(
            object(), json.dumps({"op": "stats", "id": 4}), token="secret"
        )
        assert response == {"id": 4, "ok": False, "error": UNAUTHORIZED}

    def test_tcp_missing_and_wrong_token(self, shard_pair):
        _, server, _ = shard_pair[0]
        for token in (None, "wrong"):
            client = TCPClient("127.0.0.1", server.port, token=token)
            with pytest.raises(ClientError, match="unauthorized"):
                client.healthz()
            client.close()

    def test_tcp_correct_token_and_compile(self, shard_pair):
        _, server, _ = shard_pair[0]
        with TCPClient("127.0.0.1", server.port, token="secret") as client:
            assert client.healthz()["status"] == "ok"
            result = client.compile(FIG2, registers=16)
            assert result.converged

    def test_http_bearer_enforced_healthz_open(self):
        service = CompileService(batch_window=0.0)
        server = CompileHTTPServer(0, service, token="secret")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            # liveness stays credential-free
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
                assert json.loads(r.read())["status"] == "ok"
            # everything else rejects without (or with a wrong) Bearer
            for headers in ({}, {"Authorization": "Bearer wrong"}):
                request = urllib.request.Request(
                    f"{base}/stats", headers=headers
                )
                with pytest.raises(urllib.error.HTTPError) as error:
                    urllib.request.urlopen(request, timeout=10)
                assert error.value.code == 401
            request = urllib.request.Request(
                f"{base}/stats",
                headers={"Authorization": "Bearer secret"},
            )
            with urllib.request.urlopen(request, timeout=10) as r:
                assert json.loads(r.read())["schema"].startswith(
                    "repro.server-stats/"
                )
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ======================================================================
class TestHashRing:
    def test_deterministic_and_complete(self):
        ring = HashRing(["a:1", "b:2", "c:3"])
        keys = [f"key-{i}" for i in range(100)]
        first = [ring.node_for(k) for k in keys]
        assert first == [ring.node_for(k) for k in keys]
        assert set(first) == {"a:1", "b:2", "c:3"}  # all shards used

    def test_route_orders_all_distinct_nodes(self):
        ring = HashRing(["a:1", "b:2", "c:3"])
        route = ring.route("some-key")
        assert sorted(route) == ["a:1", "b:2", "c:3"]
        assert ring.route("some-key", count=1) == route[:1]

    def test_removing_a_node_remaps_only_its_keys(self):
        ring = HashRing(["a:1", "b:2", "c:3"])
        keys = [f"key-{i}" for i in range(300)]
        owners = {k: ring.node_for(k) for k in keys}
        smaller = ring.without("b:2")
        for key in keys:
            if owners[key] != "b:2":
                assert smaller.node_for(key) == owners[key]
            else:
                assert smaller.node_for(key) in ("a:1", "c:3")

    def test_failover_successor_matches_removal(self):
        # the node a key fails over to is the node it would be owned by
        # if the primary were removed — clients and rebalancing agree
        ring = HashRing(["a:1", "b:2", "c:3"])
        for key in (f"key-{i}" for i in range(50)):
            primary, successor = ring.route(key)[:2]
            assert ring.without(primary).node_for(key) == successor

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            parse_addresses("  ,  ")
        assert parse_addresses("a:1, b:2") == ["a:1", "b:2"]


# ======================================================================
class TestClusterClient:
    def test_compile_many_byte_identical_and_sharded(self, shard_pair):
        addresses = [address for _, _, address in shard_pair]
        requests = [
            {"loop": f"c{i}[i] = d{i}[i]*a + c{i}[i-2]", "registers": 12}
            for i in range(6)
        ]
        direct = [
            r.to_json_text()
            for r in Pipeline().compile_many([dict(r) for r in requests])
        ]
        with ClusterClient(addresses, token="secret") as cluster:
            routed = [
                r.to_json_text()
                for r in cluster.compile_many([dict(r) for r in requests])
            ]
            assert routed == direct
            # every request was routed to its ring-predicted shard
            expected = {address: 0 for address in addresses}
            for request in requests:
                shard = cluster.ring.node_for(cluster.shard_key(request))
                expected[shard] += 1
            # compile_many batches per shard: one routed call per
            # non-empty group
            assert cluster.routed == {
                address: int(count > 0)
                for address, count in expected.items()
            }

    def test_failover_byte_identity(self, shard_pair):
        addresses = [address for _, _, address in shard_pair]
        cluster = ClusterClient(addresses, token="secret", retries=0)
        # build a batch guaranteed to have shard 0 as some primary, so
        # killing shard 0 must exercise fail-over
        requests, have_primary_on_0 = [], False
        for i in range(200):
            request = {
                "loop": f"f{i}[i] = g{i}[i]*a + f{i}[i-2]",
                "registers": 12,
            }
            shard = cluster.ring.node_for(cluster.shard_key(request))
            have_primary_on_0 = have_primary_on_0 or shard == addresses[0]
            requests.append(request)
            if len(requests) >= 6 and have_primary_on_0:
                break
        assert have_primary_on_0
        direct = [
            r.to_json_text()
            for r in Pipeline().compile_many([dict(r) for r in requests])
        ]
        service0, server0, _ = shard_pair[0]
        stop_tcp_daemon(service0, server0)  # one shard dies
        with cluster:
            routed = [
                r.to_json_text()
                for r in cluster.compile_many([dict(r) for r in requests])
            ]
        assert routed == direct
        assert cluster.routed[addresses[0]] == 0
        assert cluster.routed[addresses[1]] > 0
        assert cluster.failovers > 0

    def test_auth_failure_is_not_retried_across_shards(self, shard_pair):
        addresses = [address for _, _, address in shard_pair]
        with ClusterClient(addresses, token="wrong") as cluster:
            with pytest.raises(ClientError, match="unauthorized"):
                cluster.compile(FIG2, registers=16)
            assert cluster.failovers == 0

    def test_routed_cells_match_local(self, shard_pair):
        addresses = [address for _, _, address in shard_pair]
        suite = perfect_club_like_suite(size=6)
        cells = workload_cells(
            "ideal", suite, resolve_machine("P2L4"), budget=32
        )
        local = run_cells(cells)
        with ClusterClient(addresses, token="secret") as cluster:
            with routed_through(cluster):
                remote = run_cells(cells)
        assert [r.cell for r in remote.results] == \
            [r.cell for r in local.results]
        assert [r.data for r in remote.results] == \
            [r.data for r in local.results]
        # the shards counted every cell exactly once
        counted = sum(
            service.stats()["service"]["cells"]
            for service, _, _ in shard_pair
        )
        assert counted == len(cells)


# ======================================================================
class TestCellWire:
    def test_round_trip(self):
        suite = perfect_club_like_suite(size=4)
        cells = workload_cells(
            "fig8", suite, resolve_machine("P2L4"), budget=16,
            options={"policy": "max_lt_traf", "multiple": True},
        )
        for cell in cells:
            document = json.loads(json.dumps(cell_to_wire(cell)))
            assert cell_from_wire(document) == cell

    def test_cells_protocol_op(self):
        suite = perfect_club_like_suite(size=3)
        cells = workload_cells(
            "ideal", suite, resolve_machine("P2L4"), budget=32
        )
        local = {r.cell: r.data for r in run_cells(cells).results}
        with CompileService(batch_window=0.0) as service:
            response = handle_line(service, json.dumps({
                "op": "cells", "id": 2,
                "cells": [cell_to_wire(cell) for cell in cells],
            }))
            assert response["ok"]
            assert response["results"] == [local[cell] for cell in cells]
            assert "schedule_misses" in response["cache"]
            assert service.stats()["service"]["cells"] == len(cells)


# ======================================================================
class TestConnectRetries:
    def test_retries_until_daemon_binds(self):
        # reserve a port, release it, bind the daemon only after a delay:
        # the first connection attempts fail, a later retry succeeds
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        service = CompileService(batch_window=0.0)
        holder = {}

        def bind_later():
            time.sleep(0.4)
            holder["server"] = LineTCPServer("127.0.0.1", port, service)
            holder["server"].serve_forever()

        thread = threading.Thread(target=bind_later, daemon=True)
        thread.start()
        try:
            client = connect(
                f"127.0.0.1:{port}", fallback=False,
                retries=8, backoff=0.1,
            )
            assert client.transport == "tcp"
            client.close()
        finally:
            while "server" not in holder:
                time.sleep(0.05)
            holder["server"].shutdown()
            holder["server"].server_close()
            service.close()

    def test_retries_zero_fails_fast(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.perf_counter()
        with pytest.raises(OSError):
            connect(f"127.0.0.1:{port}", fallback=False, retries=0)
        assert time.perf_counter() - started < 5.0

    def test_transient_classification(self):
        assert is_transient_error(ConnectionRefusedError())
        assert is_transient_error(ClientError("server unreachable: x"))
        assert not is_transient_error(ClientError(UNAUTHORIZED))
        assert not is_transient_error(ValueError("nope"))

    def test_fallback_still_local_after_retries(self, tmp_path):
        client = connect(
            str(tmp_path / "no-such-socket"), retries=1, backoff=0.01
        )
        assert client.transport == "local"


# ======================================================================
class TestWorkerStatsAggregation:
    """Pool workers send their counter deltas back with every chunk, so
    ``/stats`` counts the work wherever it ran — exactly, and without
    probing the pool."""

    REQUESTS = [
        {"loop": f"w{i}[i] = v{i}[i]*a + w{i}[i-2]", "registers": 12}
        for i in range(4)
    ]

    @staticmethod
    def cold_stats(jobs: int, requests: list) -> dict:
        """``/stats`` after one batch on a fresh pool with cleared
        memos (workers fork from a parent holding no memo entries)."""
        pool.shutdown_pool()
        sched_cache.clear()
        try:
            with CompileService(batch_window=0.0, jobs=jobs) as service:
                service.compile_many(requests)
                return service.stats()
        finally:
            pool.shutdown_pool()

    def test_stats_include_worker_cache_movement(self):
        stats = self.cold_stats(2, self.REQUESTS)
        assert stats["schema"] == "repro.server-stats/2"
        workers = stats["workers"]
        assert workers["processes"] >= 1
        assert workers["cache"]["schedule_misses"] >= len(self.REQUESTS)
        # ``cache`` counts the work wherever it ran, workers included;
        # ``cache_total`` keeps its name and now equals it
        assert stats["cache"]["schedule_misses"] >= \
            workers["cache"]["schedule_misses"]
        assert stats["cache_total"] == stats["cache"]
        assert stats["work"]["index_builds"] >= \
            workers["work"]["index_builds"] > 0

    def test_worker_counts_are_exact(self):
        serial = self.cold_stats(1, self.REQUESTS)
        parallel = self.cold_stats(2, self.REQUESTS)
        misses = serial["cache"]["schedule_misses"]
        assert misses >= len(self.REQUESTS)
        assert parallel["workers"]["cache"]["schedule_misses"] == misses
        assert parallel["cache"]["schedule_misses"] == misses

    def test_routed_cells_count_worker_misses(self):
        cells = workload_cells(
            "table1", perfect_club_like_suite(size=12),
            resolve_machine("P2L4"), budget=32,
        )
        pool.shutdown_pool()
        sched_cache.clear()
        try:
            with CompileService(batch_window=0.0, jobs=2) as service:
                _, cache = service.evaluate_cells(
                    [cell_to_wire(cell) for cell in cells]
                )
                stats = service.stats()
        finally:
            pool.shutdown_pool()
        assert cache["schedule_misses"] > 0
        assert stats["cache"]["schedule_misses"] == cache["schedule_misses"]
        assert stats["workers"]["cache"]["schedule_misses"] > 0

    def test_stats_submit_no_pool_task(self, monkeypatch):
        with CompileService(batch_window=0.0, jobs=2) as service:
            service.compile_many(self.REQUESTS[:2])
            submitted = []
            live = pool.worker_pool(2)
            monkeypatch.setattr(
                live, "submit",
                lambda *args, **kwargs: submitted.append(args),
            )
            service.stats()
        assert submitted == []

    def test_single_job_service_reports_no_workers(self):
        with CompileService(batch_window=0.0, jobs=1) as service:
            service.compile({"loop": FIG2, "registers": 16})
            stats = service.stats()
        assert stats["workers"] == {"processes": 0, "cache": {},
                                    "work": {}}
        assert stats["cache_total"] == stats["cache"]


# ======================================================================
class TestMetrics:
    def test_histogram_buckets_and_percentiles(self):
        histogram = LatencyHistogram()
        for ms in (0.4, 3.0, 3.0, 40.0, 900.0):
            histogram.observe_ms(ms)
        assert histogram.count == 5
        assert histogram.max_ms == 900.0
        # bucket upper bounds: 0.4→0.5, 3.0→5.0, 40→50, 900→1000
        assert histogram.percentile(50) == 5.0
        assert histogram.percentile(99) == 1000.0
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["p50_ms"] == 5.0

    def test_histogram_merge_is_addition(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for ms in (1.0, 9.0):
            a.observe_ms(ms)
        for ms in (9.0, 200.0):
            b.observe_ms(ms)
        a.merge(b)
        assert a.count == 4
        assert a.as_bounds_dict()[10.0] == 2

    def test_percentile_overflow_bucket_uses_max(self):
        buckets = dict.fromkeys(BUCKET_BOUNDS_MS, 0)
        buckets[float("inf")] = 10
        assert percentile(buckets, 50, max_ms=45000.0) == 45000.0

    def test_recorder_persists_and_merges(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        recorder = MetricsRecorder(db=str(path), flush_interval=9999)
        recorder.count("requests", 3)
        recorder.observe("request", 0.004)  # 4ms → the 5ms bucket
        recorder.flush()
        recorder.count("requests", 2)
        recorder.observe("request", 0.004)
        recorder.close()  # second interval flushes on close
        with MetricsDB(path) as db:
            assert db.counter_total("requests") == 5
            assert db.counter_totals()["requests"] == 5
            assert len(db.counter_series("requests")) == 2
            assert db.latency_ops() == ["request"]
            histogram = db.histogram("request")
            assert histogram[5.0] == 2
            assert percentile(histogram, 50) == 5.0

    def test_service_records_request_latency(self, tmp_path):
        db_path = tmp_path / "metrics.sqlite"
        with CompileService(
            batch_window=0.0, metrics=str(db_path)
        ) as service:
            service.compile({"loop": FIG2, "registers": 16})
            # the request-latency observation fires from the future's
            # done callback; give the dispatcher thread a beat
            deadline = time.time() + 5.0
            while time.time() < deadline:
                summary = service.stats()["metrics"]
                if summary["latency"].get("request", {}).get("count"):
                    break
                time.sleep(0.01)
            assert summary["persisted"] is True
            assert summary["counters"]["requests"] == 1
            assert summary["latency"]["request"]["count"] == 1
        # close() flushed the interval to disk
        with MetricsDB(db_path) as db:
            assert db.counter_total("requests") == 1
            assert sum(db.histogram("request").values()) == 1

    def test_metrics_path_convention(self, tmp_path):
        assert metrics_path(tmp_path) == tmp_path / "metrics.sqlite"


# ======================================================================
class TestRoutedSweep:
    def test_sweep_byte_identical_through_cluster(self, shard_pair):
        addresses = [address for _, _, address in shard_pair]
        suite = perfect_club_like_suite(size=6)
        kwargs = dict(
            suite=suite,
            machines=[resolve_machine("P2L4")],
            budgets=(32,),
            artifacts=("table1",),
        )
        direct = run_sweep(**kwargs)
        with ClusterClient(addresses, token="secret") as cluster:
            routed = run_sweep(cluster=cluster, **kwargs)
        assert routed.to_json_text() == direct.to_json_text()
        # every cell was counted on exactly one shard, split exactly as
        # the ring dictates
        counted = [
            service.stats()["service"]["cells"]
            for service, _, _ in shard_pair
        ]
        assert sum(counted) == len(direct.run.results) > 0
        expected = {address: 0 for address in addresses}
        ring = HashRing(addresses)
        for result in direct.run.results:
            key = ClusterClient.cell_key(result.cell)
            expected[ring.node_for(key)] += 1
        assert counted == [expected[address] for address in addresses]


def test_parse_tcp_address():
    assert parse_tcp_address("8900") == ("127.0.0.1", 8900)
    assert parse_tcp_address(8900) == ("127.0.0.1", 8900)
    assert parse_tcp_address("0.0.0.0:80") == ("0.0.0.0", 80)
    assert parse_tcp_address(("h", 1)) == ("h", 1)
    with pytest.raises(ValueError):
        parse_tcp_address("nope")
