"""The transport-agnostic compilation service core.

:class:`CompileService` is what every transport (stdio, socket, HTTP —
see :mod:`repro.server.daemon`) hands requests to.  It owns exactly one
:class:`repro.api.Pipeline` — and therefore one warm persistent worker
pool and one shared :class:`repro.sched.store.ScheduleStore` — for the
whole daemon lifetime, and turns many concurrent single-request clients
into the batch shape the pipeline is fastest at:

* **Request queue + batching.**  ``submit()`` enqueues and returns a
  future; a dispatcher thread drains the queue, waits one short batch
  window for stragglers, and runs the whole group through
  :meth:`Pipeline.compile_many` — so eight clients arriving together
  cost one batch, not eight independent compiles.
* **In-flight coalescing.**  Requests are keyed by the same material the
  memo/store layers use (:func:`repro.sched.cache.compile_request_key`:
  DDG fingerprint, machine, scheduler, strategy, budget, options — plus
  the loop name, which is part of the response document).  A request
  whose key is already queued or executing does not enqueue again: it
  receives the in-flight computation's future, so identical concurrent
  requests schedule exactly once.
* **Determinism.**  Results are the pipeline's service shape (volatile
  fields — ``wall_seconds`` and the cache-warmth-dependent work
  counters — zeroed, heavyweight artifacts stripped), so a served
  response is byte-identical to a direct in-process
  ``Pipeline.compile_many`` result, whatever the batching or coalescing
  did.
* **Telemetry.**  :meth:`stats` reports service counters (requests,
  batches, coalesced, errors, routed cell batches — read from the
  metrics recorder), the :data:`repro.telemetry.COUNTERS` cache and
  work movement for the server lifetime (pool workers send theirs back
  with every chunk, so this counts the work wherever it ran), the
  workers' share of it (``workers`` block), store telemetry, the
  worker-pool state, and the metrics recorder's latency/counter digest
  — the ``/stats`` endpoint.
* **Metrics.**  Every service owns a
  :class:`repro.metrics.MetricsRecorder`: per-request latency
  histograms, request/batch/error counters, coalesced hits and
  per-batch cache-counter deltas, flushed as time-series rows into
  SQLite when the recorder has a database (``repro serve --cache-dir``
  puts it at ``<cache-dir>/metrics.sqlite``).  It is also the process's
  trace-span flush target while the service is open.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from concurrent.futures import Future

from repro import pool as worker_pool_mod
from repro.api import Pipeline
from repro.metrics import MetricsRecorder
from repro.metrics.prom import render_prometheus
from repro.sched import store as sched_store
from repro.sched.cache import compile_request_key
from repro.telemetry import CACHE, COUNTERS, WORK, Counters
from repro.trace import context as trace_context

STATS_SCHEMA = "repro.server-stats/2"
HEALTH_SCHEMA = "repro.server-health/1"


class ServiceClosed(RuntimeError):
    """Raised by :meth:`CompileService.submit` after :meth:`close`."""


class ServiceShuttingDown(ServiceClosed):
    """Raised by :meth:`CompileService.submit` while draining: the
    daemon is finishing in-flight work but accepts nothing new."""


class ServiceBusy(RuntimeError):
    """Raised by :meth:`CompileService.submit` when the bounded request
    queue is full — explicit load-shedding instead of unbounded
    buffering (clients should back off and retry elsewhere)."""


class ServiceTimeout(TimeoutError):
    """A request's ``deadline_ms`` expired before (or while) it was
    compiled.  A ``TimeoutError`` subclass, so generic timeout handling
    catches it too."""


class _Inflight:
    """One queued-or-executing unique request and its shared future."""

    __slots__ = ("future", "request", "deadline", "trace", "enqueued")

    def __init__(self, request: dict, deadline: float | None = None) -> None:
        self.future: Future = Future()
        self.request = request
        self.deadline = deadline
        # the submitting thread's propagated trace context (set under
        # the protocol's server span), if any — queue/batch spans and
        # the worker compile span all hang off it
        self.trace = trace_context.current()
        self.enqueued = time.perf_counter()


class CompileService:
    """One warm pipeline behind a batching, coalescing request queue.

    Arguments:
        pipeline: the :class:`~repro.api.Pipeline` to serve (its
            defaults fill omitted request fields).  Built from *cache*
            with stock defaults when not given.
        cache: persistent store directory (or
            :class:`~repro.sched.store.ScheduleStore`) when *pipeline*
            is not given.
        jobs: pool width for each batch (``1`` = compile in the
            dispatcher thread; memos still make repeats free).
        batch_window: seconds the dispatcher waits after the first
            queued request for more to arrive before compiling.
        max_batch: largest group handed to one ``compile_many`` call.
        metrics: a :class:`repro.metrics.MetricsRecorder` (or a
            database path for one).  Defaults to a purely in-memory
            recorder, so the telemetry surface is always present; the
            service owns the recorder and closes it on :meth:`close`.
        start: start the dispatcher thread immediately.  Tests pass
            ``False`` to stage several duplicate submissions and then
            :meth:`start` the dispatcher, making coalescing assertions
            deterministic.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        cache: "sched_store.ScheduleStore | str | None" = None,
        jobs: int = 1,
        batch_window: float = 0.002,
        max_batch: int = 64,
        max_queue: int = 256,
        metrics: "MetricsRecorder | str | None" = None,
        start: bool = True,
    ) -> None:
        self.pipeline = pipeline if pipeline is not None else Pipeline(cache=cache)
        self.jobs = max(1, int(jobs))
        self.batch_window = batch_window
        self.max_batch = max(1, int(max_batch))
        self.max_queue = max(1, int(max_queue))
        if isinstance(metrics, MetricsRecorder):
            self.metrics = metrics
        else:  # None → in-memory only; a path → SQLite-backed
            self.metrics = MetricsRecorder(db=metrics)
        self.started_at = time.time()
        self._lock = threading.Condition()
        # pipeline state (the parsed-DDG cache and its eviction) is not
        # thread-safe; every transport thread parses under this lock
        self._parse_lock = threading.Lock()
        # engine-cell evaluation mutates process-wide memos; one batch
        # of routed cells runs at a time
        self._cells_lock = threading.Lock()
        self._queue: deque[tuple] = deque()
        self._inflight: dict[tuple, _Inflight] = {}
        self._closed = False
        self._draining = False
        self._dispatcher: threading.Thread | None = None
        # lifetime baselines: /stats reports movement since construction
        self._counters_base = COUNTERS.snapshot()
        self._workers_base = worker_pool_mod.WORKER_COUNTERS.snapshot()
        trace_context.set_flush_target(self.metrics.record_spans)
        if self.jobs > 1:
            # warm the shared pool under this pipeline's store so the
            # first batch pays no worker spin-up
            context = (
                sched_store.using(self.pipeline.cache)
                if self.pipeline.cache is not None
                else contextlib.nullcontext()
            )
            with context:
                worker_pool_mod.warm_pool(self.jobs)
        if start:
            self.start()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._dispatcher is not None or self._closed:
                return
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-server-dispatch",
                daemon=True,
            )
            self._dispatcher.start()

    def drain(self) -> None:
        """Enter drain mode: new :meth:`submit` calls fail with
        :class:`ServiceShuttingDown` while already-queued and in-flight
        work still completes.  ``repro serve`` drains on SIGTERM and
        only then tears the transports down, so a graceful stop never
        drops accepted work.  The metrics recorder (and any buffered
        trace spans) flush here, so a SIGTERM'd shard never loses its
        final interval."""
        with self._lock:
            self._draining = True
            self._lock.notify_all()
        self._flush_spans()
        self.metrics.flush()

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no work is queued or in flight (or *timeout*
        elapses); returns whether the service went idle."""
        limit = time.monotonic() + timeout
        while time.monotonic() < limit:
            with self._lock:
                if not self._queue and not self._inflight:
                    return True
            time.sleep(0.02)
        with self._lock:
            return not self._queue and not self._inflight

    def close(self) -> None:
        """Stop accepting work, finish the queue, stop the dispatcher.
        The worker pool is left alive (it is process-wide and shared)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=30)
        trace_context.set_flush_target(None)
        self._flush_spans()
        self.metrics.close()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request_key(self, request: dict) -> tuple:
        """The coalescing identity of *request*: the memo/store key
        material plus the loop name (equal keys ⇒ byte-identical
        response documents)."""
        with self._parse_lock:
            normalized = self.pipeline.normalize_request(request)
            ddg = self.pipeline.ddg(normalized["loop"], normalized["name"])
        return (
            normalized["name"],
            *compile_request_key(
                ddg,
                normalized["machine"],
                normalized["scheduler"],
                normalized["strategy"],
                normalized["registers"],
                normalized["options"],
            ),
        )

    def submit(self, request: dict, deadline_ms: float | None = None) -> Future:
        """Enqueue one compile request mapping; returns a future
        resolving to the service-shaped
        :class:`~repro.api.CompilationResult`.

        Raises :class:`ValueError` immediately on a malformed request
        (unknown keys/machine/scheduler/strategy, unparsable loop) —
        bad requests never reach the batch — :class:`ServiceClosed`
        after :meth:`close`, :class:`ServiceShuttingDown` while
        draining, and :class:`ServiceBusy` when the bounded queue
        (:attr:`max_queue` unique pending requests) is full.

        *deadline_ms* bounds queue wait: a request still queued when
        its deadline expires fails with :class:`ServiceTimeout` instead
        of occupying a batch slot.
        """
        key = self.request_key(request)  # validates; may raise
        started = time.perf_counter()
        deadline = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None and deadline_ms > 0
            else None
        )
        with self._lock:
            if self._closed:
                raise ServiceClosed("compile service is shut down")
            if self._draining:
                raise ServiceShuttingDown(
                    "compile service is draining for shutdown"
                )
            self.metrics.count("requests")
            entry = self._inflight.get(key)
            if entry is not None:
                self.metrics.count("coalesced")
                # the joiner's own trace still shows where its request
                # went: a zero-duration marker pointing at the shared
                # computation
                if trace_context.current() is not None:
                    trace_context.record_span(
                        "service.coalesce", "service", 0.0,
                        attrs={"joined": entry.trace.trace_id
                               if entry.trace is not None else None},
                    )
                # a coalesced joiner must never shorten the shared
                # computation's life: keep the most permissive deadline
                if entry.deadline is not None and (
                    deadline is None or deadline > entry.deadline
                ):
                    entry.deadline = deadline
            else:
                if len(self._queue) >= self.max_queue:
                    self.metrics.count("shed")
                    raise ServiceBusy(
                        f"compile queue full ({self.max_queue} pending); "
                        "request shed"
                    )
                entry = _Inflight(dict(request), deadline=deadline)
                self._inflight[key] = entry
                self._queue.append(key)
                self._lock.notify_all()
        # every submitter observes its own queue-to-result latency,
        # coalesced or not — that is what a client experienced
        entry.future.add_done_callback(
            lambda _future, _started=started: self.metrics.observe(
                "request", time.perf_counter() - _started
            )
        )
        return entry.future

    def compile(
        self,
        request: dict,
        timeout: float | None = None,
        deadline_ms: float | None = None,
    ):
        """:meth:`submit` and wait: one service-shaped result.

        With *deadline_ms* the wait itself is bounded too, and a missed
        deadline surfaces as :class:`ServiceTimeout`."""
        future = self.submit(request, deadline_ms=deadline_ms)
        if deadline_ms is not None and deadline_ms > 0:
            wait = deadline_ms / 1000.0
            timeout = wait if timeout is None else min(timeout, wait)
        try:
            return future.result(timeout=timeout)
        except TimeoutError as error:
            if isinstance(error, ServiceTimeout) or deadline_ms is None:
                raise
            self._count_timeout()
            raise ServiceTimeout(
                f"deadline of {deadline_ms:g} ms exceeded waiting for result"
            ) from None

    def compile_many(
        self,
        requests,
        timeout: float | None = None,
        deadline_ms: float | None = None,
    ) -> list:
        """Submit a client batch and wait; results in request order.
        Duplicates inside the batch coalesce onto one computation."""
        futures = [
            self.submit(request, deadline_ms=deadline_ms)
            for request in requests
        ]
        if deadline_ms is not None and deadline_ms > 0:
            wait = deadline_ms / 1000.0
            timeout = wait if timeout is None else min(timeout, wait)
        results = []
        for future in futures:
            try:
                results.append(future.result(timeout=timeout))
            except TimeoutError as error:
                if isinstance(error, ServiceTimeout) or deadline_ms is None:
                    raise
                self._count_timeout()
                raise ServiceTimeout(
                    f"deadline of {deadline_ms:g} ms exceeded waiting "
                    "for batch results"
                ) from None
        return results

    def _count_timeout(self) -> None:
        self.metrics.count("timeouts")

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._lock.wait()
                if not self._queue and self._closed:
                    return
            # one short window for concurrent clients to join the batch
            if self.batch_window > 0:
                time.sleep(self.batch_window)
            expired: list[tuple] = []
            with self._lock:
                keys = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self.max_batch))
                ]
                now = time.monotonic()
                batch = []
                for key in keys:
                    entry = self._inflight[key]
                    if entry.deadline is not None and now > entry.deadline:
                        self._inflight.pop(key, None)
                        expired.append((key, entry))
                    else:
                        batch.append((key, entry))
            for _, entry in expired:
                self.metrics.count("timeouts")
                entry.future.set_exception(
                    ServiceTimeout(
                        "deadline exceeded before compilation started"
                    )
                )
            if batch:
                self._run_batch(batch)
            self._flush_spans()
            self.metrics.maybe_flush()

    def _run_batch(self, batch: list[tuple]) -> None:
        started = time.perf_counter()
        requests = []
        for _, entry in batch:
            if entry.trace is not None:
                # queue wait: enqueue to batch dispatch
                trace_context.record_span(
                    "service.queue", "service",
                    (started - entry.enqueued) * 1000.0,
                    context=entry.trace.child(),
                )
                # hand the context to the (possibly pooled) compile
                request = dict(entry.request)
                request["trace"] = entry.trace.to_wire()
                requests.append(request)
            else:
                requests.append(entry.request)
        before = COUNTERS.snapshot()
        try:
            results = self.pipeline.compile_many(requests, jobs=self.jobs)
        except BaseException as error:  # pool death, store I/O, bugs
            with self._lock:
                for key, entry in batch:
                    self._inflight.pop(key, None)
            self.metrics.count("errors", len(batch))
            for _, entry in batch:
                entry.future.set_exception(error)
            return
        with self._lock:
            for key, _ in batch:
                self._inflight.pop(key, None)
        elapsed = time.perf_counter() - started
        for _, entry in batch:
            if entry.trace is not None:
                trace_context.record_span(
                    "service.batch", "service", elapsed * 1000.0,
                    context=entry.trace.child(),
                    attrs={"batch": len(batch)},
                )
        self.metrics.observe("batch", elapsed)
        self.metrics.count("batches")
        self.metrics.count("batch_requests", len(batch))
        self._record_cache_movement(COUNTERS.delta(before))
        for (_, entry), result in zip(batch, results):
            entry.future.set_result(result)

    def _record_cache_movement(self, delta: Counters) -> None:
        """One batch's cache-counter movement, as time-series counters
        (``cache_schedule_hits``-style names)."""
        self.metrics.count_many({
            f"cache_{name}": value
            for name, value in delta.as_dict(CACHE).items()
        })

    def _flush_spans(self) -> None:
        """Move finished trace spans (pool workers' included — they
        arrive with each chunk) into the metrics recorder: one lock
        acquisition, cheap enough for every dispatch-loop pass."""
        spans = trace_context.drain_spans()
        if spans:
            self.metrics.record_spans(spans)

    # ------------------------------------------------------------------
    # routed experiment-engine cells (``repro sweep --connect``)
    def evaluate_cells(self, cell_documents: list) -> tuple[list, dict]:
        """Evaluate a batch of experiment-engine cells (wire mappings —
        see :func:`repro.eval.engine.cell_to_wire`) against this
        daemon's warm store/memos.

        Returns ``(results, cache)``: one deterministic cell-data dict
        per input cell, **in input order**, plus the batch's
        :data:`repro.telemetry.COUNTERS` movement (pool workers'
        included).  The data dicts are exactly what a local
        :func:`repro.eval.engine.evaluate_cell` produces, so a sweep
        routed through a cluster is byte-identical to a local one.  One cell batch runs at a time (cell evaluation
        shares the process-wide memos).
        """
        from repro.eval.engine import (
            cell_from_wire,
            routed_through,
            run_cells,
        )

        cells = [cell_from_wire(document) for document in cell_documents]
        with self._lock:
            if self._closed:
                raise ServiceClosed("compile service is shut down")
            self.metrics.count("cells", len(cells))
            self.metrics.count("cell_batches")
        started = time.perf_counter()
        context = (
            sched_store.using(self.pipeline.cache)
            if self.pipeline.cache is not None
            else contextlib.nullcontext()
        )
        # routed_through(None): this is the shard end of the routing —
        # cells must evaluate HERE even when this process also holds a
        # ClusterClient context (in-process daemons in tests)
        with self._cells_lock, context, routed_through(None):
            run = run_cells(cells, jobs=self.jobs)
        if trace_context.current() is not None:
            trace_context.record_span(
                "service.cells", "service",
                (time.perf_counter() - started) * 1000.0,
                attrs={"cells": len(cells)},
            )
        self.metrics.observe("cells_batch", time.perf_counter() - started)
        self._record_cache_movement(run.cache)
        by_cell = {result.cell: result.data for result in run.results}
        return [by_cell[cell] for cell in cells], run.cache.as_dict()

    # ------------------------------------------------------------------
    # telemetry
    def healthz(self) -> dict:
        """Liveness document for ``/healthz`` (volatile fields are fine
        here — health is operational, never byte-compared)."""
        with self._lock:
            queued = len(self._queue)
            inflight = len(self._inflight)
        if self._closed:
            status = "closed"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        return {
            "schema": HEALTH_SCHEMA,
            "status": status,
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.jobs,
            "queued": queued,
            "inflight": inflight,
        }

    def stats(self) -> dict:
        """The ``/stats`` document: service counters, cache/work counter
        movement since the service started (wherever the work ran, with
        the pool workers' share broken out), store/pool telemetry and
        the metrics digest."""
        store = self.pipeline.cache
        if store is None:
            store = sched_store.active_store()
        recorded = self.metrics.counter_snapshot()
        recorded["compiled"] = recorded.get("batch_requests", 0)
        counters = {
            name: recorded.get(name, 0)
            for name in (
                "requests", "coalesced", "batches", "compiled", "errors",
                "cells", "cell_batches", "shed", "timeouts",
            )
        }
        with self._lock:
            counters["max_queue"] = self.max_queue
            counters["queued"] = len(self._queue)
            counters["inflight"] = len(self._inflight)
        moved = COUNTERS.delta(self._counters_base)
        cache = moved.as_dict(CACHE)
        workers = {"processes": 0, "cache": {}, "work": {}}
        if self.jobs > 1:
            share = worker_pool_mod.WORKER_COUNTERS.delta(self._workers_base)
            workers = {
                "processes": len(worker_pool_mod.WORKER_PIDS),
                "cache": share.as_dict(CACHE),
                "work": share.as_dict(WORK),
            }
        self._flush_spans()
        self.metrics.maybe_flush()
        return {
            "schema": STATS_SCHEMA,
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.jobs,
            "service": counters,
            "cache": cache,
            "workers": workers,
            # equal to ``cache``, which now counts the workers' work too
            "cache_total": dict(cache),
            "work": moved.as_dict(WORK),
            "store": store.stats() if store is not None else None,
            "pool": worker_pool_mod.pool_stats(),
            "metrics": self.metrics.summary(),
        }

    def prometheus(self) -> str:
        """The ``/metrics`` exposition document (text format 0.0.4):
        the recorder's lifetime counters and latency histograms, the
        trace spans lost so far (by the recorder's bounded span buffer
        or the trace context's), plus a few instantaneous service
        gauges."""
        counters = self.metrics.counter_snapshot()
        counters["trace_spans_dropped"] = (
            self.metrics.summary()["spans"]["dropped"]
            + trace_context.dropped_count()
        )
        with self._lock:
            gauges = {
                "queued": float(len(self._queue)),
                "inflight": float(len(self._inflight)),
                "jobs": float(self.jobs),
            }
        gauges["uptime_seconds"] = time.time() - self.started_at
        return render_prometheus(
            counters,
            gauges,
            self.metrics.histogram_snapshot(),
        )
