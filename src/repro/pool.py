"""The shared persistent worker pool.

Both fan-out surfaces — the experiment engine's cell evaluation and the
:meth:`repro.api.Pipeline.compile_many` batch service — need the same
thing: a ``ProcessPoolExecutor`` that outlives one batch (so the
workers' in-memory memos stay warm from call to call) and whose workers
are initialized with the parent's persistent
:mod:`repro.sched.store`.  This module owns that pool so the mechanism
exists once.

The pool is keyed by ``(jobs, active store root)``: asking for a
different width *or* changing the active store retires the old pool —
stale workers must never keep writing into a store the parent has moved
away from.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.faults import plan as faults
from repro.sched import store as sched_store
from repro.telemetry import COUNTERS, Counters
from repro.trace import context as trace_context

_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple | None = None

#: Fault *generation* of the current pool.  A respawn after a worker
#: crash bumps it, and fault rules gated with ``gen=0`` stop firing in
#: the replacement workers — the retried work cannot be re-killed.
_GENERATION = 0

#: The counter movement the pool workers sent back with their chunks
#: (already merged into :data:`repro.telemetry.COUNTERS` as well): the
#: share of this process's counted work that ran in workers.
WORKER_COUNTERS = Counters()

#: Pids of the current pool's workers that have returned a chunk.
WORKER_PIDS: set[int] = set()


def _init_worker(token: str | None, generation: int) -> None:
    """Pool-worker initializer: inherit the parent's persistent store
    and enter fault-worker context (re-reading ``REPRO_FAULTS`` so each
    worker gets fresh, deterministic per-process fault counters).
    Spans and a span flush target inherited from a forked parent belong
    to the parent, so the worker drops them."""
    sched_store.worker_initializer(token)
    faults.set_worker_context(generation)
    faults.reload_from_env()
    trace_context.set_flush_target(None)
    trace_context.drain_spans()


def _ensure_pool(jobs: int, token: str | None) -> ProcessPoolExecutor:
    global _POOL, _POOL_KEY
    key = (jobs, token)
    if _POOL is None or _POOL_KEY != key:
        shutdown_pool()
        _POOL = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(token, _GENERATION),
        )
        _POOL_KEY = key
    return _POOL


def worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent pool for *jobs* workers, created (or re-created)
    on demand.  Workers inherit the currently active persistent store
    through :func:`repro.sched.store.worker_initializer`."""
    return _ensure_pool(jobs, sched_store.store_token())


def _run_chunk(fn, chunk: list) -> tuple:
    """Runs inside one pool worker: apply *fn* to one chunk of items.
    Returns ``(results, counter delta, spans, pid)`` — the chunk's
    counter movement and the trace spans it finished travel back with
    its results, so the parent never has to probe its workers."""
    before = COUNTERS.snapshot()
    results = [fn(item) for item in chunk]
    return (
        results,
        COUNTERS.delta(before),
        trace_context.drain_spans(),
        os.getpid(),
    )


def imap_resilient(fn, items, jobs: int, chunksize: int = 1):
    """Map *fn* over *items* on the persistent pool, in order, surviving
    one pool crash.

    Work is submitted as explicit chunk futures (unlike
    ``Executor.map``, whose iterator cannot tell which inputs a dead
    worker took with it).  When a worker dies — OOM kill, SIGKILL, a
    fault-injected ``pool.kill_*`` seam — every unfinished chunk fails
    with :class:`BrokenProcessPool`; the pool is respawned once (bumping
    the fault generation so ``gen=0`` kill rules stay quiet) and exactly
    the lost chunks are retried.  A second crash propagates: one retry,
    then the failure is real.  Ordinary task exceptions are *not*
    retried — determinism bugs must not be masked by resubmission.

    As each chunk is consumed, its counter delta is merged into this
    process's :data:`repro.telemetry.COUNTERS` and its spans join this
    process's trace buffer.

    Returns an iterator over results in input order; submission happens
    eagerly (before the first ``next()``), so the active store captured
    here is the one a surrounding ``using(...)`` block holds.
    """
    global _GENERATION
    token = sched_store.store_token()
    sequence = list(items)
    chunks = [
        sequence[start : start + chunksize]
        for start in range(0, len(sequence), chunksize)
    ]
    pool = _ensure_pool(jobs, token)
    futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]

    def _drain():
        global _GENERATION
        retried = False
        for index in range(len(chunks)):
            try:
                outcome = futures[index].result()
            except BrokenProcessPool:
                if retried:
                    raise
                retried = True
                COUNTERS.worker_restarts += 1
                _GENERATION += 1
                shutdown_pool()
                replacement = _ensure_pool(jobs, token)
                lost = 0
                for later in range(index, len(chunks)):
                    future = futures[later]
                    if future.done() and future.exception() is None:
                        continue
                    futures[later] = replacement.submit(
                        _run_chunk, fn, chunks[later]
                    )
                    lost += len(chunks[later])
                COUNTERS.tasks_retried += lost
                outcome = futures[index].result()
            results, moved, spans, pid = outcome
            COUNTERS.merge(moved)
            WORKER_COUNTERS.merge(moved)
            WORKER_PIDS.add(pid)
            if spans:
                trace_context.add_spans(spans)
            yield from results

    return _drain()


def warm_pool(jobs: int) -> None:
    """Spin the persistent pool up ahead of traffic (``repro serve``
    does this at startup so the first batch does not pay worker
    creation).  ``jobs <= 1`` means in-process compilation: no pool."""
    if jobs > 1:
        worker_pool(jobs)


def pool_stats() -> dict:
    """Telemetry snapshot of the persistent pool (the server's
    ``/stats`` endpoint): whether one is alive, its width, and the
    store its workers were initialized with."""
    return {
        "alive": _POOL is not None,
        "jobs": _POOL_KEY[0] if _POOL_KEY is not None else 0,
        "store": _POOL_KEY[1] if _POOL_KEY is not None else None,
        "worker_restarts": COUNTERS.worker_restarts,
        "tasks_retried": COUNTERS.tasks_retried,
    }


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (harmless if none exists)."""
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_KEY = None
        WORKER_PIDS.clear()


atexit.register(shutdown_pool)
