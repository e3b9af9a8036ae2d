"""Layer spans recorded from outside the program.

:func:`install` replaces public functions and methods of each layer
with wrappers that record one span per call: ``[name, start, end,
parent, tag]``, kept in memory and written out by the caller when the
run ends.  A function is replaced in every loaded ``repro`` module that
bound it by name (``from x import f``), so callers find the wrapper
wherever they look the name up; methods are replaced on their class.

:func:`summarize` turns the spans into per-layer self times (a span's
duration minus its children's) and counts.  The unattributed time is
the root spans' wall minus the self time of every span under them that
feeds a layer metric: the root's own time, and the own time of any
wrapper that feeds no metric (``eval.cell``, ``verify``), which is
where the time of a seam the wrappers missed lands.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

#: span name → the layer metric its self time adds to
SELF_TIME_METRIC = {
    "api.compile": "api.self_s",
    "core.spill": "core.self_s",
    "core.increase": "core.self_s",
    "sched.memo": "sched.self_s",
    "sched.search": "sched.self_s",
    "sched.try_at": "sched.self_s",
    "sched.attempt": "sched.self_s",
    "sched.mii": "sched.mii_self_s",
    "lifetimes.requirements": "lifetimes.self_s",
    "lifetimes.alloc": "lifetimes.alloc_self_s",
    "graph.index_build": "graph.index_self_s",
    "cluster.route": "cluster.self_s",
    "client.wire": "client.wire_s",
}

#: span name → the layer metric its whole duration adds to
TOTAL_TIME_METRIC = {
    "graph.parse": "graph.parse_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
}

ROOT = "bench.root"


class Recorder:
    """In-memory span list shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.results: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, ""])
        stack.append(index)
        return index

    def close(self, index: int, tag: str = "") -> None:
        self._stack().pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = tag

    def wrap(self, name: str, fn, classify=None):
        """*fn* recording a span *name*; ``classify(result, error)``
        may return a tag string for the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            tag = ""
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                if classify is not None:
                    tag = classify(None, error)
                raise
            else:
                if classify is not None:
                    tag = classify(result, None)
                return result
            finally:
                self.close(index, tag)

        return wrapper


# ----------------------------------------------------------------------
# installation
def _rebind_everywhere(original, replacement) -> int:
    """Point every ``repro`` module global bound to *original* at
    *replacement*; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                changed += 1
    return changed


def _failed_search(result, error):
    return "fail" if error is not None else ""


def _store_lookup(result, error):
    return "hit" if result is not None else "miss"


def install(recorder: Recorder) -> dict:
    """Wrap every layer boundary the per-layer metrics need, and keep
    the counters of every ``CompilationResult`` that ``compile_loop``
    returns.  Returns ``{span name: bindings replaced}`` so a missed
    seam shows up in the run record."""
    import repro.api
    import repro.core.driver
    import repro.core.increase_ii
    import repro.eval.engine
    import repro.graph.builder
    import repro.graph.index
    import repro.lifetimes.allocator
    import repro.lifetimes.requirements
    import repro.sched.base
    import repro.sched.cache
    import repro.sched.mii
    import repro.sched.registry
    import repro.sched.store
    import repro.verify

    installed: dict[str, int] = {}

    def function(module, attr: str, name: str, classify=None) -> None:
        original = getattr(module, attr)
        installed[name] = _rebind_everywhere(
            original, recorder.wrap(name, original, classify)
        )

    def method(cls, attr: str, name: str, classify=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(name, raw.__func__, classify))
        else:
            wrapped = recorder.wrap(name, raw, classify)
        setattr(cls, attr, wrapped)
        installed[name] = installed.get(name, 0) + 1

    def compile_classify(result, error):
        if result is not None:
            recorder.results.append(_result_counters(result))
        return ""

    function(repro.api, "compile_loop", "api.compile", compile_classify)
    function(repro.core.driver, "schedule_with_spilling", "core.spill")
    function(repro.core.increase_ii, "schedule_increasing_ii",
             "core.increase")
    function(repro.sched.mii, "compute_mii", "sched.mii")
    function(repro.lifetimes.requirements, "register_requirements",
             "lifetimes.requirements")
    function(repro.lifetimes.allocator, "allocate_arrays", "lifetimes.alloc")
    function(repro.graph.builder, "ddg_from_source", "graph.parse")
    function(repro.eval.engine, "evaluate_cell", "eval.cell")
    function(repro.verify, "verify_result", "verify")
    method(repro.sched.cache.ScheduleMemo, "schedule", "sched.memo")
    method(repro.sched.base.ModuloScheduler, "schedule", "sched.search",
           _failed_search)
    method(repro.sched.base.ModuloScheduler, "try_schedule_at",
           "sched.try_at")
    # the per-II attempt of every registered scheduler class that
    # defines its own (Swing inherits HRMS's)
    seen = set()
    for name in repro.sched.registry.scheduler_names():
        cls = repro.sched.registry.get_scheduler_class(name)
        for klass in cls.__mro__:
            if "_attempt" in klass.__dict__ and klass not in seen:
                if getattr(klass.__dict__["_attempt"],
                           "__isabstractmethod__", False):
                    continue
                seen.add(klass)
                method(klass, "_attempt", "sched.attempt")
    method(repro.graph.index.DDGIndex, "build", "graph.index_build")
    method(repro.sched.store.ScheduleStore, "get", "store.get",
           _store_lookup)
    method(repro.sched.store.ScheduleStore, "put", "store.put")
    return installed


def install_client(recorder: Recorder) -> dict:
    """Wrappers for the client side of a routed compile: the cluster's
    routing call and the line client's request/response round trip."""
    import repro.client
    import repro.cluster.client

    repro.cluster.client.ClusterClient.compile_request = recorder.wrap(
        "cluster.route",
        repro.cluster.client.ClusterClient.compile_request,
    )
    repro.client._LineClient._call = recorder.wrap(
        "client.wire", repro.client._LineClient._call
    )
    return {"cluster.route": 1, "client.wire": 1}


def _result_counters(result) -> dict:
    rounds = len(result.trace)
    added = 0
    if result.trace and "memory_ops" in result.trace[0]:
        added = result.memory_ops - result.trace[0]["memory_ops"]
    return {
        "strategy": result.strategy,
        "attempts": result.attempts,
        "rounds": rounds if result.strategy == "spill" else 0,
        "spilled": len(result.spilled),
        "mem_ops_added": added,
    }


# ----------------------------------------------------------------------
# summaries
def summarize(spans: list[list]) -> dict:
    """Self time per layer metric, span counts, and the root spans'
    wall against the part of it the layer metrics account for."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    under_root = _inside(spans, ROOT)
    self_time: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    tags: dict[str, int] = defaultdict(int)
    root_wall = attributed = 0.0
    for index, (name, start, end, parent, tag) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        counts[name] += 1
        total[name] += duration
        if tag:
            tags[f"{name}:{tag}"] += 1
        if name == ROOT:
            root_wall += duration
        if name in SELF_TIME_METRIC:
            self_time[SELF_TIME_METRIC[name]] += own
        if under_root[index] and (name in SELF_TIME_METRIC
                                  or name in TOTAL_TIME_METRIC):
            attributed += own
    attempts_in_compiles = 0
    inside_compile = _inside(spans, "api.compile")
    for index, span in enumerate(spans):
        if span[0] == "sched.attempt" and inside_compile[index]:
            attempts_in_compiles += 1
    return {
        "self_s": dict(self_time),
        "total_s": dict(total),
        "counts": dict(counts),
        "tags": dict(tags),
        "root_wall_s": root_wall,
        "attributed_s": attributed,
        "attempts_in_compiles": attempts_in_compiles,
    }


def _inside(spans: list[list], ancestor: str) -> list[bool]:
    """Per span: does it have an *ancestor*-named span above it?"""
    flags = [False] * len(spans)
    for index, (name, start, end, parent, tag) in enumerate(spans):
        if parent >= 0:
            flags[index] = flags[parent] or spans[parent][0] == ancestor
    return flags
