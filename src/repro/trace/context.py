"""Trace contexts and the process-local span buffer.

A :class:`TraceContext` is the propagated identity of one logical
request: a ``trace_id`` shared by every span the request touches, the
``span_id`` of the currently open span, the ``parent_id`` that links it
into the tree, and the fail-over ``hop`` count stamped by
:class:`repro.cluster.ClusterClient`.  Contexts travel out-of-band —
an optional ``"trace"`` envelope field on the ``repro.server/1`` line
protocol, an ``X-Repro-Trace`` header over HTTP, an internal ``trace``
request key between the service and its pool workers — and never enter
a compile result document, so traced output stays byte-identical to
untraced output.

Finished spans accumulate in one bounded process-local buffer
(:func:`record_span` / :func:`drain_spans`).  A pool worker's spans
travel back with each chunk it returns and join the parent's buffer
(:func:`add_spans`, called by :func:`repro.pool.imap_resilient`).
Daemons drain the buffer into their
:class:`repro.metrics.MetricsRecorder`.  The buffer is process-global by
design — in-process multi-service tests share it, and separate daemon
processes each own theirs.

A full buffer is written to the process's one **flush target**
(:func:`set_flush_target`: ``repro sweep --trace`` sets its span
database, a daemon its recorder).  With no target it evicts its oldest
spans instead and counts them (:func:`dropped_count`).

Tracing is **on** for a piece of code when either

* the process opted in (``REPRO_TRACE=1`` in the environment, or
  :func:`enable` — what ``repro sweep --trace`` and ``repro serve
  --trace`` do), or
* a propagated context is active on the current thread (a daemon always
  records spans for requests that arrive carrying one, whatever its own
  environment says).

Everything here is standard library only and imports nothing else from
:mod:`repro`, so the hot analysis layers can depend on it freely.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace

ENV_VAR = "REPRO_TRACE"

#: The span layers the stack records, outermost first.
LAYERS = ("client", "server", "service", "worker", "phase")

#: Bounded size of the process-local finished-span buffer; a full
#: buffer goes to the flush target, or without one its oldest spans are
#: dropped (observability must never grow without bound).
SPAN_BUFFER_CAP = 8192

_ENABLED: bool | None = None  # None → read $REPRO_TRACE on first use
_local = threading.local()
_buffer_lock = threading.Lock()
_buffer: list[dict] = []
_dropped = 0
_flush_target = None


def _new_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One request's propagated trace identity (immutable)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None
    hop: int = 0

    def child(self) -> "TraceContext":
        """A fresh span under this one (same trace, same hop)."""
        return TraceContext(
            self.trace_id, _new_id(), parent_id=self.span_id, hop=self.hop
        )

    def with_hop(self, hop: int) -> "TraceContext":
        return replace(self, hop=int(hop))

    def to_wire(self) -> dict:
        """The JSON-safe propagation mapping (what rides the protocol
        envelope / the ``X-Repro-Trace`` header)."""
        document = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.hop:
            document["hop"] = self.hop
        return document

    @classmethod
    def from_wire(cls, document) -> "TraceContext | None":
        """Rebuild a context from its wire mapping (or its JSON text —
        the HTTP header form).  Malformed input returns ``None``: a bad
        trace field must degrade to "untraced", never fail a request."""
        if isinstance(document, (str, bytes)):
            try:
                document = json.loads(document)
            except ValueError:
                return None
        if not isinstance(document, dict):
            return None
        trace_id = document.get("trace_id")
        span_id = document.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if not trace_id or not span_id:
            return None
        hop = document.get("hop", 0)
        if not isinstance(hop, int) or isinstance(hop, bool) or hop < 0:
            hop = 0
        return cls(trace_id=trace_id, span_id=span_id, hop=hop)


def new_trace() -> TraceContext:
    """Mint a root context (a fresh trace)."""
    return TraceContext(trace_id=_new_id(), span_id=_new_id())


# ----------------------------------------------------------------------
# enablement + the active context
def enable(flag: bool = True) -> None:
    """Turn tracing on (or off) for this process programmatically,
    overriding ``$REPRO_TRACE``."""
    global _ENABLED
    _ENABLED = bool(flag)


def reset() -> None:
    """Forget the programmatic switch and any buffered spans — back to
    lazy ``$REPRO_TRACE`` behaviour (test isolation helper)."""
    global _ENABLED, _dropped, _flush_target
    _ENABLED = None
    _flush_target = None
    with _buffer_lock:
        _buffer.clear()
        _dropped = 0


def tracing_enabled() -> bool:
    """Whether this *process* opted into tracing (env or
    :func:`enable`) — ignores any active propagated context."""
    global _ENABLED
    if _ENABLED is None:
        value = os.environ.get(ENV_VAR, "").strip()
        _ENABLED = bool(value) and value != "0"
    return _ENABLED


def current() -> TraceContext | None:
    """The context active on this thread, if any."""
    return getattr(_local, "context", None)


def enabled() -> bool:
    """Cheap guard for instrumented call sites: record spans when the
    process opted in *or* a propagated context is active."""
    return current() is not None or tracing_enabled()


@contextlib.contextmanager
def activate(context: TraceContext | None):
    """Make *context* the thread's active context for the block."""
    previous = getattr(_local, "context", None)
    _local.context = context
    try:
        yield context
    finally:
        _local.context = previous


# ----------------------------------------------------------------------
# the span buffer
def record_span(
    name: str,
    layer: str,
    duration_ms: float,
    context: TraceContext | None = None,
    attrs: dict | None = None,
    ts: float | None = None,
) -> dict | None:
    """Append one finished span to the process buffer.

    With *context* the span carries that context's identity (its
    ``span_id`` **is** the span's id); without one, a fresh child of the
    thread's active context is minted — and with no active context the
    span is dropped (returns ``None``): an orphan span cannot be
    attributed to any trace.
    """
    if context is None:
        parent = current()
        if parent is None:
            return None
        context = parent.child()
    span = {
        "ts": time.time() if ts is None else ts,
        "trace_id": context.trace_id,
        "span_id": context.span_id,
        "parent_id": context.parent_id,
        "name": str(name),
        "layer": str(layer),
        "dur_ms": round(float(duration_ms), 3),
        "attrs": dict(attrs) if attrs else {},
    }
    add_spans([span])
    return span


def add_spans(spans: list[dict]) -> None:
    """Append finished spans (a pool worker's, or one new span) to the
    process buffer; a full buffer goes to the flush target."""
    global _dropped
    target = full = None
    with _buffer_lock:
        _buffer.extend(spans)
        if len(_buffer) >= SPAN_BUFFER_CAP:
            target = _flush_target
            if target is not None:
                full = _buffer[:]
                _buffer.clear()
            else:
                overflow = len(_buffer) - SPAN_BUFFER_CAP
                del _buffer[:overflow]
                _dropped += overflow
    if full is not None:
        try:
            target(full)
        except Exception:  # a broken target costs spans, never work
            with _buffer_lock:
                _dropped += len(full)


def set_flush_target(target) -> None:
    """Write every full buffer to *target* (a callable taking a list of
    spans) instead of evicting; ``None`` restores drop-oldest."""
    global _flush_target
    _flush_target = target


def drain_spans() -> list[dict]:
    """Take (and clear) every buffered span."""
    with _buffer_lock:
        spans = list(_buffer)
        _buffer.clear()
    return spans


def span_count() -> int:
    with _buffer_lock:
        return len(_buffer)


def dropped_count() -> int:
    with _buffer_lock:
        return _dropped


# ----------------------------------------------------------------------
# span scopes
@contextlib.contextmanager
def span(
    name: str,
    layer: str,
    attrs: dict | None = None,
    context: TraceContext | None = None,
):
    """Open a timed span for the block and record it on exit.

    Without an explicit *context*, a child of the thread's active
    context is minted (or a fresh root when tracing is enabled but no
    context is active); the child is the active context inside the
    block, so nested spans link up.  When tracing is off and no context
    was handed in, the block runs untraced (yields ``None``).  An
    explicit *context* — a propagated wire context on the server side —
    forces recording regardless of the process switch; the span opened
    here is a **child** of it.
    """
    if context is None:
        if not enabled():
            yield None
            return
        parent = current()
        ctx = parent.child() if parent is not None else new_trace()
    else:
        ctx = context.child()
    ts = time.time()
    started = time.perf_counter()
    try:
        with activate(ctx):
            yield ctx
    finally:
        record_span(
            name,
            layer,
            (time.perf_counter() - started) * 1000.0,
            context=ctx,
            attrs=attrs,
            ts=ts,
        )


def server_scope(wire, op: str):
    """The server-side receive scope for one protocol operation:
    ``nullcontext`` when the line carried no (valid) trace field, else a
    ``server.<op>`` span under the propagated context, with the
    fail-over hop recorded — transports share this so the line protocol
    and HTTP behave identically."""
    context = TraceContext.from_wire(wire) if wire is not None else None
    if context is None:
        return contextlib.nullcontext(None)
    return span(
        f"server.{op}",
        "server",
        attrs={"op": op, "hop": context.hop},
        context=context,
    )


#: Operations whose client calls open a span and propagate the context.
TRACED_OPS = frozenset({"compile", "compile_many", "cells"})


@contextlib.contextmanager
def client_scope(op: str):
    """The client-side send scope: yields the wire mapping to attach to
    the outgoing request (``None`` → untraced, attach nothing)."""
    if op not in TRACED_OPS or not enabled():
        yield None
        return
    with span(f"client.{op}", "client", attrs={"op": op}) as ctx:
        yield ctx.to_wire()
