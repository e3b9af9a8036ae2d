"""Client for the ``repro serve`` compilation daemon.

:func:`connect` returns a client whose :meth:`~CompileClient.compile`
mirrors :func:`repro.api.compile_loop`'s signature and returns the same
:class:`~repro.api.CompilationResult` — except the compilation runs in
the daemon's warm pipeline (shared pool, shared store, warm memos), and
the result is the deterministic *service shape* (volatile telemetry
zeroed, heavyweight artifacts stripped), byte-identical to an
in-process :meth:`repro.api.Pipeline.compile_many` result::

    from repro.client import connect

    with connect("http://127.0.0.1:8923") as client:
        result = client.compile("x[i] = y[i]*a + y[i-3]", registers=16)
        print(result.render())

Address forms: ``http://host:port`` (the HTTP transport),
``tcp://host:port`` or bare ``host:port`` (the TCP line protocol — the
cluster transport), or a filesystem path (the unix-socket line
protocol).  ``connect()`` with no address reads ``$REPRO_SERVER``; when
no server is configured or reachable it falls back — unless
``fallback=False`` — to a :class:`LocalClient` that compiles in-process
through a private :class:`~repro.api.Pipeline`, so library code can
*always* call ``connect().compile(...)`` and only gain speed when a
daemon is up.  Transient connection failures are retried with bounded
exponential backoff before the verdict (``retries=0`` turns that off).

Daemons started with a shared token (``repro serve --token``) need the
same token here: pass ``token=`` or set ``$REPRO_TOKEN``.  Wire clients
attach it to every request (line protocol: a ``"token"`` field; HTTP:
``Authorization: Bearer``).
"""

from __future__ import annotations

import json
import os
import socket
import time
import urllib.error
import urllib.request

from repro.api import CompilationResult, Pipeline
from repro.faults import plan as faults
from repro.trace import context as trace_context

#: Environment variable naming the default server address.
ENV_SERVER = "REPRO_SERVER"

#: Environment variable holding the shared authentication token.
ENV_TOKEN = "REPRO_TOKEN"

_UNSET = object()


class ClientError(RuntimeError):
    """A server-side failure or protocol violation."""


class ServerTimeout(ClientError, TimeoutError):
    """The server reported (or the client enforced) a missed
    ``deadline_ms`` — the typed ``timeout`` error kind."""


class ServerBusy(ClientError):
    """The server shed the request from a full queue — the typed
    ``busy`` error kind.  Transient: back off or try another shard."""


class ServerShuttingDown(ClientError):
    """The server is draining for shutdown — the typed
    ``shutting_down`` error kind.  Transient: try another shard."""


class RetriesExhausted(ClientError, OSError):
    """:func:`connect` gave up: every attempt failed transiently and
    the retry budget (or overall *deadline*) ran out.  Deliberately
    **not** transient itself — retrying the retry loop is how retry
    storms start — but :class:`repro.cluster.ClusterClient` treats it
    as fail-over-eligible (the shard is down; a sibling may not be).
    Also an :class:`OSError`, because callers of
    ``connect(fallback=False)`` historically caught the raw connection
    error."""


#: Error kinds a typed protocol response may carry → client exception.
_KIND_ERRORS = {
    "timeout": ServerTimeout,
    "busy": ServerBusy,
    "shutting_down": ServerShuttingDown,
}

#: ClientError message prefixes that indicate a transient transport
#: failure (the server died, restarted, or never answered) rather than
#: a deterministic rejection.
_TRANSIENT_PREFIXES = (
    "server unreachable",
    "server closed the connection",
    "truncated response",
)


def raise_for_kind(message: str, kind) -> None:
    """Raise the typed client error for a protocol ``kind`` tag, or the
    plain :class:`ClientError` when the kind is absent/unknown."""
    raise _KIND_ERRORS.get(kind, ClientError)(message)


def is_transient_error(error: BaseException) -> bool:
    """Whether *error* is worth a reconnection retry: OS-level
    connection failures, the unreachable/closed/truncated transport
    wrappers, and typed busy/shutting-down rejections (the work was
    never accepted).  Auth rejections, missed deadlines, exhausted
    retry budgets and server-side compile errors are deterministic —
    retrying them only hides misconfiguration."""
    if isinstance(error, (ServerBusy, ServerShuttingDown)):
        return True
    if isinstance(error, (ServerTimeout, RetriesExhausted)):
        return False
    if isinstance(error, OSError):
        return True
    return isinstance(error, ClientError) and str(error).startswith(
        _TRANSIENT_PREFIXES
    )


def _request_mapping(
    source, name, machine, scheduler, strategy, registers, options
) -> dict:
    """The compile-request wire mapping: only explicitly-given fields
    are sent, so the server's pipeline defaults fill the rest (they are
    ``compile_loop``'s defaults)."""
    if not isinstance(source, str):
        raise ValueError(
            "remote compilation needs mini-language source text"
            f" (got {type(source).__name__}); DDG inputs only work"
            " with the in-process LocalClient"
        )
    request: dict = {"loop": source, "name": name}
    if machine is not None:
        request["machine"] = str(machine)
    if scheduler is not None:
        request["scheduler"] = str(scheduler)
    if strategy is not None:
        request["strategy"] = str(strategy)
    if registers is not _UNSET:
        request["registers"] = registers
    if options is not None:
        request["options"] = dict(options)
    return request


#: Request fields :func:`connect` accepts as client-level defaults.
_DEFAULT_KEYS = frozenset(
    {"machine", "scheduler", "strategy", "registers", "options"}
)


class _BaseClient:
    """The shared client surface (context manager + call signatures).

    ``defaults`` holds client-level request defaults (the
    :func:`connect` ``pipeline_defaults``): they are merged into every
    outgoing request mapping, so the *request* is identical whether a
    daemon or the local fallback serves it — availability changes
    latency, never the compilation parameters.
    """

    transport = "base"

    def __init__(self) -> None:
        self.defaults: dict = {}

    def _apply_defaults(self, request: dict) -> dict:
        if not self.defaults:
            return dict(request)
        merged = dict(request)
        for key, value in self.defaults.items():
            merged.setdefault(key, value)
        return merged

    def compile(
        self,
        source,
        name: str = "loop",
        machine=None,
        scheduler=None,
        strategy: str | None = None,
        registers=_UNSET,
        options: dict | None = None,
    ) -> CompilationResult:
        """Compile one loop (the :func:`repro.api.compile_loop`
        signature; omitted arguments use the server's defaults)."""
        request = _request_mapping(
            source, name, machine, scheduler, strategy, registers, options
        )
        return self.compile_request(request)

    def compile_request(
        self, request: dict, deadline_ms: float | None = None
    ) -> CompilationResult:
        """Compile one request mapping.  *deadline_ms* (wire clients
        only) bounds the server-side queue wait and the response wait;
        a miss raises :class:`ServerTimeout`."""
        raise NotImplementedError

    def compile_many(
        self, requests, deadline_ms: float | None = None
    ) -> list[CompilationResult]:
        raise NotImplementedError

    def evaluate_cells(self, cell_documents) -> tuple[list, dict]:
        """Evaluate experiment-engine cells (wire mappings from
        :func:`repro.eval.engine.cell_to_wire`) on the daemon; returns
        the per-cell data dicts in request order plus the batch's cache
        counter movement."""
        raise NotImplementedError

    def healthz(self) -> dict:
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Ask the daemon to stop (no-op for the local fallback)."""

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _LineClient(_BaseClient):
    """Shared line-protocol client: one connected stream socket, one
    request line out, one response line back.  Subclasses provide the
    connected socket (unix domain or TCP)."""

    def __init__(self, sock: socket.socket,
                 token: str | None = None) -> None:
        super().__init__()
        self.token = token
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0

    def _call(
        self, op: str, deadline_ms: float | None = None, **fields
    ) -> dict:
        # when tracing is on (and the op is traceable) this opens a
        # client.<op> span and propagates its context on the line's
        # "trace" envelope field; otherwise wire is None and the
        # request bytes are exactly the untraced ones
        with trace_context.client_scope(op) as wire:
            if wire is not None:
                fields = dict(fields, trace=wire)
            return self._call_inner(op, deadline_ms, **fields)

    def _call_inner(
        self, op: str, deadline_ms: float | None = None, **fields
    ) -> dict:
        self._next_id += 1
        message = {"op": op, "id": self._next_id, **fields}
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        if self.token is not None:
            message["token"] = self.token
        if faults.enabled() and faults.fire("cluster.auth_flap") is not None:
            message["token"] = "<fault-injected-auth-flap>"
        restore_timeout = _UNSET
        if deadline_ms is not None:
            # enforce the deadline client-side too: a server stalled
            # mid-response must not hold us past it
            restore_timeout = self._sock.gettimeout()
            self._sock.settimeout(deadline_ms / 1000.0)
        try:
            self._file.write(
                (json.dumps(message, sort_keys=True) + "\n").encode()
            )
            self._file.flush()
            line = self._file.readline()
        except (socket.timeout, TimeoutError):
            # the stream is desynced (the response may still arrive
            # later) — this connection is done
            self.close()
            raise ServerTimeout(
                f"deadline of {deadline_ms:g} ms exceeded waiting for"
                " server response"
            ) from None
        finally:
            if restore_timeout is not _UNSET:
                import contextlib

                with contextlib.suppress(OSError):
                    self._sock.settimeout(restore_timeout)
        if not line:
            raise ClientError("server closed the connection")
        if not line.endswith(b"\n"):
            # readline returned a partial line before EOF: the server
            # died mid-write
            raise ClientError("truncated response from server")
        try:
            response = json.loads(line)
        except ValueError:
            raise ClientError("truncated response from server") from None
        if response.get("id") != self._next_id:
            raise ClientError(
                f"response id {response.get('id')!r} does not match"
                f" request id {self._next_id}"
            )
        if not response.get("ok"):
            raise_for_kind(
                response.get("error", "unknown server error"),
                response.get("kind"),
            )
        return response

    def compile_request(
        self, request: dict, deadline_ms: float | None = None
    ) -> CompilationResult:
        response = self._call(
            "compile",
            deadline_ms=deadline_ms,
            request=self._apply_defaults(request),
        )
        return CompilationResult.from_json(response["result"])

    def compile_many(
        self, requests, deadline_ms: float | None = None
    ) -> list[CompilationResult]:
        response = self._call(
            "compile_many",
            deadline_ms=deadline_ms,
            requests=[self._apply_defaults(r) for r in requests],
        )
        return [
            CompilationResult.from_json(document)
            for document in response["results"]
        ]

    def evaluate_cells(self, cell_documents) -> tuple[list, dict]:
        response = self._call("cells", cells=list(cell_documents))
        return response["results"], response["cache"]

    def healthz(self) -> dict:
        return self._call("health")["health"]

    def stats(self) -> dict:
        return self._call("stats")["stats"]

    def shutdown(self) -> None:
        self._call("shutdown")

    def close(self) -> None:
        import contextlib

        with contextlib.suppress(OSError):
            self._file.close()
        with contextlib.suppress(OSError):
            self._sock.close()


class SocketClient(_LineClient):
    """Line-protocol client over a unix domain socket."""

    transport = "socket"

    def __init__(self, path: str, timeout: float = 60.0,
                 token: str | None = None) -> None:
        self.path = path
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(path)
        except OSError:
            sock.close()
            raise
        super().__init__(sock, token=token)


class TCPClient(_LineClient):
    """Line-protocol client over TCP — the cluster transport."""

    transport = "tcp"

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 token: str | None = None) -> None:
        self.host = host
        self.port = int(port)
        sock = socket.create_connection((host, self.port), timeout=timeout)
        super().__init__(sock, token=token)

    @property
    def address(self) -> str:
        return f"tcp://{self.host}:{self.port}"


class HTTPClient(_BaseClient):
    """Client for the HTTP transport (standard library only)."""

    transport = "http"

    def __init__(self, base_url: str, timeout: float = 60.0,
                 token: str | None = None) -> None:
        super().__init__()
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token

    def _call(
        self, path: str, payload=None, deadline_ms: float | None = None
    ) -> dict:
        with trace_context.client_scope(path.lstrip("/")) as wire:
            return self._call_inner(
                path, payload, deadline_ms=deadline_ms, trace_wire=wire
            )

    def _call_inner(
        self, path: str, payload=None, deadline_ms: float | None = None,
        trace_wire: dict | None = None,
    ) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode()
            headers["Content-Type"] = "application/json"
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if trace_wire is not None:
            headers["X-Repro-Trace"] = json.dumps(
                trace_wire, sort_keys=True
            )
        timeout = self.timeout
        if deadline_ms is not None:
            headers["X-Repro-Deadline-Ms"] = f"{deadline_ms:g}"
            timeout = min(timeout, deadline_ms / 1000.0)
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as r:
                return json.loads(r.read())
        except urllib.error.HTTPError as error:
            kind = None
            try:
                document = json.loads(error.read())
                message = document.get("error", str(error))
                kind = document.get("kind")
            except Exception:
                message = str(error)
            raise_for_kind(message, kind)
        except urllib.error.URLError as error:
            if deadline_ms is not None and isinstance(
                error.reason, (socket.timeout, TimeoutError)
            ):
                raise ServerTimeout(
                    f"deadline of {deadline_ms:g} ms exceeded waiting for"
                    " server response"
                ) from None
            raise ClientError(f"server unreachable: {error.reason}") from error

    def compile_request(
        self, request: dict, deadline_ms: float | None = None
    ) -> CompilationResult:
        return CompilationResult.from_json(
            self._call(
                "/compile",
                self._apply_defaults(request),
                deadline_ms=deadline_ms,
            )
        )

    def compile_many(
        self, requests, deadline_ms: float | None = None
    ) -> list[CompilationResult]:
        response = self._call(
            "/compile_many",
            [self._apply_defaults(r) for r in requests],
            deadline_ms=deadline_ms,
        )
        return [
            CompilationResult.from_json(document)
            for document in response["results"]
        ]

    def evaluate_cells(self, cell_documents) -> tuple[list, dict]:
        response = self._call("/cells", list(cell_documents))
        return response["results"], response["cache"]

    def healthz(self) -> dict:
        return self._call("/healthz")

    def stats(self) -> dict:
        return self._call("/stats")

    def shutdown(self) -> None:
        self._call("/shutdown", payload={})


class LocalClient(_BaseClient):
    """The in-process fallback: the same surface, no daemon.

    Results go through :meth:`Pipeline.compile_many`, so they are the
    identical service shape a daemon would return — switching between
    local and remote changes latency, never bytes.
    """

    transport = "local"

    def __init__(self, pipeline: Pipeline | None = None) -> None:
        super().__init__()
        self.pipeline = pipeline if pipeline is not None else Pipeline()

    def compile(
        self,
        source,
        name: str = "loop",
        machine=None,
        scheduler=None,
        strategy: str | None = None,
        registers=_UNSET,
        options: dict | None = None,
    ) -> CompilationResult:
        # unlike the wire clients, DDG inputs are fine in-process
        request: dict = {"loop": source, "name": name}
        if machine is not None:
            request["machine"] = machine
        if scheduler is not None:
            request["scheduler"] = scheduler
        if strategy is not None:
            request["strategy"] = strategy
        if registers is not _UNSET:
            request["registers"] = registers
        if options is not None:
            request["options"] = dict(options)
        return self.compile_request(request)

    def compile_request(
        self, request: dict, deadline_ms: float | None = None
    ) -> CompilationResult:
        # deadlines bound queue/transport waits; in-process compilation
        # has neither, so the parameter is accepted and ignored
        return self.pipeline.compile_many([self._apply_defaults(request)])[0]

    def compile_many(
        self, requests, deadline_ms: float | None = None
    ) -> list[CompilationResult]:
        return self.pipeline.compile_many(
            [self._apply_defaults(r) for r in requests]
        )

    def healthz(self) -> dict:
        return {"status": "ok", "transport": "local"}

    def stats(self) -> dict:
        from repro.telemetry import CACHE, COUNTERS

        return {"transport": "local", "cache": COUNTERS.as_dict(CACHE)}


def client_for(address: str, timeout: float = 60.0,
               token: str | None = None) -> _BaseClient:
    """The wire client for one address: ``http(s)://...`` → HTTP,
    ``tcp://host:port`` or bare ``host:port`` → TCP line protocol,
    anything else is a unix-socket path."""
    if address.startswith(("http://", "https://")):
        return HTTPClient(address, timeout=timeout, token=token)
    tcp = None
    if address.startswith("tcp://"):
        tcp = address[len("tcp://"):]
    elif ":" in address and "/" not in address:
        tcp = address  # bare host:port — a path would carry a slash
    if tcp is not None:
        host, _, port_text = tcp.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"bad TCP address {address!r}") from None
        return TCPClient(host or "127.0.0.1", port,
                         timeout=timeout, token=token)
    return SocketClient(address, timeout=timeout, token=token)


def connect(
    address: str | None = None,
    fallback: bool = True,
    timeout: float = 60.0,
    retries: int = 3,
    backoff: float = 0.05,
    token: str | None = None,
    deadline: float | None = None,
    **pipeline_defaults,
) -> _BaseClient:
    """Connect to a compilation daemon, or fall back to in-process.

    *address* defaults to ``$REPRO_SERVER``; *token* defaults to
    ``$REPRO_TOKEN``.  Reachability is verified with a health probe.
    Transient failures (connection refused, server unreachable — a
    daemon mid-restart) are retried up to *retries* times with bounded
    exponential backoff (*backoff*, doubling per attempt, capped at
    2s); ``retries=0`` is the escape hatch for fail-fast probing.
    *deadline* additionally bounds the **total** wall time the retry
    loop may consume (seconds): however many retries remain, no sleep
    starts past the deadline.  Deterministic failures — an auth
    rejection, a protocol error — are never retried.  After the
    verdict, an unreachable (or unconfigured) server returns a
    :class:`LocalClient` unless ``fallback=False``; then a transient
    exhaustion raises :class:`RetriesExhausted` (wrapping the last
    error), a deterministic failure propagates as itself, and a missing
    address raises :class:`ValueError`.

    *pipeline_defaults* (``machine``/``scheduler``/``strategy``/
    ``registers``/``options``) become client-level request defaults,
    merged into every outgoing request **whichever client is returned**
    — a remote daemon and the local fallback see the identical request,
    so server availability never changes what gets compiled.  When a
    daemon may serve them, the values must be the wire forms (spec
    strings, not machine/scheduler instances).
    """
    unknown = sorted(set(pipeline_defaults) - _DEFAULT_KEYS)
    if unknown:
        raise ValueError(
            f"unknown connect() default(s): {', '.join(map(repr, unknown))}"
            f" (accepted: {', '.join(sorted(_DEFAULT_KEYS))})"
        )
    address = address if address is not None else os.environ.get(ENV_SERVER)
    token = token if token is not None else os.environ.get(ENV_TOKEN)
    client: _BaseClient | None = None
    if address:
        started = time.monotonic()
        limit = started + deadline if deadline is not None else None
        attempt = 0
        while True:
            try:
                client = client_for(address, timeout=timeout, token=token)
                client.healthz()
                break
            except (OSError, ClientError, ValueError) as error:
                if client is not None:
                    client.close()
                    client = None
                transient = is_transient_error(error)
                if transient and attempt < retries:
                    pause = min(backoff * (2 ** attempt), 2.0)
                    if limit is None or time.monotonic() + pause < limit:
                        attempt += 1
                        time.sleep(pause)
                        continue
                    # the overall deadline would be blown mid-sleep:
                    # this is an exhaustion, not one more retry
                if not fallback:
                    if transient:
                        elapsed = time.monotonic() - started
                        raise RetriesExhausted(
                            f"retries exhausted after {attempt + 1} "
                            f"attempt(s) over {elapsed:.2f}s connecting "
                            f"to {address}: {error}"
                        ) from error
                    raise
                break
    elif not fallback:
        raise ValueError(
            f"no server address (pass one or set ${ENV_SERVER})"
        )
    if client is None:
        client = LocalClient()
    client.defaults = dict(pipeline_defaults)
    return client
