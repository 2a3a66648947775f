"""The asyncio HTTP/JSON gateway in front of :class:`InferenceServer`.

This is the repo's network edge: a stdlib-only (``asyncio`` streams +
hand-rolled HTTP/1.1, see :mod:`repro.gateway.protocol`) service that
turns the in-process micro-batching server into something a load
balancer can front.  One event loop accepts connections; ``/infer``
requests flow auth -> rate limit -> admission -> validate -> submit,
and the resulting :class:`concurrent.futures.Future` is awaited via
``asyncio.wrap_future`` so thousands of in-flight requests cost one
coroutine each, never a thread.

Endpoints:

========  ======  ====================================================
path      method  behaviour
========  ======  ====================================================
/infer    POST    authenticated inference; 200 / 400 / 401 / 413 /
                  429 (rate limit) / 503 (admission) / 504 (deadline)
/healthz  GET     full :meth:`InferenceServer.health` JSON (always
                  200 while the gateway is up -- liveness)
/readyz   GET     200 when ready, 503 (``not_ready``) otherwise --
                  the load-balancer admission check
/metrics  GET     Prometheus text exposition: backend ``ServerStats``
                  families + gateway HTTP counters
/drain    POST    authenticated: stop intake, wait for queued work
                  (runs in an executor; the loop stays responsive)
========  ======  ====================================================

Error mapping (the contract the acceptance tests pin): over-limit
tenants get **429** ``rate_limited``; an open pool breaker or an
over-deep queue gets **503** ``breaker_open`` / ``queue_full``; a
low-priority tenant past the soft queue watermark gets **503**
``overloaded`` (shed-before-queue); a request whose ``deadline_ms``
lapses while queued gets **504** ``deadline_exceeded``.  Every 429/503
carries a ``Retry-After`` header derived from the bucket refill or
breaker cooldown.  Every rejection increments a labelled
``sushi_gateway_rejections_total`` counter (sheds additionally land in
``sushi_shed_requests_total`` by code and priority), so ``/metrics``
tells the same story the status codes do.

Exactly-once retries: an ``Idempotency-Key`` request header scopes the
request into the per-tenant :class:`IdempotencyLedger`.  A retried or
hedged request whose original was already *accepted* (submitted to the
backend) awaits / replays the recorded outcome instead of computing
twice, and the response is marked ``X-Idempotent-Replay: true``.
Pre-admission rejections (401/429/503) are never recorded, so a
retry after a shed gets a fresh chance.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import queue as queue_module
import threading
from collections import OrderedDict
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.gateway.auth import ApiKeyAuthenticator, demo_tenants
from repro.gateway.client import GLOBAL_CLIENT_COUNTERS
from repro.gateway.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    IDEMPOTENCY_KEY_HEADER,
    REPLAY_HEADER,
    HttpRequest,
    ProtocolError,
    error_body,
    infer_response_body,
    json_body,
    parse_infer_request,
    read_request,
    render_response,
)
from repro.gateway.ratelimit import AdmissionController, RateLimiter
from repro.obs import Counters, render_prometheus

GATEWAY_SCHEMA = "repro.gateway/v1"

#: Bound on the (normally instant) backend enqueue; hitting it means the
#: queue raced past admission control, and the request is shed as
#: ``queue_full``.
_SUBMIT_TIMEOUT_S = 1.0

#: Paths the router knows, with their allowed methods.
ROUTES = {
    "/infer": ("POST",),
    "/healthz": ("GET",),
    "/readyz": ("GET",),
    "/metrics": ("GET",),
    "/drain": ("POST",),
}


class IdempotencyLedger:
    """Per-tenant exactly-once bookkeeping for accepted ``/infer`` work.

    Keys are ``"<tenant>:<Idempotency-Key>"``; values are asyncio
    futures resolving to the recorded ``(status, body)``.  All access
    happens on the gateway's single event loop, so plain dict
    operations are race-free; the only concurrency is multiple
    handlers awaiting the same pending future (a hedge racing its
    primary), which is exactly the asyncio future contract.

    Lifecycle: an entry is created the moment the backend *accepts* a
    submit (``begin``), resolved in place on success (kept, LRU
    bounded by ``capacity``), and resolved-then-dropped on failure so
    a later retry gets a fresh compute instead of a replayed 5xx.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, asyncio.Future]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Optional[asyncio.Future]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def begin(self, key: str) -> asyncio.Future:
        entry = asyncio.get_running_loop().create_future()
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._evict()
        return entry

    def resolve_success(self, key: str, outcome: Tuple[int, bytes]) -> None:
        entry = self._entries.get(key)
        if entry is not None and not entry.done():
            entry.set_result(outcome)

    def resolve_failure(self, key: str, outcome: Tuple[int, bytes]) -> None:
        """Wake waiters with the failure, then forget the key: the
        request never produced an answer worth replaying, so the next
        retry earns a fresh compute."""
        entry = self._entries.pop(key, None)
        if entry is not None and not entry.done():
            entry.set_result(outcome)

    def _evict(self) -> None:
        while len(self._entries) > self.capacity:
            for key, entry in self._entries.items():
                if entry.done():
                    del self._entries[key]
                    break
            else:  # every entry still in flight: nothing evictable
                break


class Gateway:
    """The HTTP edge over one :class:`InferenceServer`.

    Args:
        server: A *started* :class:`~repro.serve.server.InferenceServer`
            (the gateway never starts or stops the backend except via
            ``/drain``).
        authenticator: Tenant credential store; defaults to the
            :func:`~repro.gateway.auth.demo_tenants` roster (CI smoke,
            quickstarts) -- production callers pass their own.
        rate_limiter: Per-tenant token buckets; a default
            :class:`RateLimiter` is built when omitted (inject one with
            a fake clock for tests).
        admission: Queue-depth/breaker admission; a default
            :class:`AdmissionController` over ``server`` when omitted.
        host / port: Bind address; port 0 picks an ephemeral port
            (read :attr:`port` after start).
        max_body_bytes: ``413`` bound on request bodies.

    :meth:`run_in_thread` / :meth:`close` (or the context manager) host
    the event loop on its own thread.  :func:`serving_edge` does that
    for the CLI, the load harness and the chaos campaign, starting and
    stopping the backend (and an optional chaos proxy) around it.
    """

    def __init__(
        self,
        server,
        *,
        authenticator: Optional[ApiKeyAuthenticator] = None,
        rate_limiter: Optional[RateLimiter] = None,
        admission: Optional[AdmissionController] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.server = server
        self.authenticator = (
            authenticator if authenticator is not None
            else ApiKeyAuthenticator(demo_tenants())
        )
        self.rate_limiter = (rate_limiter if rate_limiter is not None
                             else RateLimiter())
        self.admission = (admission if admission is not None
                          else AdmissionController(server))
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.counters = Counters("sushi_gateway", {
            "requests": "HTTP requests served, by path and status",
            "rejections": "Requests rejected, by typed error code",
            "tenant_requests":
                "Authenticated /infer requests, by tenant and status",
            "connections": "TCP connections accepted",
            "idempotent_replays":
                "Responses replayed from the idempotency ledger, by tenant",
        }, labels={
            "requests": ("path", "status"),
            "rejections": ("code",),
            "tenant_requests": ("tenant", "status"),
            "idempotent_replays": ("tenant",),
        })
        self.sheds = Counters("sushi_shed", {
            "requests": "Requests shed at the edge, by error code and "
                        "tenant priority",
        }, labels={"requests": ("code", "priority")})
        # Requests inside _dispatch; only the event loop touches it.
        self._in_flight = 0
        self.idempotency = IdempotencyLedger()
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self._started = threading.Event()
        # writer -> request-in-flight; all mutations happen on the
        # event loop, so plain dict ops are race-free.
        self._connections: Dict[asyncio.StreamWriter, bool] = {}
        self._draining = False

    # -- asyncio lifecycle ---------------------------------------------------

    async def start(self) -> "Gateway":
        """Bind the listener on the current event loop."""
        self._loop = asyncio.get_running_loop()
        self._draining = False
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        server, self._asyncio_server = self._asyncio_server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Hang up idle keep-alive connections so their handlers exit
        # now; a handler mid-request keeps its socket, finishes
        # writing the response, then sees the drain flag and closes.
        self._draining = True
        for writer, busy in list(self._connections.items()):
            if not busy:
                writer.close()

    # -- thread-hosted lifecycle ---------------------------------------------

    def run_in_thread(self) -> "Gateway":
        """Boot the gateway on a dedicated event-loop thread and block
        until the listener is bound (or startup failed)."""
        if self._thread is not None:
            return self

        def _runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # startup failed: surface it
                self._startup_error = exc
                self._started.set()
                loop.close()
                return
            self._started.set()
            try:
                loop.run_forever()
                loop.run_until_complete(self.stop())
                # Let in-flight handler tasks unwind before closing.
                pending = asyncio.all_tasks(loop)
                if pending:
                    loop.run_until_complete(asyncio.wait(pending, timeout=5))
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_runner, name="sushi-gateway", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        if not self._started.is_set():
            raise ConfigurationError("gateway failed to start within 30s")
        return self

    def close(self) -> None:
        """Stop the thread-hosted gateway (idempotent)."""
        thread, self._thread = self._thread, None
        loop = self._loop
        if thread is None or loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        self._started.clear()

    def __enter__(self) -> "Gateway":
        return self.run_in_thread()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.counters.inc("connections")
        self._connections[writer] = False
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.max_body_bytes
                    )
                except ProtocolError as exc:
                    # Framing is broken: answer once and hang up.
                    self._record("other", exc.status, code=exc.code)
                    writer.write(render_response(
                        exc.status, error_body(exc.code, exc.message),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:  # clean EOF between requests
                    break
                self._connections[writer] = True
                status, body, content_type, extra = \
                    await self._dispatch(request)
                writer.write(render_response(
                    status, body,
                    content_type=content_type,
                    keep_alive=request.keep_alive,
                    extra_headers=extra,
                ))
                await writer.drain()
                self._connections[writer] = False
                if not request.keep_alive or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # client went away; nothing to answer
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        """Route one request; returns (status, body, content-type,
        extra response headers)."""
        self._in_flight += 1
        try:
            path, method = request.path, request.method
            if path not in ROUTES:
                return self._reject(path, ProtocolError(
                    404, "not_found", f"no such endpoint {path!r}"
                ))
            if method not in ROUTES[path]:
                return self._reject(path, ProtocolError(
                    405, "method_not_allowed",
                    f"{path} accepts {'/'.join(ROUTES[path])}, not {method}",
                ))
            try:
                if path == "/healthz":
                    return self._handle_healthz()
                if path == "/readyz":
                    return self._handle_readyz()
                if path == "/metrics":
                    return self._handle_metrics()
                if path == "/drain":
                    return await self._handle_drain(request)
                return await self._handle_infer(request)
            except ProtocolError as exc:
                tenant = getattr(exc, "tenant_name", None)
                return self._reject(path, exc, tenant=tenant)
        finally:
            self._in_flight -= 1

    def _record(self, path: str, status: int,
                code: Optional[str] = None,
                tenant: Optional[str] = None) -> None:
        route = path if path in ROUTES else "other"
        self.counters.inc("requests", path=route, status=status)
        if code is not None and status >= 400:
            self.counters.inc("rejections", code=code)
        if tenant is not None:
            self.counters.inc("tenant_requests", tenant=tenant,
                              status=status)

    def _reject(
        self,
        path: str,
        exc: ProtocolError,
        tenant: Optional[str] = None,
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        self._record(path, exc.status, code=exc.code, tenant=tenant)
        extra: Tuple[Tuple[str, str], ...] = ()
        if exc.retry_after_s is not None:
            seconds = max(1, int(math.ceil(exc.retry_after_s)))
            extra = (("Retry-After", str(seconds)),)
        return (exc.status, error_body(exc.code, exc.message),
                "application/json", extra)

    # -- endpoints -----------------------------------------------------------

    def _handle_healthz(self) -> Tuple[int, bytes, str, Tuple]:
        payload = {
            "schema": GATEWAY_SCHEMA,
            "gateway": {
                "host": self.host,
                "port": self.port,
                "in_flight": self._in_flight,
            },
            "backend": self.server.health(),
        }
        self._record("/healthz", 200)
        return 200, json_body(payload), "application/json", ()

    def _handle_readyz(self) -> Tuple[int, bytes, str, Tuple]:
        if self.server.readiness():
            self._record("/readyz", 200)
            return 200, json_body({"ready": True}), "application/json", ()
        self._record("/readyz", 503, code="not_ready")
        return (503, error_body("not_ready", "backend is not accepting "
                                "requests"), "application/json",
                (("Retry-After", "1"),))

    def _handle_metrics(self) -> Tuple[int, bytes, str, Tuple]:
        # Imported here, not at module load: a serving process that
        # never records a trace or runs a sweep does not pay for
        # loading the engine and the explorer until the first scrape.
        from repro.explore.driver import GLOBAL_EXPLORE_COUNTERS
        from repro.rsfq.trace import GLOBAL_TRACE_COUNTERS

        families = self.server.metric_families()
        families += self.counters.families()
        families.append(("sushi_gateway_in_flight", "gauge",
                         "Requests currently being handled",
                         [(None, self._in_flight)]))
        families += self.sheds.families()
        for counters in (GLOBAL_CLIENT_COUNTERS, GLOBAL_TRACE_COUNTERS,
                         GLOBAL_EXPLORE_COUNTERS):
            families += counters.families()
        text = render_prometheus(families)
        self._record("/metrics", 200)
        return (200, text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8", ())

    async def _handle_drain(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple]:
        tenant = self.authenticator.authenticate(request.headers)
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, lambda: self.server.drain(timeout=30.0)
        )
        self._record("/drain", 200, tenant=tenant.name)
        return (200, json_body({"drained": bool(drained)}),
                "application/json", ())

    async def _handle_infer(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple]:
        tenant = self.authenticator.authenticate(request.headers)
        try:
            raw_key = request.headers.get(IDEMPOTENCY_KEY_HEADER)
            idem_key = f"{tenant.name}:{raw_key}" if raw_key else None
            if idem_key is not None:
                recorded = self.idempotency.lookup(idem_key)
                if recorded is not None:
                    # Exactly-once: the original was accepted; await /
                    # replay its outcome rather than computing again.
                    status, body = await asyncio.shield(recorded)
                    self.counters.inc("idempotent_replays",
                                      tenant=tenant.name)
                    self._record("/infer", status, tenant=tenant.name)
                    return (status, body, "application/json",
                            ((REPLAY_HEADER, "true"),))
            if not self.rate_limiter.allow(tenant):
                self.sheds.inc("requests", code="rate_limited",
                               priority=tenant.priority)
                raise ProtocolError(
                    429, "rate_limited",
                    f"tenant {tenant.name!r} is over its rate limit "
                    f"({tenant.rate_per_s}/s, burst {tenant.burst})",
                    retry_after_s=self.rate_limiter.retry_after_s(tenant),
                )
            reason = self.admission.check(priority=tenant.priority)
            if reason is not None:
                self.sheds.inc("requests", code=reason,
                               priority=tenant.priority)
                raise ProtocolError(
                    503, reason,
                    f"request shed by admission control ({reason})",
                    retry_after_s=self.admission.retry_after_s(reason),
                )
            parsed = parse_infer_request(
                request.body, self.server.compiled.in_features
            )
            try:
                future = self.server.submit(
                    parsed.spike_train,
                    timeout=_SUBMIT_TIMEOUT_S,
                    deadline_ms=parsed.deadline_ms,
                )
            except queue_module.Full:
                self.sheds.inc("requests", code="queue_full",
                               priority=tenant.priority)
                raise ProtocolError(
                    503, "queue_full",
                    "backend queue filled while admitting this request",
                    retry_after_s=1.0,
                )
            except ConfigurationError as exc:
                # Post-admission validation inside submit() (e.g. the
                # backend stopped accepting between check and submit).
                if not self.server.readiness():
                    raise ProtocolError(503, "not_ready", str(exc),
                                        retry_after_s=1.0)
                raise ProtocolError(400, "bad_request", str(exc))
            # The backend accepted the work: from here on a retry with
            # the same key must *not* compute twice.  No await sits
            # between submit and begin, so the entry is visible before
            # any other handler can run.
            entry = (self.idempotency.begin(idem_key)
                     if idem_key is not None else None)
            try:
                result = await asyncio.wrap_future(future)
            except BaseException as exc:
                if isinstance(exc, DeadlineExceededError):
                    perr = ProtocolError(504, "deadline_exceeded",
                                         str(exc))
                elif isinstance(exc, concurrent.futures.CancelledError):
                    perr = ProtocolError(503, "not_ready",
                                         "request cancelled during "
                                         "shutdown", retry_after_s=1.0)
                elif isinstance(exc, Exception):
                    perr = ProtocolError(500, "internal",
                                         f"backend failure: {exc}")
                else:
                    raise
                if entry is not None:
                    # Wake hedges with the failure, then forget the key
                    # so a later retry earns a fresh compute.
                    self.idempotency.resolve_failure(
                        idem_key,
                        (perr.status,
                         error_body(perr.code, perr.message)),
                    )
                raise perr
            body = infer_response_body(result, tenant.name)
            if entry is not None:
                self.idempotency.resolve_success(idem_key, (200, body))
            self._record("/infer", 200, tenant=tenant.name)
            return 200, body, "application/json", ()
        except ProtocolError as exc:
            # Tag the rejection with the (authenticated) tenant so the
            # per-tenant counters tell the skew story.
            exc.tenant_name = tenant.name
            raise

    def __repr__(self) -> str:
        state = "bound" if self._asyncio_server is not None else "stopped"
        return (f"<Gateway {state} {self.host}:{self.port} "
                f"tenants={len(self.authenticator.tenants)}>")


class ServingEdge(NamedTuple):
    """The started stack :func:`serving_edge` yields."""

    server: object  # the InferenceServer or ClusterServer backend
    gateway: Gateway
    proxy: Optional[object]  # the ChaosProxy, when one was asked for
    address: Tuple[str, int]  # where clients aim: the proxy, if any


@contextmanager
def serving_edge(
    server,
    *,
    authenticator: Optional[ApiKeyAuthenticator] = None,
    queue_limit: int = 1024,
    shed_queue_depth: Optional[int] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    proxy_faults=None,
    proxy_seed: int = 0,
) -> Iterator[ServingEdge]:
    """Start backend -> :class:`Gateway` -> optional chaos proxy, yield
    them as a :class:`ServingEdge`, and stop them outside-in on exit.

    ``server`` is an *unstarted* :class:`~repro.serve.InferenceServer`
    or :class:`~repro.cluster.ClusterServer`; the caller builds it.
    The gateway is hosted by :meth:`Gateway.run_in_thread` behind an
    :class:`AdmissionController` with ``queue_limit`` and
    ``shed_queue_depth``.  ``proxy_faults=None`` means no proxy; any
    sequence of :class:`~repro.netchaos.NetFault` (empty included)
    interposes a :class:`~repro.netchaos.ChaosProxy` seeded with
    ``proxy_seed``.  A layer that fails to start stops the layers
    already started before the error propagates.
    """
    with ExitStack() as stack:
        server.start()
        stack.callback(server.stop)
        gateway = stack.enter_context(Gateway(
            server,
            authenticator=authenticator,
            admission=AdmissionController(
                server, queue_limit=queue_limit,
                shed_queue_depth=shed_queue_depth,
            ),
            host=host,
            port=port,
        ))
        proxy = None
        if proxy_faults is not None:
            from repro.netchaos import ChaosProxy

            proxy = stack.enter_context(ChaosProxy(
                gateway.address, tuple(proxy_faults), seed=proxy_seed
            ))
        yield ServingEdge(
            server, gateway, proxy,
            proxy.address if proxy is not None else gateway.address,
        )


def main(argv=None) -> int:
    """``python -m repro serve``: boot a gateway over the demo workload
    (or a tenants file of your own) and serve until interrupted."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve the compiled demo network over HTTP/JSON "
                    "(see docs/GATEWAY.md for the endpoint contract).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787,
                        help="0 picks an ephemeral port")
    parser.add_argument("--workers", type=int, default=0,
                        help="shared-memory pool workers (0 = serial)")
    parser.add_argument("--nodes", type=int, default=0,
                        help="cluster pool nodes; > 0 serves through a "
                             "ClusterServer with --workers pool workers "
                             "per node (see docs/CLUSTER.md)")
    parser.add_argument("--autoscale", action="store_true",
                        help="with --nodes: let the autoscaler resize "
                             "the cluster between --nodes and "
                             "--max-nodes from the serving gauges")
    parser.add_argument("--max-nodes", type=int, default=8,
                        help="autoscaler ceiling (default 8)")
    parser.add_argument("--batch-max", type=int, default=64)
    parser.add_argument("--queue-limit", type=int, default=1024,
                        help="admission-control queue-depth bound")
    parser.add_argument("--tenants", default=None,
                        help="JSON tenants file (default: the demo "
                             "tenant set with well-known keys)")
    args = parser.parse_args(argv)

    import signal
    import sys

    from repro.gateway.loadgen import _compile_workload
    from repro.serve import InferenceServer

    authenticator = (
        ApiKeyAuthenticator.from_json_file(args.tenants)
        if args.tenants else ApiKeyAuthenticator(demo_tenants())
    )
    if args.nodes > 0:
        from repro.cluster import AutoscalerConfig, ClusterServer

        autoscaler_config = None
        if args.autoscale:
            autoscaler_config = AutoscalerConfig(
                min_nodes=args.nodes, max_nodes=args.max_nodes
            )
        server = ClusterServer(
            compiled=_compile_workload(),
            batch_max=args.batch_max,
            nodes=args.nodes,
            node_workers=args.workers,
            autoscaler_config=autoscaler_config,
        )
    else:
        server = InferenceServer(
            compiled=_compile_workload(),
            batch_max=args.batch_max,
            workers=args.workers,
        )
    with serving_edge(server, authenticator=authenticator,
                      queue_limit=args.queue_limit,
                      host=args.host, port=args.port) as edge:
        # SIGTERM and SIGINT both end the wait below; leaving the
        # builder then closes the listener, drains the backend and
        # closes its pool before the process exits 0.  The handlers go
        # in only now that the pool workers exist.  They put into a
        # SimpleQueue, whose put() is safe inside a signal handler
        # (Event.set() could deadlock on the lock its own wait() holds).
        signals = queue_module.SimpleQueue()
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda signum, _frame: signals.put(signum))
        gateway = edge.gateway
        print(f"gateway listening on http://{gateway.host}:{gateway.port} "
              f"(plan {server.compiled.fingerprint[:12]}, "
              f"{len(authenticator.tenants)} tenants)")
        sys.stdout.flush()
        signals.get()
    return 0
