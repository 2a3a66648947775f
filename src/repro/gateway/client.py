"""A resilient blocking HTTP client for the gateway.

:class:`GatewayClient` is the reference client for the serving edge:
plain stdlib sockets (no third-party HTTP stack) speaking the same
minimal HTTP/1.1 dialect as :mod:`repro.gateway.protocol`, hardened
for the faults :mod:`repro.netchaos` injects:

* **Connection pooling** -- keep-alive connections are checked back in
  after a clean response and reused, so steady traffic pays one TCP
  handshake, not one per request.
* **Deadline propagation** -- a per-request ``deadline_ms`` is a total
  wall-clock budget: the *remaining* budget is re-computed on every
  attempt, sent to the server as the JSON ``deadline_ms`` queueing
  bound, and enforced locally as the socket timeout, so client and
  server agree on when a request is no longer worth finishing.
* **Retries with budget + seeded jitter** -- transport failures
  (reset, timeout, refused, mid-response EOF) retry on a fresh
  connection under :class:`RetryPolicy`: exponential backoff whose
  jitter is drawn from a seeded stream (deterministic tests), capped
  attempts per request, and an optional client-lifetime retry *budget*
  so a dying backend gets fail-fast, not retry amplification.
* **Idempotency keys** -- every ``infer`` carries a deterministic
  ``Idempotency-Key``; the gateway's ledger replays the completed
  answer for a retried accepted-then-lost request instead of computing
  twice (exactly-once), and marks it ``X-Idempotent-Replay`` so the
  client can count proofs.
* **Hedging** -- with ``hedge_after_ms`` set, a request whose first
  byte has not arrived within the threshold is duplicated (same
  idempotency key) on a second fresh connection; the first complete
  response wins and the loser is discarded.

Every client mirrors its counters into
:data:`GLOBAL_CLIENT_COUNTERS`, which the gateway ``/metrics`` handler
exports as the ``sushi_client_*`` families.
"""

from __future__ import annotations

import hashlib
import json
import random
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryBudgetExceededError,
    TransportError,
)
from repro.gateway.protocol import (
    IDEMPOTENCY_KEY_HEADER,
    REPLAY_HEADER,
    parse_response_head,
)
from repro.obs import Counters

#: Process-wide roll-up of every GatewayClient in this process --
#: exported on the gateway's ``/metrics`` as ``sushi_client_*``.
GLOBAL_CLIENT_COUNTERS = Counters("sushi_client", {
    "requests": "Client requests issued",
    "attempts": "Wire attempts (first sends + retries + hedges)",
    "retries": "Attempts re-sent after a transport failure",
    "hedges": "Duplicate requests fired after the hedge threshold",
    "hedge_wins": "Hedged duplicates that answered first",
    "timeouts": "Attempts that timed out on the socket",
    "conn_errors": "Attempts that died on reset/refused/EOF",
    "replays": "Responses served from the server idempotency ledger",
    "deadline_exceeded": "Requests abandoned after the client deadline",
    "budget_exhausted": "Retries refused by the lifetime retry budget",
    "connections_opened": "Fresh TCP connections dialled",
    "connections_reused": "Requests served off a pooled connection",
})

#: Counter fields every client tracks (and mirrors globally).
CLIENT_COUNTER_FIELDS = tuple(GLOBAL_CLIENT_COUNTERS.help)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry contract for transport failures.

    Attributes:
        max_attempts: Total wire attempts per request (first try
            included); 1 disables retries.
        backoff_base_s: First-retry sleep; doubles per further retry.
        backoff_cap_s: Ceiling on the un-jittered backoff.
        jitter: Multiplicative jitter fraction: the sleep is scaled by
            ``1 + jitter * u`` with ``u`` drawn from the client's
            seeded stream.
        budget: Lifetime retry permits shared across all requests of
            one client (``None`` = unlimited).  An exhausted budget
            fails fast with :class:`RetryBudgetExceededError`.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    jitter: float = 0.5
    budget: Optional[int] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff must be >= 0")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError("budget must be >= 0 or None")

    def backoff_s(self, retry_index: int, u: float) -> float:
        """Sleep before the ``retry_index``-th retry (1-based)."""
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** (retry_index - 1)))
        return base * (1.0 + self.jitter * u)


@dataclass
class ClientResult:
    """One completed request as the client saw it."""

    status: int
    payload: Dict
    headers: Dict[str, str] = field(default_factory=dict)
    attempts: int = 1
    hedged: bool = False
    replayed: bool = False
    retry_after_s: Optional[float] = None
    latency_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == 200


class _Connection:
    """One blocking keep-alive connection with buffered response parsing."""

    def __init__(self, address: Tuple[str, int], timeout_s: float):
        self.sock = socket.create_connection(address, timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def _recv(self, deadline: float) -> bytes:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("response deadline spent")
        self.sock.settimeout(remaining)
        return self.sock.recv(65536)

    def read_response(
        self, timeout_s: float
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Read one full HTTP/1.1 response (status, headers, body)."""
        deadline = time.monotonic() + timeout_s
        while b"\r\n\r\n" not in self._buffer:
            chunk = self._recv(deadline)
            if not chunk:
                raise ConnectionError("peer closed mid-response")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        status, headers, length = parse_response_head(head)
        while len(self._buffer) < length:
            chunk = self._recv(deadline)
            if not chunk:
                raise ConnectionError("peer closed mid-body")
            self._buffer += chunk
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, headers, body


class GatewayClient:
    """Pooled, retrying, deadline-aware gateway client.

    Args:
        host / port: The gateway (or chaos-proxy) address.
        api_key: ``X-API-Key`` credential.
        timeout_s: Per-attempt socket timeout (connect + response).
        retry: :class:`RetryPolicy`; the default retries transport
            failures twice with jittered exponential backoff.
        hedge_after_ms: When set, fire a duplicate request on a second
            connection if the first byte has not arrived within the
            threshold; ``None`` disables hedging.
        keep_alive: Reuse connections across requests (``False`` sends
            ``Connection: close`` and dials per request).
        pool_size: Idle keep-alive connections retained.
        seed: Seeds both the backoff-jitter stream and the
            deterministic idempotency-key sequence.

    Thread-safe for concurrent ``infer`` calls (the pool and counters
    are locked); each in-flight request holds its own connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        api_key: str,
        timeout_s: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        hedge_after_ms: Optional[float] = None,
        keep_alive: bool = True,
        pool_size: int = 4,
        seed: int = 0,
    ):
        if pool_size < 0:
            raise ConfigurationError("pool_size must be >= 0")
        self.address = (host, int(port))
        self.api_key = api_key
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.hedge_after_ms = hedge_after_ms
        self.keep_alive = keep_alive
        self.pool_size = pool_size
        self.seed = int(seed)
        self.counters = GLOBAL_CLIENT_COUNTERS.fresh()
        self._rng = random.Random(self.seed * 9176 + 29)
        self._lock = threading.Lock()
        self._pool: List[_Connection] = []
        self._key_seq = 0
        self._retry_permits = (
            self.retry.budget if self.retry.budget is not None else None
        )
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, []
            self._closed = True
        for conn in pool:
            conn.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        return self.counters.snapshot()

    # -- internals -----------------------------------------------------------

    def _count(self, field_name: str, n: int = 1) -> None:
        self.counters.inc(field_name, n)
        GLOBAL_CLIENT_COUNTERS.inc(field_name, n)

    def _next_idempotency_key(self) -> str:
        with self._lock:
            self._key_seq += 1
            seq = self._key_seq
        digest = hashlib.sha256(
            f"{self.seed}:{seq}".encode("ascii")
        ).hexdigest()
        return f"idem-{digest[:24]}"

    def _checkout(self, timeout_s: float) -> _Connection:
        with self._lock:
            conn = self._pool.pop() if self._pool else None
        if conn is not None:
            self._count("connections_reused")
            return conn
        conn = _Connection(self.address, timeout_s)
        self._count("connections_opened")
        return conn

    def _checkin(self, conn: _Connection,
                 response_headers: Dict[str, str]) -> None:
        reusable = (
            self.keep_alive
            and response_headers.get("connection", "keep-alive") != "close"
        )
        if not reusable:
            conn.close()
            return
        with self._lock:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def _take_retry_permit(self) -> bool:
        if self._retry_permits is None:
            return True
        with self._lock:
            if self._retry_permits > 0:
                self._retry_permits -= 1
                return True
            return False

    def _frame(self, body: bytes, idempotency_key: str) -> bytes:
        lines = [
            "POST /infer HTTP/1.1",
            f"Host: {self.address[0]}:{self.address[1]}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"X-API-Key: {self.api_key}",
            f"{IDEMPOTENCY_KEY_HEADER.title()}: {idempotency_key}",
        ]
        if not self.keep_alive:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    @staticmethod
    def _wait_readable(conns: List[_Connection],
                       timeout_s: float) -> List[_Connection]:
        readable, _, _ = select.select(conns, [], [], max(0.0, timeout_s))
        return readable

    def _attempt(
        self, frame: bytes, timeout_s: float
    ) -> Tuple[int, Dict[str, str], bytes, bool]:
        """One wire attempt; returns (status, headers, body, hedge_won).

        Raises ``socket.timeout`` / ``ConnectionError`` / ``OSError``
        on transport failure (classified by the caller).
        """
        primary = self._checkout(timeout_s)
        hedge: Optional[_Connection] = None
        try:
            primary.send(frame)
            if self.hedge_after_ms is None:
                response = primary.read_response(timeout_s)
                self._checkin(primary, response[1])
                return response + (False,)
            # Hedged path: give the primary hedge_after_ms to produce
            # its first byte, then race a duplicate.
            hedge_wait = min(self.hedge_after_ms / 1000.0, timeout_s)
            if self._wait_readable([primary], hedge_wait):
                response = primary.read_response(timeout_s)
                self._checkin(primary, response[1])
                return response + (False,)
            self._count("hedges")
            hedge = _Connection(self.address, timeout_s)
            self._count("connections_opened")
            hedge.send(frame)
            deadline = time.monotonic() + timeout_s
            winners = self._wait_readable(
                [primary, hedge], deadline - time.monotonic()
            )
            if not winners:
                raise socket.timeout("hedged request: no response")
            winner = winners[0]
            response = winner.read_response(
                max(0.001, deadline - time.monotonic())
            )
            hedge_won = winner is hedge
            if hedge_won:
                self._count("hedge_wins")
            loser = primary if hedge_won else hedge
            loser.close()
            self._checkin(winner, response[1])
            primary = hedge = None  # both accounted for
            return response + (hedge_won,)
        except BaseException:
            for conn in (primary, hedge):
                if conn is not None:
                    conn.close()
            raise

    # -- the public request path ---------------------------------------------

    def infer(
        self,
        spike_train,
        *,
        deadline_ms: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> ClientResult:
        """POST one spike train; retry/hedge through network faults.

        Returns a :class:`ClientResult` for *any* HTTP status the
        gateway produced (4xx/5xx are data, not exceptions); raises
        :class:`~repro.errors.TransportError` when every attempt died
        on the wire, :class:`~repro.errors.RetryBudgetExceededError`
        when the lifetime budget is dry, and
        :class:`~repro.errors.DeadlineExceededError` when the client
        deadline lapses first.
        """
        started = time.monotonic()
        absolute = (
            started + deadline_ms / 1000.0 if deadline_ms is not None
            else None
        )
        key = idempotency_key or self._next_idempotency_key()
        self._count("requests")
        train = np.asarray(spike_train)
        rows = [[int(v) for v in row] for row in train.tolist()]
        attempts = 0
        hedged = False
        last_error: Optional[BaseException] = None
        while True:
            remaining_s: Optional[float] = None
            if absolute is not None:
                remaining_s = absolute - time.monotonic()
                if remaining_s <= 0:
                    self._count("deadline_exceeded")
                    raise DeadlineExceededError(
                        f"client deadline of {deadline_ms}ms spent after "
                        f"{attempts} attempt(s): {last_error}"
                    )
            payload: Dict = {"spike_train": rows}
            if remaining_s is not None:
                payload["deadline_ms"] = remaining_s * 1000.0
            body = json.dumps(payload).encode("utf-8")
            frame = self._frame(body, key)
            timeout_s = (
                min(self.timeout_s, remaining_s)
                if remaining_s is not None else self.timeout_s
            )
            attempts += 1
            self._count("attempts")
            try:
                status, headers, raw, hedge_won = self._attempt(
                    frame, timeout_s
                )
            except (socket.timeout, TimeoutError) as exc:
                self._count("timeouts")
                last_error = exc
                category = "timeout"
            except (ConnectionError, OSError) as exc:
                self._count("conn_errors")
                last_error = exc
                category = "conn_error"
            else:
                hedged = hedged or hedge_won
                replayed = (
                    headers.get(REPLAY_HEADER.lower()) == "true"
                )
                if replayed:
                    self._count("replays")
                retry_after = headers.get("retry-after")
                try:
                    parsed = json.loads(raw.decode("utf-8")) if raw else {}
                except (UnicodeDecodeError, json.JSONDecodeError):
                    parsed = {}
                return ClientResult(
                    status=status,
                    payload=parsed,
                    headers=headers,
                    attempts=attempts,
                    hedged=hedged,
                    replayed=replayed,
                    retry_after_s=(
                        float(retry_after) if retry_after else None
                    ),
                    latency_ms=(time.monotonic() - started) * 1000.0,
                )
            # Transport failure: decide whether to retry.
            if attempts >= self.retry.max_attempts:
                raise TransportError(
                    f"request failed after {attempts} attempt(s): "
                    f"{last_error}",
                    category=category, attempts=attempts,
                )
            if not self._take_retry_permit():
                self._count("budget_exhausted")
                raise RetryBudgetExceededError(
                    f"retry budget of {self.retry.budget} exhausted "
                    f"after {attempts} attempt(s): {last_error}",
                    category=category, attempts=attempts,
                )
            self._count("retries")
            sleep_s = self.retry.backoff_s(attempts, self._rng.random())
            if absolute is not None:
                sleep_s = min(sleep_s, max(0.0, absolute - time.monotonic()))
            if sleep_s > 0:
                time.sleep(sleep_s)

    def __repr__(self) -> str:
        with self._lock:
            idle = len(self._pool)
        return (f"<GatewayClient {self.address[0]}:{self.address[1]} "
                f"idle={idle} retry={self.retry.max_attempts} "
                f"hedge={self.hedge_after_ms}>")
