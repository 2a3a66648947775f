"""Unit tests for the resilient gateway client
(:mod:`repro.gateway.client`): retry policy math, seeded idempotency
keys, deadline propagation, retry budgets, and counter plumbing.

These run against tiny scripted socket servers (no live gateway); the
full-path behaviors ride the ``net-*`` chaos scenarios and the gateway
integration tests.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryBudgetExceededError,
    TransportError,
)
from repro.gateway.client import (
    CLIENT_COUNTER_FIELDS,
    GLOBAL_CLIENT_COUNTERS,
    ClientResult,
    GatewayClient,
    RetryPolicy,
)
from repro.gateway.loadgen import HttpConnection

TRAIN = [[1, 0, 1], [0, 1, 0]]

#: Response heads the gateway never sends.  Both clients must read each
#: as a transport failure, not return it or crash on it.
MALFORMED_HEADS = {
    "length-not-a-number":
        b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
    "code-after-reason": b"HTTP/1.1 OK 200\r\nContent-Length: 2\r\n\r\n{}",
    "negative-length": b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
    "no-status-line": b"garbage\r\nContent-Length: 2\r\n\r\n{}",
}


class _ScriptedServer:
    """Accepts connections; each request body is captured, then the
    scripted behavior for that request index runs: ``"ok"`` answers
    200, ``"drop"`` closes without answering, and ``bytes`` are sent
    verbatim as the whole reply."""

    def __init__(self, script):
        self.script = list(script)
        self.bodies = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._running = True
        self._seen = 0
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _read_request(self, conn):
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        headers = {}
        for line in head.decode("latin-1").split("\r\n")[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(rest) < length:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            rest += chunk
        return rest[:length]

    def _handle(self, conn):
        try:
            while True:
                body = self._read_request(conn)
                if body is None:
                    return
                with self._lock:
                    index = self._seen
                    self._seen += 1
                    self.bodies.append(json.loads(body.decode("utf-8")))
                action = (self.script[index]
                          if index < len(self.script) else "ok")
                if action == "drop":
                    return
                if isinstance(action, bytes):
                    conn.sendall(action)
                    continue
                payload = json.dumps({"seen": index}).encode("utf-8")
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                    b"\r\nContent-Length: " + str(len(payload)).encode()
                    + b"\r\n\r\n" + payload
                )
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self):
        self._running = False
        self._listener.close()
        self._thread.join(timeout=5)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5,
                             jitter=0.0)
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.1)
        assert policy.backoff_s(2, 0.0) == pytest.approx(0.2)
        assert policy.backoff_s(3, 0.0) == pytest.approx(0.4)
        assert policy.backoff_s(4, 0.0) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(10, 0.0) == pytest.approx(0.5)

    def test_jitter_scales_multiplicatively(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
        assert policy.backoff_s(1, 1.0) == pytest.approx(0.15)
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(budget=-1)


class TestIdempotencyKeys:
    def test_same_seed_same_stream(self):
        a = GatewayClient("127.0.0.1", 1, api_key="k", seed=7)
        b = GatewayClient("127.0.0.1", 1, api_key="k", seed=7)
        assert [a._next_idempotency_key() for _ in range(3)] == \
            [b._next_idempotency_key() for _ in range(3)]

    def test_different_seed_different_stream(self):
        a = GatewayClient("127.0.0.1", 1, api_key="k", seed=7)
        b = GatewayClient("127.0.0.1", 1, api_key="k", seed=8)
        assert a._next_idempotency_key() != b._next_idempotency_key()

    def test_keys_never_repeat_within_a_client(self):
        client = GatewayClient("127.0.0.1", 1, api_key="k")
        keys = {client._next_idempotency_key() for _ in range(100)}
        assert len(keys) == 100


class TestClientResult:
    def test_ok_is_status_200(self):
        assert ClientResult(status=200, payload={}).ok
        assert not ClientResult(status=503, payload={}).ok


class TestTransportFailures:
    def _dead_port(self):
        # Bind-then-close: nothing listens here afterwards.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_transport_error_after_max_attempts(self):
        client = GatewayClient(
            "127.0.0.1", self._dead_port(), api_key="k",
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0,
                              jitter=0.0),
        )
        with pytest.raises(TransportError) as excinfo:
            client.infer(TRAIN)
        assert excinfo.value.attempts == 3
        assert client.stats()["conn_errors"] == 3
        assert client.stats()["retries"] == 2

    def test_retry_budget_exhausts_across_requests(self):
        client = GatewayClient(
            "127.0.0.1", self._dead_port(), api_key="k",
            retry=RetryPolicy(max_attempts=10, backoff_base_s=0.0,
                              jitter=0.0, budget=3),
        )
        with pytest.raises(RetryBudgetExceededError):
            client.infer(TRAIN)
        stats = client.stats()
        assert stats["retries"] == 3
        assert stats["budget_exhausted"] == 1
        # The budget is a *lifetime* pool: the next request has no
        # permits left and fails after its first attempt.
        with pytest.raises(RetryBudgetExceededError):
            client.infer(TRAIN)
        assert client.stats()["retries"] == 3

    def test_deadline_exceeded_preempts_attempts(self):
        client = GatewayClient(
            "127.0.0.1", self._dead_port(), api_key="k",
            retry=RetryPolicy(max_attempts=1000, backoff_base_s=0.05,
                              jitter=0.0),
        )
        with pytest.raises(DeadlineExceededError):
            client.infer(TRAIN, deadline_ms=120.0)
        assert client.stats()["deadline_exceeded"] == 1
        assert client.stats()["attempts"] < 1000


@pytest.mark.parametrize("client", ["GatewayClient", "HttpConnection"])
@pytest.mark.parametrize("head", sorted(MALFORMED_HEADS))
def test_malformed_response_head_is_a_transport_error(head, client):
    server = _ScriptedServer([MALFORMED_HEADS[head]] * 2)
    try:
        if client == "GatewayClient":
            with GatewayClient(
                "127.0.0.1", server.port, api_key="k",
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                                  jitter=0.0),
            ) as gateway_client:
                with pytest.raises(TransportError) as excinfo:
                    gateway_client.infer(TRAIN)
                assert excinfo.value.attempts == 2
                assert gateway_client.stats()["conn_errors"] == 2
        else:
            async def exchange():
                conn = HttpConnection("127.0.0.1", server.port)
                try:
                    await conn.request(
                        "POST", "/infer",
                        body=json.dumps({"spike_train": TRAIN}).encode(),
                    )
                finally:
                    await conn.close()

            with pytest.raises(ConnectionError):
                asyncio.run(exchange())
    finally:
        server.close()


class TestDeadlinePropagation:
    def test_remaining_deadline_shrinks_across_attempts(self):
        server = _ScriptedServer(["drop", "ok"])
        try:
            client = GatewayClient(
                "127.0.0.1", server.port, api_key="k",
                retry=RetryPolicy(max_attempts=3, backoff_base_s=0.02,
                                  jitter=0.0),
            )
            result = client.infer(TRAIN, deadline_ms=5000.0)
            assert result.ok and result.attempts == 2
            assert len(server.bodies) == 2
            first = server.bodies[0]["deadline_ms"]
            second = server.bodies[1]["deadline_ms"]
            assert 0 < second < first <= 5000.0
            # Both attempts carried the same idempotency payload.
            assert server.bodies[0]["spike_train"] == \
                server.bodies[1]["spike_train"] == TRAIN
            client.close()
        finally:
            server.close()

    def test_no_deadline_means_no_field(self):
        server = _ScriptedServer(["ok"])
        try:
            with GatewayClient("127.0.0.1", server.port,
                               api_key="k") as client:
                assert client.infer(TRAIN).ok
            assert "deadline_ms" not in server.bodies[0]
        finally:
            server.close()


class TestPoolAndCounters:
    def test_keep_alive_reuses_the_connection(self):
        server = _ScriptedServer([])
        try:
            with GatewayClient("127.0.0.1", server.port,
                               api_key="k") as client:
                for _ in range(4):
                    assert client.infer(TRAIN).ok
                stats = client.stats()
            assert stats["connections_opened"] == 1
            assert stats["connections_reused"] == 3
        finally:
            server.close()

    def test_counter_fields_are_complete_and_mirrored(self):
        server = _ScriptedServer([])
        try:
            before = GLOBAL_CLIENT_COUNTERS.snapshot()
            with GatewayClient("127.0.0.1", server.port,
                               api_key="k") as client:
                client.infer(TRAIN)
                stats = client.stats()
            assert set(stats) == set(CLIENT_COUNTER_FIELDS)
            after = GLOBAL_CLIENT_COUNTERS.snapshot()
            assert after["requests"] == before["requests"] + 1
            assert after["attempts"] == before["attempts"] + 1
        finally:
            server.close()

    def test_pool_size_zero_rejected_only_if_negative(self):
        with pytest.raises(ConfigurationError):
            GatewayClient("127.0.0.1", 1, api_key="k", pool_size=-1)
        GatewayClient("127.0.0.1", 1, api_key="k", pool_size=0)
