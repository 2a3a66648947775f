"""Integration tests for the HTTP gateway over a live ephemeral port.

Every test drives a real gateway (asyncio listener on 127.0.0.1:0)
fronting a real :class:`InferenceServer`, over real sockets via
``http.client``.  The acceptance contract pinned here: over-limit
tenants get **429**, the breaker-open path gets **503**, expired
deadlines get **504** -- each with the matching typed
``sushi_gateway_rejections_total`` counter in ``/metrics``.
"""

import asyncio
import json
import re
import socket
import threading
import time
from contextlib import contextmanager
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.gateway import (
    ApiKeyAuthenticator,
    Gateway,
    GatewayClient,
    IdempotencyLedger,
    Tenant,
    serving_edge,
)
from repro.harness import random_binarized_network
from repro.serve import CircuitBreaker, InferenceServer
from repro.ssnn import compile_network

CHIP_N = 4
SC = 8

TENANTS = (
    Tenant(name="alpha", api_key="key-alpha", rate_per_s=1000, burst=500),
    Tenant(name="tiny", api_key="key-tiny", rate_per_s=0.0, burst=2),
    Tenant(name="batch", api_key="key-batch", rate_per_s=1000, burst=500,
           priority=2),
)


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(41)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=SC)
    return compile_network(network, CHIP_N, SC)


@pytest.fixture(scope="module")
def train():
    rng = np.random.default_rng(7)
    return (rng.random((12, 11)) < 0.3).astype(float)


@contextmanager
def live_gateway(compiled, *, breaker=None,
                 queue_limit=1024, shed_queue_depth=None):
    server = InferenceServer(compiled=compiled, breaker=breaker)
    with serving_edge(server, authenticator=ApiKeyAuthenticator(TENANTS),
                      queue_limit=queue_limit,
                      shed_queue_depth=shed_queue_depth) as edge:
        yield edge.gateway


def call_full(gateway, method, path, *, key=None, body=None, timeout=15.0,
              headers=None):
    """One HTTP round trip; returns (status, body, response headers)."""
    conn = HTTPConnection("127.0.0.1", gateway.port, timeout=timeout)
    try:
        send_headers = dict(headers or {})
        if key is not None:
            send_headers["X-API-Key"] = key
        payload = (json.dumps(body).encode() if isinstance(body, dict)
                   else body)
        conn.request(method, path, body=payload, headers=send_headers)
        response = conn.getresponse()
        raw = response.read()
        parsed = (json.loads(raw)
                  if response.headers.get_content_type()
                  == "application/json" else raw.decode())
        return response.status, parsed, dict(response.headers)
    finally:
        conn.close()


def call(gateway, method, path, *, key=None, body=None, timeout=15.0):
    """One HTTP round trip; returns (status, parsed-or-raw body)."""
    status, payload, _ = call_full(gateway, method, path, key=key,
                                   body=body, timeout=timeout)
    return status, payload


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("timed out waiting for gateway test condition")


def infer(gateway, train, *, key="key-alpha", deadline_ms=None):
    body = {"spike_train": train.astype(int).tolist()}
    if deadline_ms is not None:
        body["deadline_ms"] = deadline_ms
    return call(gateway, "POST", "/infer", key=key, body=body)


_PROM_LINE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(-?[0-9.e+E-]+)$"
)


def scrape(gateway):
    """GET /metrics and parse the exposition into {(name, labels): value}."""
    status, text = call(gateway, "GET", "/metrics")
    assert status == 200
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
            continue
        match = _PROM_LINE.match(line)
        assert match, f"unparsable exposition line: {line!r}"
        name, labels, value = match.groups()
        samples[(name, labels or "")] = float(value)
    return samples


def rejection_count(samples, code):
    return samples.get(
        ("sushi_gateway_rejections_total", f'code="{code}"'), 0.0
    )


class TestHappyPath:
    def test_authenticated_infer_round_trip(self, compiled, train):
        with live_gateway(compiled) as gateway:
            status, payload = infer(gateway, train)
        assert status == 200
        assert payload["schema"] == "repro.gateway.infer/v1"
        assert payload["tenant"] == "alpha"
        assert payload["steps"] == 12
        # The served answer is the backend's answer -- the gateway is a
        # transport, never a transform.
        rates = np.asarray(payload["rates"])
        assert rates.shape == (5,)
        assert payload["prediction"] == int(rates.argmax())

    def test_healthz_readyz_and_metrics(self, compiled, train):
        with live_gateway(compiled) as gateway:
            status, health = call(gateway, "GET", "/healthz")
            assert status == 200
            assert health["schema"] == "repro.gateway/v1"
            assert health["backend"]["schema"] == "repro.serve.health/v1"
            assert call(gateway, "GET", "/readyz")[0] == 200
            infer(gateway, train)
            samples = scrape(gateway)
        assert samples[("sushi_server_completed_total", "")] == 1.0
        assert samples[
            ("sushi_gateway_requests_total",
             'path="/infer",status="200"')
        ] == 1.0
        assert samples[
            ("sushi_server_breaker_state", 'state="closed"')
        ] == 1.0
        # The RSFQ trace-replay counters ride along on the same scrape
        # (process-wide totals; see docs/ENGINE.md "Trace compilation").
        for counter in ("sushi_trace_replays_total",
                        "sushi_trace_fallbacks_total",
                        "sushi_trace_cache_hits_total",
                        "sushi_trace_cache_misses_total",
                        "sushi_trace_records_total"):
            assert (counter, "") in samples
        # ... as do the design-space explorer counters (process-wide
        # totals; see docs/EXPLORER.md "Observability").
        for counter in ("sushi_explore_sweeps_total",
                        "sushi_explore_points_evaluated_total",
                        "sushi_explore_point_cache_hits_total",
                        "sushi_explore_infeasible_points_total",
                        "sushi_explore_trace_probe_fallbacks_total"):
            assert (counter, "") in samples

    def test_keep_alive_serves_multiple_requests(self, compiled, train):
        with live_gateway(compiled) as gateway:
            conn = HTTPConnection("127.0.0.1", gateway.port, timeout=15)
            try:
                body = json.dumps(
                    {"spike_train": train.astype(int).tolist()}
                ).encode()
                for _ in range(3):
                    conn.request("POST", "/infer", body=body,
                                 headers={"X-API-Key": "key-alpha"})
                    assert conn.getresponse().read() is not None
            finally:
                conn.close()
            samples = scrape(gateway)
        assert samples[("sushi_gateway_connections_total", "")] >= 1.0
        assert samples[
            ("sushi_gateway_requests_total",
             'path="/infer",status="200"')
        ] == 3.0


class TestValidationAndRouting:
    def test_missing_key_401(self, compiled, train):
        with live_gateway(compiled) as gateway:
            status, payload = infer(gateway, train, key=None)
            samples = scrape(gateway)
        assert status == 401
        assert payload["error"]["code"] == "missing_api_key"
        assert rejection_count(samples, "missing_api_key") == 1.0

    def test_unknown_key_401(self, compiled, train):
        with live_gateway(compiled) as gateway:
            status, payload = infer(gateway, train, key="wrong")
        assert status == 401
        assert payload["error"]["code"] == "invalid_api_key"

    def test_unknown_path_404(self, compiled):
        with live_gateway(compiled) as gateway:
            status, payload = call(gateway, "GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_405(self, compiled):
        with live_gateway(compiled) as gateway:
            status, payload = call(gateway, "GET", "/infer",
                                   key="key-alpha")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_bad_json_400(self, compiled):
        with live_gateway(compiled) as gateway:
            status, payload = call(gateway, "POST", "/infer",
                                   key="key-alpha", body=b"not json")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_wrong_width_400(self, compiled):
        with live_gateway(compiled) as gateway:
            status, payload = call(
                gateway, "POST", "/infer", key="key-alpha",
                body={"spike_train": [[1, 0]]},
            )
        assert status == 400
        assert payload["error"]["code"] == "invalid_train"

    def test_oversized_body_413(self, compiled, train):
        # The body bound is a Gateway setting the builder does not take.
        server = InferenceServer(compiled=compiled).start()
        try:
            with Gateway(server, authenticator=ApiKeyAuthenticator(TENANTS),
                         max_body_bytes=64) as gateway:
                status, payload = infer(gateway, train)
        finally:
            server.stop()
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"


class TestLoadShedding:
    def test_over_limit_tenant_429_with_counter(self, compiled, train):
        """Acceptance: over-limit tenants get 429 + rate_limited
        counter; the polite tenant is unaffected."""
        with live_gateway(compiled) as gateway:
            outcomes = [infer(gateway, train, key="key-tiny")[0]
                        for _ in range(5)]
            polite_status, _ = infer(gateway, train, key="key-alpha")
            _, last_body, last_headers = call_full(
                gateway, "POST", "/infer", key="key-tiny",
                body={"spike_train": train.astype(int).tolist()},
            )
            samples = scrape(gateway)
        assert outcomes == [200, 200, 429, 429, 429]
        assert polite_status == 200
        assert last_body["error"]["code"] == "rate_limited"
        # Burst-only bucket (rate 0) never refills: the Retry-After
        # hint falls back to the fixed 60s "come back much later".
        assert last_headers["Retry-After"] == "60"
        assert rejection_count(samples, "rate_limited") == 4.0
        assert samples[
            ("sushi_gateway_tenant_requests_total",
             'status="429",tenant="tiny"')
        ] == 4.0

    def test_breaker_open_503_with_counter(self, compiled, train):
        """Acceptance: while the pool breaker is open the gateway sheds
        at the edge with a typed 503."""
        breaker = CircuitBreaker(failure_threshold=1,
                                 reset_timeout_s=300.0)
        with live_gateway(compiled, breaker=breaker) as gateway:
            assert infer(gateway, train)[0] == 200  # healthy first
            breaker.record_failure()
            assert breaker.state == "open"
            statuses = [infer(gateway, train)[0] for _ in range(3)]
            _, body, headers = call_full(
                gateway, "POST", "/infer", key="key-alpha",
                body={"spike_train": train.astype(int).tolist()},
            )
            samples = scrape(gateway)
        assert statuses == [503, 503, 503]
        assert body["error"]["code"] == "breaker_open"
        # Retry-After is the breaker's remaining cooldown, rounded up.
        assert 290 <= int(headers["Retry-After"]) <= 300
        assert rejection_count(samples, "breaker_open") == 4.0
        assert samples[
            ("sushi_server_breaker_state", 'state="open"')
        ] == 1.0

    def test_expired_deadline_504_with_counter(self, compiled, train):
        """Acceptance: a request whose deadline_ms lapses while queued
        gets 504 + deadline_exceeded counter (and the backend counts it
        as expired, not failed)."""
        with live_gateway(compiled) as gateway:
            server = gateway.server
            original = server._forward

            def held_forward(rows):
                time.sleep(0.6)
                return original(rows)

            server._forward = held_forward
            try:
                import threading

                results = {}

                def blocker():
                    results["blocker"] = infer(gateway, train)

                thread = threading.Thread(target=blocker)
                thread.start()
                time.sleep(0.2)  # dispatcher is now inside held_forward
                status, payload = infer(gateway, train, deadline_ms=1.0)
                thread.join(timeout=30)
            finally:
                server._forward = original
            samples = scrape(gateway)
        assert results["blocker"][0] == 200
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"
        assert rejection_count(samples, "deadline_exceeded") == 1.0
        assert samples[("sushi_server_expired_total", "")] == 1.0
        assert samples[("sushi_server_failed_total", "")] == 0.0

    def test_queue_full_503(self, compiled, train):
        with live_gateway(compiled, queue_limit=1) as gateway:
            server = gateway.server
            original = server._forward

            def held_forward(rows):
                time.sleep(0.6)
                return original(rows)

            server._forward = held_forward
            try:
                import threading

                thread = threading.Thread(
                    target=lambda: infer(gateway, train)
                )
                thread.start()
                time.sleep(0.2)
                # Fill the coalescing queue past the admission bound
                # behind the blocked dispatcher.
                queued = server.submit(train)
                status, payload = infer(gateway, train)
                thread.join(timeout=30)
                queued.result(timeout=30)
            finally:
                server._forward = original
            samples = scrape(gateway)
        assert status == 503
        assert payload["error"]["code"] == "queue_full"
        assert rejection_count(samples, "queue_full") == 1.0


class TestPriorityShedding:
    def test_batch_priority_sheds_overloaded_while_critical_admitted(
        self, compiled, train
    ):
        """Shed-before-queue: past the soft watermark, priority-2
        traffic gets 503 ``overloaded`` (Retry-After: 1) while
        priority-0 traffic still fills the remaining headroom."""
        with live_gateway(compiled, queue_limit=8,
                          shed_queue_depth=1) as gateway:
            server = gateway.server
            release = threading.Event()
            original = server._forward

            def held_forward(rows):
                release.wait(15.0)
                return original(rows)

            server._forward = held_forward
            try:
                results = {}

                def alpha_request(tag):
                    results[tag] = infer(gateway, train)

                blocker = threading.Thread(target=alpha_request,
                                           args=("blocker",))
                blocker.start()
                _wait_for(lambda: server.stats().pending >= 1)
                # One queued row puts depth at the shed watermark.
                queued = server.submit(train)
                _wait_for(lambda: server.queue_depth() >= 1)
                status, body, headers = call_full(
                    gateway, "POST", "/infer", key="key-batch",
                    body={"spike_train": train.astype(int).tolist()},
                )
                # Critical traffic is still admitted past the
                # watermark (it blocks until the dispatcher resumes).
                second = threading.Thread(target=alpha_request,
                                          args=("critical",))
                second.start()
                _wait_for(lambda: server.stats().pending >= 3)
                release.set()
                blocker.join(timeout=30)
                second.join(timeout=30)
                queued.result(timeout=30)
            finally:
                release.set()
                server._forward = original
            samples = scrape(gateway)
        assert status == 503
        assert body["error"]["code"] == "overloaded"
        assert headers["Retry-After"] == "1"
        assert results["blocker"][0] == 200
        assert results["critical"][0] == 200
        assert rejection_count(samples, "overloaded") == 1.0
        assert samples[
            ("sushi_shed_requests_total",
             'code="overloaded",priority="2"')
        ] == 1.0


class TestIdempotency:
    def test_same_key_replays_without_recomputing(self, compiled, train):
        body = {"spike_train": train.astype(int).tolist()}
        with live_gateway(compiled) as gateway:
            first = call_full(gateway, "POST", "/infer", key="key-alpha",
                              body=body,
                              headers={"Idempotency-Key": "retry-1"})
            second = call_full(gateway, "POST", "/infer", key="key-alpha",
                               body=body,
                               headers={"Idempotency-Key": "retry-1"})
            fresh = call_full(gateway, "POST", "/infer", key="key-alpha",
                              body=body,
                              headers={"Idempotency-Key": "retry-2"})
            # The backend bumps `completed` a beat after resolving the
            # response future, so poll rather than read-once.
            _wait_for(lambda: gateway.server.stats().completed >= 2)
            completed = gateway.server.stats().completed
            samples = scrape(gateway)
        assert first[0] == second[0] == fresh[0] == 200
        assert "X-Idempotent-Replay" not in first[2]
        assert second[2]["X-Idempotent-Replay"] == "true"
        assert "X-Idempotent-Replay" not in fresh[2]
        # The replay is byte-for-byte the original answer, and the
        # backend computed once per distinct key.
        assert second[1] == first[1]
        assert completed == 2
        assert samples[
            ("sushi_gateway_idempotent_replays_total", 'tenant="alpha"')
        ] == 1.0

    def test_keys_are_tenant_scoped(self, compiled, train):
        body = {"spike_train": train.astype(int).tolist()}
        with live_gateway(compiled) as gateway:
            alpha = call_full(gateway, "POST", "/infer", key="key-alpha",
                              body=body,
                              headers={"Idempotency-Key": "shared"})
            batch = call_full(gateway, "POST", "/infer", key="key-batch",
                              body=body,
                              headers={"Idempotency-Key": "shared"})
            _wait_for(lambda: gateway.server.stats().completed >= 2)
            completed = gateway.server.stats().completed
        assert alpha[0] == batch[0] == 200
        # Same raw key, different tenants: no cross-tenant replay.
        assert "X-Idempotent-Replay" not in batch[2]
        assert completed == 2


class TestIdempotencyLedgerBound:
    """The ledger's LRU cap, on a ledger of two: resolved entries go
    oldest first (a lookup refreshes one), in-flight ones never go."""

    def test_resolved_entries_are_evicted_oldest_first(self):
        async def scenario():
            ledger = IdempotencyLedger(capacity=2)
            for key in ("a", "b"):
                ledger.begin(key)
                ledger.resolve_success(key, (200, key.encode()))
            ledger.begin("c")
            assert ledger.lookup("a") is None
            assert ledger.lookup("b") is not None  # now the newest
            ledger.resolve_success("c", (200, b"c"))
            ledger.begin("d")
            assert ledger.lookup("c") is None
            assert [ledger.lookup(k) is not None for k in "bd"] == [
                True, True,
            ]
            assert len(ledger) == 2

        asyncio.run(scenario())

    def test_in_flight_entries_are_never_evicted(self):
        async def scenario():
            ledger = IdempotencyLedger(capacity=2)
            pending = {key: ledger.begin(key) for key in "xyz"}
            assert len(ledger) == 3  # over the cap: nothing evictable
            ledger.resolve_success("y", (200, b"y"))
            ledger.begin("w")
            assert ledger.lookup("y") is None
            assert all(ledger.lookup(k) is not None for k in "xzw")
            assert not any(pending[k].done() for k in "xz")
            assert len(ledger) == 3

        asyncio.run(scenario())


class TestMetricsFamilies:
    def test_client_and_shed_families_are_exported(self, compiled, train):
        with live_gateway(compiled) as gateway:
            statuses = [infer(gateway, train, key="key-tiny")[0]
                        for _ in range(3)]
            samples = scrape(gateway)
        assert statuses == [200, 200, 429]
        names = {name for name, _ in samples}
        # Every client counter surfaces as its own family (the values
        # are process-wide totals, so only presence is asserted here).
        from repro.gateway.client import CLIENT_COUNTER_FIELDS
        for field in CLIENT_COUNTER_FIELDS:
            assert f"sushi_client_{field}_total" in names
        assert samples[
            ("sushi_shed_requests_total",
             'code="rate_limited",priority="1"')
        ] == 1.0


class TestCloseWithInflight:
    def test_close_lets_inflight_keepalive_request_complete(
        self, compiled, train
    ):
        """``Gateway.close()`` mid-response: the event-loop thread
        drains in-flight handler tasks before the loop closes, so a
        request already accepted on a keep-alive connection still gets
        its 200 over the live socket."""
        release = threading.Event()
        results = {}
        with live_gateway(compiled) as gateway:
            server = gateway.server
            original = server._forward

            def held_forward(rows):
                release.wait(15.0)
                return original(rows)

            server._forward = held_forward
            conn = HTTPConnection("127.0.0.1", gateway.port, timeout=30)
            try:
                body = json.dumps(
                    {"spike_train": train.astype(int).tolist()}
                ).encode()

                def request():
                    conn.request("POST", "/infer", body=body,
                                 headers={"X-API-Key": "key-alpha"})
                    response = conn.getresponse()
                    results["status"] = response.status
                    results["payload"] = json.loads(response.read())

                reader = threading.Thread(target=request)
                reader.start()
                _wait_for(lambda: server.stats().pending >= 1)
                closer = threading.Thread(target=gateway.close)
                closer.start()
                time.sleep(0.05)  # close is now waiting on the handler
                release.set()
                reader.join(timeout=30)
                closer.join(timeout=30)
                assert not closer.is_alive()
            finally:
                release.set()
                server._forward = original
                conn.close()
        assert results["status"] == 200
        assert results["payload"]["tenant"] == "alpha"
        rates = np.asarray(results["payload"]["rates"])
        assert results["payload"]["prediction"] == int(rates.argmax())


class TestDrainLifecycle:
    def test_drain_endpoint_settles_and_flips_readiness(
        self, compiled, train
    ):
        with live_gateway(compiled) as gateway:
            assert infer(gateway, train)[0] == 200
            status, payload = call(gateway, "POST", "/drain",
                                   key="key-alpha", body=b"")
            assert status == 200
            assert payload["drained"] is True
            assert call(gateway, "GET", "/readyz")[0] == 503
            status, payload = infer(gateway, train)
            assert status == 503
            assert payload["error"]["code"] == "not_ready"
            # Liveness stays green: /healthz answers while not ready.
            assert call(gateway, "GET", "/healthz")[0] == 200

    def test_drain_requires_auth(self, compiled):
        with live_gateway(compiled) as gateway:
            status, payload = call(gateway, "POST", "/drain", body=b"")
        assert status == 401
        assert payload["error"]["code"] == "missing_api_key"


class TestServingEdge:
    """The one builder of backend -> gateway -> optional proxy."""

    @staticmethod
    def _refused(port):
        try:
            socket.create_connection(("127.0.0.1", port), timeout=2).close()
        except ConnectionRefusedError:
            return True
        return False

    def test_proxy_round_trip_then_exit_closes_every_port(self, compiled,
                                                          train):
        server = InferenceServer(compiled=compiled)
        with serving_edge(server, authenticator=ApiKeyAuthenticator(TENANTS),
                          proxy_faults=(), proxy_seed=3) as edge:
            assert edge.address == edge.proxy.address
            assert edge.address != edge.gateway.address
            with GatewayClient(*edge.address, api_key="key-alpha") as client:
                result = client.infer(train)
            assert result.status == 200
            assert result.payload["tenant"] == "alpha"
            assert edge.proxy.stats()["connections"] == 1
        assert self._refused(edge.proxy.port)
        assert self._refused(edge.gateway.port)
        assert not server.readiness()

    def test_busy_port_raises_and_stops_the_backend(self, compiled):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            server = InferenceServer(compiled=compiled)
            with pytest.raises(OSError):
                with serving_edge(server, port=taken.getsockname()[1]):
                    pytest.fail("entered the edge on a busy port")
        assert not server.readiness()
        names = {thread.name for thread in threading.enumerate()}
        assert "sushi-serve" not in names
        assert "sushi-gateway" not in names
