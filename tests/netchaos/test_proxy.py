"""Unit tests for the deterministic TCP chaos proxy
(:mod:`repro.netchaos.proxy`) against a plain echo upstream.

The end-to-end behaviors (retries, replays, hedging through real
gateway traffic) live in the ``net-*`` chaos scenarios; these tests pin
the proxy primitives: fault validation, the exact fire-budget ledger,
and each fault kind's observable wire effect.
"""

import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.netchaos import FAULT_KINDS, ChaosProxy, FireLedger, NetFault


class _EchoUpstream:
    """Threaded echo server: each connection echoes bytes until EOF."""

    def __init__(self):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._running = True
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
            threading.Thread(target=self._echo, args=(conn,),
                             daemon=True).start()

    def _echo(self, conn):
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                conn.sendall(data)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    @property
    def address(self):
        return ("127.0.0.1", self.port)

    def close(self):
        self._running = False
        self._listener.close()
        self._thread.join(timeout=5)


@pytest.fixture()
def upstream():
    server = _EchoUpstream()
    yield server
    server.close()


def _roundtrip(port, payload, timeout_s=5.0):
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout_s) as sock:
        sock.sendall(payload)
        got = b""
        while len(got) < len(payload):
            chunk = sock.recv(65536)
            if not chunk:
                break
            got += chunk
        return got


class TestNetFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            NetFault("gamma-ray")

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            NetFault("latency", direction="sideways")

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            NetFault("latency", budget=-1)

    def test_none_budget_is_unlimited(self):
        assert NetFault("split", budget=None).budget is None

    def test_chunk_bytes_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            NetFault("split", chunk_bytes=0)

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            assert NetFault(kind).kind == kind

    def test_applies_respects_direction(self):
        assert NetFault("latency", direction="down").applies("down")
        assert not NetFault("latency", direction="down").applies("up")
        assert NetFault("latency", direction="both").applies("up")
        assert NetFault("latency", direction="both").applies("down")


class TestFireLedger:
    def test_budget_is_exact(self):
        ledger = FireLedger()
        grants = [ledger.claim((0, "reset"), 3) for _ in range(10)]
        assert grants.count(True) == 3
        assert ledger.fired("reset") == 3
        assert ledger.fired() == 3

    def test_none_budget_never_exhausts(self):
        ledger = FireLedger()
        assert all(ledger.claim((0, "split"), None) for _ in range(50))
        assert ledger.fired("split") == 50

    def test_zero_budget_never_grants(self):
        ledger = FireLedger()
        assert not ledger.claim((0, "latency"), 0)
        assert ledger.fired() == 0

    def test_snapshot_keys_by_fault_index_and_kind(self):
        ledger = FireLedger()
        ledger.claim((0, "reset"), 1)
        ledger.claim((1, "latency"), 1)
        assert ledger.snapshot() == {"0:reset": 1, "1:latency": 1}

    def test_keys_stay_bounded_by_the_fault_count(self, upstream):
        # Keys are (fault index, kind), not connections: a long-lived
        # proxy's ledger holds at most one key per fault.
        faults = (NetFault("split", budget=None, direction="both",
                           chunk_bytes=16),
                  NetFault("latency", budget=8, direction="down",
                           delay_ms=1.0))
        with ChaosProxy(upstream.address, faults, seed=2) as proxy:
            for k in range(60):
                payload = b"conn %d" % k
                assert _roundtrip(proxy.port, payload) == payload
            fired = proxy.stats()["fired"]
        assert len(fired) <= len(faults)
        assert fired == {"0:split": 60, "1:latency": 8}


class TestPassthrough:
    def test_bytes_cross_unmodified(self, upstream):
        with ChaosProxy(upstream.address) as proxy:
            payload = bytes(range(256)) * 64
            assert _roundtrip(proxy.port, payload) == payload
            stats = proxy.stats()
            assert stats["connections"] == 1
            assert stats["fired"] == {}

    def test_split_reassembles_identically(self, upstream):
        faults = (NetFault("split", budget=None, direction="both",
                           chunk_bytes=7),)
        with ChaosProxy(upstream.address, faults, seed=5) as proxy:
            payload = b"fragmentation should be invisible to TCP" * 50
            assert _roundtrip(proxy.port, payload) == payload
            assert proxy.fired("split") == 1

    def test_slow_send_preserves_bytes(self, upstream):
        faults = (NetFault("slow-send", budget=1, direction="up",
                           chunk_bytes=32, pause_ms=1.0),)
        with ChaosProxy(upstream.address, faults) as proxy:
            payload = b"x" * 400
            assert _roundtrip(proxy.port, payload) == payload
            assert proxy.fired("slow-send") == 1


class TestFaultEffects:
    def test_latency_delays_delivery(self, upstream):
        faults = (NetFault("latency", budget=1, direction="down",
                           delay_ms=150.0),)
        with ChaosProxy(upstream.address, faults) as proxy:
            start = time.monotonic()
            assert _roundtrip(proxy.port, b"ping") == b"ping"
            assert time.monotonic() - start >= 0.14
            # Budget spent: the next connection is clean and fast.
            start = time.monotonic()
            assert _roundtrip(proxy.port, b"ping") == b"ping"
            assert time.monotonic() - start < 0.14
            assert proxy.fired("latency") == 1

    def test_throttle_paces_bytes(self, upstream):
        faults = (NetFault("throttle", budget=1, direction="down",
                           rate_bps=4096.0),)
        with ChaosProxy(upstream.address, faults) as proxy:
            payload = b"y" * 2048  # ~0.5s at 4096 B/s
            start = time.monotonic()
            assert _roundtrip(proxy.port, payload) == payload
            assert time.monotonic() - start >= 0.3

    def test_reset_aborts_with_econnreset(self, upstream):
        faults = (NetFault("reset", budget=1, direction="down",
                           after_bytes=8),)
        with ChaosProxy(upstream.address, faults) as proxy:
            with socket.create_connection(("127.0.0.1", proxy.port),
                                          timeout=5.0) as sock:
                sock.sendall(b"0123456789abcdef")
                got = b""
                with pytest.raises(ConnectionError):
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            raise ConnectionError("clean EOF")
                        got += chunk
                assert len(got) <= 8
            assert proxy.fired("reset") == 1

    def test_blackhole_answers_nothing(self, upstream):
        faults = (NetFault("blackhole", budget=1, hold_s=10.0),)
        with ChaosProxy(upstream.address, faults) as proxy:
            with socket.create_connection(("127.0.0.1", proxy.port),
                                          timeout=0.2) as sock:
                sock.sendall(b"hello?")
                with pytest.raises(socket.timeout):
                    sock.recv(1)
            assert proxy.fired("blackhole") == 1
            # Second connection is past the budget: echo works.
            assert _roundtrip(proxy.port, b"back") == b"back"

    def test_budget_arms_earliest_connections(self, upstream):
        faults = (NetFault("latency", budget=2, direction="down",
                           delay_ms=120.0),)
        with ChaosProxy(upstream.address, faults) as proxy:
            elapsed = []
            for _ in range(4):
                start = time.monotonic()
                _roundtrip(proxy.port, b"t")
                elapsed.append(time.monotonic() - start)
            assert elapsed[0] >= 0.11 and elapsed[1] >= 0.11
            assert elapsed[2] < 0.11 and elapsed[3] < 0.11
            assert proxy.fired("latency") == 2


class TestLifecycle:
    def test_close_unblocks_blackholed_connections_promptly(self, upstream):
        faults = (NetFault("blackhole", budget=1, hold_s=60.0),)
        proxy = ChaosProxy(upstream.address, faults).start()
        sock = socket.create_connection(("127.0.0.1", proxy.port),
                                        timeout=5.0)
        sock.sendall(b"into the void")
        time.sleep(0.05)
        start = time.monotonic()
        proxy.close()
        assert time.monotonic() - start < 5.0
        sock.close()

    def test_finished_connection_threads_are_pruned(self, upstream):
        with ChaosProxy(upstream.address) as proxy:
            for k in range(100):
                payload = b"ping %d" % k
                assert _roundtrip(proxy.port, payload) == payload
            assert proxy.stats()["connections"] == 100
            # Each handler exits once both of its pumps see EOF; the
            # next accept drops it from the tracked list.
            assert len(proxy._threads) <= 10

    def test_close_is_idempotent(self, upstream):
        proxy = ChaosProxy(upstream.address).start()
        proxy.close()
        proxy.close()

    def test_stats_shape(self, upstream):
        with ChaosProxy(upstream.address) as proxy:
            _roundtrip(proxy.port, b"abc")
            stats = proxy.stats()
            assert set(stats) == {"connections", "bytes_up",
                                  "bytes_down", "fired"}
            # The pump threads bump byte counters after forwarding, so
            # they can lag the client's last recv by a beat.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = proxy.stats()
                if stats["bytes_up"] >= 3 and stats["bytes_down"] >= 3:
                    break
                time.sleep(0.005)
            assert stats["bytes_up"] >= 3
            assert stats["bytes_down"] >= 3
