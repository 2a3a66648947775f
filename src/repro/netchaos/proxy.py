"""A deterministic, seeded TCP chaos proxy (stdlib only).

:class:`ChaosProxy` accepts client connections and pumps bytes to/from
a fixed upstream address with one thread per direction, applying the
:class:`NetFault` list it was built with.  Faults are *armed* per
connection, at accept time, in list order: each fault claims one permit
from the shared :class:`FireLedger`, and a fault whose budget is spent
simply stops arming -- so a scenario that opens connections one at a
time gets a fully deterministic fault schedule ("the first two
connections reset mid-response, the rest are clean") and can assert
the ledger counts exactly.

Fault kinds (:data:`FAULT_KINDS`):

==========  ===========================================================
kind        behaviour on an armed connection
==========  ===========================================================
latency     sleep ``delay_ms + jitter_ms * u`` before forwarding each
            chunk in ``direction`` (``u`` from the per-connection
            seeded stream)
throttle    pace forwarding at ``rate_bps`` bytes/second
split       forward each chunk as several partial writes of seeded
            random sizes up to ``chunk_bytes`` (exercises framing)
slow-send   slowloris: forward in ``chunk_bytes`` pieces with a
            ``pause_ms`` sleep between pieces
reset       after ``after_bytes`` have been forwarded in ``direction``,
            hard-reset the client socket (``SO_LINGER 0`` => RST)
blackhole   accept the client, never connect upstream, hold the socket
            silently for ``hold_s``, then close
==========  ===========================================================
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Every fault kind the proxy understands.
FAULT_KINDS = (
    "latency", "throttle", "split", "slow-send", "reset", "blackhole",
)

_DIRECTIONS = ("up", "down", "both")

#: Multiplier folding (seed, connection index) into one deterministic
#: integer seed -- tuples would go through ``hash()`` and break across
#: processes under hash randomisation.
_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class NetFault:
    """One composable network fault with an exact fire budget.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        budget: How many *connections* may arm this fault over the
            proxy's lifetime; ``None`` means unlimited (the ledger
            still counts every arm).
        direction: ``"up"`` (client -> upstream), ``"down"``
            (upstream -> client) or ``"both"``.  Ignored by
            ``blackhole`` (which never reaches the upstream).
        delay_ms / jitter_ms: ``latency`` base delay plus seeded
            uniform jitter.
        rate_bps: ``throttle`` pacing in bytes per second.
        chunk_bytes: ``split`` maximum piece size / ``slow-send``
            fixed piece size.
        pause_ms: ``slow-send`` inter-piece sleep.
        after_bytes: ``reset`` fires once this many bytes have been
            forwarded in ``direction`` on the armed connection.
        hold_s: ``blackhole`` silent-hold duration before closing.
    """

    kind: str
    budget: Optional[int] = 1
    direction: str = "down"
    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    rate_bps: float = 65536.0
    chunk_bytes: int = 64
    pause_ms: float = 1.0
    after_bytes: int = 0
    hold_s: float = 5.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.direction not in _DIRECTIONS:
            raise ConfigurationError(
                f"direction must be one of {_DIRECTIONS}, "
                f"not {self.direction!r}"
            )
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError("budget must be >= 0 or None")
        if self.chunk_bytes < 1:
            raise ConfigurationError("chunk_bytes must be >= 1")
        if self.rate_bps <= 0:
            raise ConfigurationError("rate_bps must be > 0")

    def applies(self, direction: str) -> bool:
        return self.direction == "both" or self.direction == direction


class FireLedger:
    """Thread-safe exact accounting of fault arms, keyed per fault.

    Mirrors the marker-file budget of the PR 5 chaos hooks, in-process:
    :meth:`claim` atomically takes one permit for ``(fault_index,
    kind)`` and refuses once the budget is spent, so the total number
    of connections a fault ever touches is exact -- never "roughly
    budget" under racing accepts.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._fired: Dict[Tuple[int, str], int] = {}

    def claim(self, key: Tuple[int, str], budget: Optional[int]) -> bool:
        with self._lock:
            fired = self._fired.get(key, 0)
            if budget is not None and fired >= budget:
                return False
            self._fired[key] = fired + 1
            return True

    def fired(self, kind: Optional[str] = None) -> int:
        """Total arms, optionally restricted to one fault kind."""
        with self._lock:
            return sum(
                count for (_, k), count in self._fired.items()
                if kind is None or k == kind
            )

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                f"{index}:{kind}": count
                for (index, kind), count in sorted(self._fired.items())
            }


class ChaosProxy:
    """Seeded fault-injecting TCP proxy in front of one upstream.

    Args:
        upstream: ``(host, port)`` of the real service (the gateway).
        faults: :class:`NetFault` list, armed per connection in order.
        seed: Base seed for the per-connection randomness streams.
        host / port: Listen address; port 0 picks an ephemeral port
            (read :attr:`port` after :meth:`start`).

    Use as a context manager or ``start()`` / ``close()``.  ``close``
    tears down the listener and every tracked socket, which unblocks
    all pump threads.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        faults: Tuple[NetFault, ...] = (),
        *,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        buffer_bytes: int = 65536,
    ):
        self.upstream = (upstream[0], int(upstream[1]))
        self.faults = tuple(faults)
        self.seed = int(seed)
        self.host = host
        self.port = port
        self.buffer_bytes = buffer_bytes
        self.ledger = FireLedger()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = False
        self._lock = threading.Lock()
        self._socks: set = set()
        self._threads: List[threading.Thread] = []
        self._connections = 0
        self._bytes = {"up": 0, "down": 0}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ChaosProxy":
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="netchaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        thread, self._accept_thread = self._accept_thread, None
        if thread is not None:
            thread.join(timeout=5)
        with self._lock:
            socks = list(self._socks)
            threads = list(self._threads)
            self._socks.clear()
            self._threads.clear()
        for sock in socks:
            _close_quietly(sock)
        for worker in threads:
            worker.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def fired(self, kind: Optional[str] = None) -> int:
        return self.ledger.fired(kind)

    def stats(self) -> Dict:
        with self._lock:
            return {
                "connections": self._connections,
                "bytes_up": self._bytes["up"],
                "bytes_down": self._bytes["down"],
                "fired": self.ledger.snapshot(),
            }

    # -- accept / connection handling ----------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                index = self._connections
                self._connections += 1
            # Arm faults for this connection NOW, in fault order, so
            # the schedule depends only on the accept sequence.
            armed = [
                fault for key, fault in enumerate(self.faults)
                if self.ledger.claim((key, fault.kind), fault.budget)
            ]
            rng = random.Random(self.seed * _SEED_STRIDE + index)
            self._track(client)
            worker = threading.Thread(
                target=self._handle_connection,
                args=(client, armed, rng),
                name=f"netchaos-conn-{index}",
                daemon=True,
            )
            with self._lock:
                # Forget finished connections so a long-lived proxy
                # tracks only the live ones; close() joins those.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(worker)
            worker.start()

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._socks.add(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._lock:
            self._socks.discard(sock)

    def _handle_connection(
        self,
        client: socket.socket,
        armed: List[NetFault],
        rng: random.Random,
    ) -> None:
        blackholes = [f for f in armed if f.kind == "blackhole"]
        if blackholes:
            self._blackhole(client, blackholes[0])
            return
        try:
            upstream = socket.create_connection(self.upstream, timeout=5.0)
        except OSError:
            _close_quietly(client)
            self._untrack(client)
            return
        self._track(upstream)
        # Two pump threads per connection; the rng is shared between
        # directions but each draw sequence is deterministic because
        # each pump gets its own derived stream.
        up_rng = random.Random(rng.getrandbits(64))
        down_rng = random.Random(rng.getrandbits(64))
        pumps = [
            threading.Thread(
                target=self._pump,
                args=(client, upstream, client, "up", armed, up_rng),
                name="netchaos-up", daemon=True,
            ),
            threading.Thread(
                target=self._pump,
                args=(upstream, client, client, "down", armed, down_rng),
                name="netchaos-down", daemon=True,
            ),
        ]
        for pump in pumps:
            pump.start()
        # Both sockets stay tracked (so close() can unblock either
        # pump) until both directions are done; only then close them.
        for pump in pumps:
            pump.join()
        for sock in (client, upstream):
            _close_quietly(sock)
            self._untrack(sock)

    def _blackhole(self, client: socket.socket, fault: NetFault) -> None:
        """Accept-then-silence: hold the socket, answer nothing."""
        deadline = time.monotonic() + fault.hold_s
        while self._running and time.monotonic() < deadline:
            time.sleep(0.05)
        _close_quietly(client)
        self._untrack(client)

    # -- the byte pump -------------------------------------------------------

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        client: socket.socket,
        direction: str,
        armed: List[NetFault],
        rng: random.Random,
    ) -> None:
        faults = [f for f in armed if f.applies(direction)]
        latency = [f for f in faults if f.kind == "latency"]
        throttles = [f for f in faults if f.kind == "throttle"]
        splits = [f for f in faults if f.kind == "split"]
        slows = [f for f in faults if f.kind == "slow-send"]
        resets = [f for f in faults if f.kind == "reset"]
        forwarded = 0
        try:
            while True:
                try:
                    data = src.recv(self.buffer_bytes)
                except OSError:
                    break
                if not data:
                    # Half-close: propagate EOF without killing the
                    # opposite direction (keep-alive responses may
                    # still be in flight the other way).
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    break
                for fault in latency:
                    delay = fault.delay_ms + fault.jitter_ms * rng.random()
                    time.sleep(delay / 1000.0)
                for fault in throttles:
                    time.sleep(len(data) / fault.rate_bps)
                for fault in resets:
                    if forwarded + len(data) > fault.after_bytes:
                        head = data[:max(0, fault.after_bytes - forwarded)]
                        if head:
                            dst.sendall(head)
                            self._count(direction, len(head))
                        self._reset(client)
                        _close_quietly(src)
                        _close_quietly(dst)
                        return
                if slows:
                    piece = max(1, slows[0].chunk_bytes)
                    pause = slows[0].pause_ms / 1000.0
                    for start in range(0, len(data), piece):
                        dst.sendall(data[start:start + piece])
                        time.sleep(pause)
                elif splits:
                    bound = max(1, splits[0].chunk_bytes)
                    view = memoryview(data)
                    start = 0
                    while start < len(view):
                        size = rng.randint(1, bound)
                        dst.sendall(view[start:start + size])
                        start += size
                else:
                    dst.sendall(data)
                forwarded += len(data)
                self._count(direction, len(data))
        except OSError:
            pass

    def _reset(self, client: socket.socket) -> None:
        """Hard-reset the client side: SO_LINGER 0 turns close into RST.

        The opposite pump is blocked in ``recv`` on this socket, and an
        in-flight recv holds the open file description alive -- close()
        alone would defer the TCP teardown (and the RST) until that
        recv returns.  ``shutdown(SHUT_RD)`` wakes it without touching
        the wire, so the linger-0 close aborts promptly.
        """
        try:
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        try:
            client.shutdown(socket.SHUT_RD)
        except OSError:
            pass
        try:
            client.close()
        except OSError:
            pass

    def _count(self, direction: str, nbytes: int) -> None:
        with self._lock:
            self._bytes[direction] += nbytes

    def __repr__(self) -> str:
        state = "listening" if self._listener is not None else "stopped"
        return (f"<ChaosProxy {state} {self.host}:{self.port} -> "
                f"{self.upstream[0]}:{self.upstream[1]} "
                f"faults={len(self.faults)}>")


def _close_quietly(sock: socket.socket) -> None:
    # shutdown() first: a thread blocked in recv on this socket keeps
    # the open file description referenced, so a bare close() would
    # leave the TCP teardown (and that thread) pending indefinitely.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
