"""http-online: the network edge as users reach it.

A server process of its own (:mod:`serve`) serves the pinned 784-512-10
plan over HTTP.  This process is the load generator: one single-threaded
asyncio loop over two keep-alive connections, with request bodies
(T=2 x 784 spike trains) JSON-encoded during set-up.  Requests alternate
at random between the server's two tenants and each carries a unique
``Idempotency-Key``, so the gateway's ledger runs at its cap.

* Open loop: Poisson arrivals at ``OPEN_RATE_PER_S``, well below
  capacity; each request is timed from its due time.  Gives the latency
  metrics.
* Closed loop: both connections send back to back.  With at most two
  requests in flight this is the highest rate served without a backlog.
  Gives ``throughput_per_s``.

The run alternates the two, one window of each in each of ``WINDOWS``
blocks, and each figure is the median over the windows (of the window's
median, p90 or rate).  A shared host runs this machine at two speeds for
tens of seconds at a time; alternating lets both loops sample it over the
whole run, and a host stall of a few seconds moves one window instead of
the whole run, where in the open loop it would queue every later request
behind it.

Every 200's prediction and rates must equal a serial ``forward_rows``
reference computed during set-up; any other status or answer fails the op.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import selectors
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import CHIP_N, SC_PER_NPE, SETUP_REPEATS, TAIL_PERCENTILE, \
    Outcome, build_network, mean, median, percentile, tail

HERE = Path(__file__).resolve().parent
STEPS = 2
DISTINCT_BODIES = 256
CONNECTIONS = 2
OPEN_RATE_PER_S = 100.0
#: Share of ``--seconds`` spent in the open loop.
OPEN_SHARE = 0.5
LAG_PERCENTILE = 99.0
#: Blocks of one open-loop and one closed-loop window each.
WINDOWS = 7
_LENGTH = re.compile(rb"Content-Length: (\d+)")


class ServerProcess:
    """One :mod:`serve` process; ``stop`` returns its final report."""

    def __init__(self, plans_dir: Path, trace: bool):
        command = [sys.executable, str(HERE / "serve.py"),
                   "--plans", str(plans_dir)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.args = self._read_json(timeout_s=120)

    def _read_json(self, timeout_s: float) -> dict:
        watchdog = threading.Timer(timeout_s, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(f"server exited with {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        report = self._read_json(timeout_s=60)
        self.proc.wait(timeout=60)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Requests:
    """Pre-encoded bodies, their reference answers, and request framing."""

    def __init__(self, seed: int):
        import numpy as np
        from repro.harness.differential import random_spike_trains
        from repro.ssnn import compile_network

        from serve import TENANTS

        network = build_network()
        rng = np.random.default_rng(seed)
        trains = random_spike_trains(rng, STEPS, DISTINCT_BODIES,
                                     network.in_features)
        plan = compile_network(network, CHIP_N, SC_PER_NPE)
        decisions, _, _ = plan.forward_rows(
            trains.reshape(STEPS * DISTINCT_BODIES, -1)
        )
        rates = decisions.reshape(STEPS, DISTINCT_BODIES, -1).mean(axis=0)
        self.expected = [(int(r.argmax()), [float(x) for x in r])
                         for r in rates]
        self.tails = []
        for i in range(DISTINCT_BODIES):
            body = json.dumps(
                {"spike_train": trains[:, i, :].astype(int).tolist()},
                separators=(",", ":"),
            ).encode()
            self.tails.append(
                b"Content-Type: application/json\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body
            )
        self.keys = [key for _, key in TENANTS]
        self.seed = seed
        self._rng = random.Random(seed)
        self.sent = 0

    def next(self):
        """(request bytes, body index) of the next request."""
        index = self._rng.randrange(DISTINCT_BODIES)
        key = self.keys[self._rng.randrange(len(self.keys))]
        self.sent += 1
        head = (f"POST /infer HTTP/1.1\r\nHost: bench\r\nX-API-Key: {key}"
                f"\r\nIdempotency-Key: pb-{self.seed}-{self.sent}\r\n")
        return head.encode() + self.tails[index], index


class Client:
    """The asyncio side: connections, calls and answer checks."""

    def __init__(self, port: int, requests: Requests, out: Outcome):
        self.port = port
        self.requests = requests
        self.out = out
        self.rejected = {}

    async def connect(self):
        return await asyncio.open_connection("127.0.0.1", self.port)

    async def call(self, conn):
        """Send the next request; returns (ok, response payload)."""
        payload, index = self.requests.next()
        reader, writer = conn
        writer.write(payload)
        head = await reader.readuntil(b"\r\n\r\n")
        body = await reader.readexactly(int(_LENGTH.search(head).group(1)))
        status = int(head[9:12])
        self.out.attempted += 1
        answer = json.loads(body)
        if status != 200:
            code = f"{status} {answer.get('error', {}).get('code')}"
            self.rejected[code] = self.rejected.get(code, 0) + 1
            self.out.failed += 1
            return False, answer
        prediction, rates = self.requests.expected[index]
        if answer["prediction"] != prediction or answer["rates"] != rates:
            self.out.wrong(f"request {self.requests.sent}: answer "
                           f"{answer['prediction']} != reference {prediction}")
            return False, answer
        return True, answer

    async def open_loop(self, conns, seconds: float,
                        arrivals: random.Random):
        """Poisson arrivals; per request (due, queued, sent, done, ok,
        answer)."""
        queue: asyncio.Queue = asyncio.Queue()
        records = []

        async def sender(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return
                sent = time.perf_counter()
                ok, answer = await self.call(conn)
                records.append((*item, sent, time.perf_counter(), ok, answer))

        senders = [asyncio.create_task(sender(c)) for c in conns]
        start = due = time.perf_counter()
        while True:
            due += arrivals.expovariate(OPEN_RATE_PER_S)
            if due > start + seconds:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((due, time.perf_counter()))
        for _ in conns:
            queue.put_nowait(None)
        await asyncio.gather(*senders)
        return records

    async def closed_loop(self, conns, seconds: float):
        """Back to back on every connection; (sent, done, ok, answer)."""
        records = []
        stop = time.perf_counter() + seconds

        async def caller(conn):
            while time.perf_counter() < stop:
                sent = time.perf_counter()
                ok, answer = await self.call(conn)
                records.append((sent, time.perf_counter(), ok, answer))

        start = time.perf_counter()
        await asyncio.gather(*(caller(c) for c in conns))
        return records, time.perf_counter() - start


def _run(coroutine):
    """Run on a select()-based loop: select takes microsecond timeouts where
    epoll rounds them up to whole milliseconds, which left the open-loop
    generator about a millisecond late on every request."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


async def _first_answer(client: Client) -> None:
    conn = await client.connect()
    try:
        ok, answer = await client.call(conn)
    finally:
        conn[1].close()
        await conn[1].wait_closed()
    if not ok:
        raise RuntimeError(f"first request failed: {answer}")


def run(seed: int, seconds: float, trace: bool, run_dir) -> Outcome:
    out = Outcome()
    requests = Requests(seed)
    setups, server = [], None
    try:
        for k in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server.kill()
            start = time.perf_counter()
            server = ServerProcess(run_dir / f"plans-{k}", trace)
            client = Client(server.args["bound_port"], requests, Outcome())
            _run(_first_answer(client))
            setups.append(time.perf_counter() - start)
        client = Client(server.args["bound_port"], requests, out)
        blocks = _run(_drive(client, seconds, seed))
        report = server.stop()
    finally:
        if server is not None:
            server.kill()

    open_records = [r for opened, _, _ in blocks for r in opened]
    closed_records = [r for _, closed, _ in blocks for r in closed]
    # Requests fall due all through an open-loop window, so only a very
    # short run leaves one empty; in the closed loop an empty window is a
    # stall and counts as zero throughput.
    windows = [[(done - due) * 1e3 for due, _, _, done, _, _ in opened]
               for opened, _, _ in blocks if opened]
    tails = [tail(w, TAIL_PERCENTILE) for w in windows]
    latency = {"latency_p50_ms": median([median(w) for w in windows]),
               "latency_tail_ms": median([value for value, _ in tails])}
    fewest = min(beyond for _, beyond in tails)
    if fewest < 10:
        out.errors.append(f"a window's p{TAIL_PERCENTILE:g} has only "
                          f"{fewest} samples beyond it (< 10)")
    lags = [(queued - due) * 1e3 for due, queued, *_ in open_records]
    out.info.update({
        "loop": (f"{WINDOWS} blocks of an open-loop window (Poisson "
                 f"{OPEN_RATE_PER_S:g}/s over {CONNECTIONS} connections) "
                 f"then a closed-loop window ({CONNECTIONS} connections)"),
        "server": server.args,
        "open_requests": len(open_records),
        "closed_requests": len(closed_records),
        "rejected": client.rejected,
        "loadgen_lag_p99_ms": percentile(lags, LAG_PERCENTILE),
        "setup_s_samples": setups,
        "windows_per_phase": WINDOWS,
        "latency_samples": len(open_records),
        "latency_tail": {"percentile": TAIL_PERCENTILE,
                         "fewest_beyond_in_a_window": fewest},
    })
    # The generator's own lateness is charged to every request (latency
    # runs from the due time), so it must stay small next to the median.
    out.info["loadgen_valid"] = (
        out.info["loadgen_lag_p99_ms"] < 0.5 * latency["latency_p50_ms"]
    )
    if not trace:
        out.metrics = {
            "throughput_per_s": median([
                sum(ok for _, _, ok, _ in closed) / closed_s
                for _, closed, closed_s in blocks
            ]),
            **latency,
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": median(setups),
        }
        return out
    out.metrics = _layers(report["trace"], blocks, client, out)
    out.metrics["loadgen.lag_ms"] = out.info["loadgen_lag_p99_ms"]
    out.info["traced_latency_p50_ms"] = latency["latency_p50_ms"]
    return out


async def _drive(client: Client, seconds: float, seed: int):
    """``WINDOWS`` blocks of (open-loop records, closed-loop records,
    closed-loop seconds)."""
    conns = [await client.connect() for _ in range(CONNECTIONS)]
    arrivals = random.Random(seed ^ 0x5EED)
    blocks = []
    try:
        for _ in range(WINDOWS):
            opened = await client.open_loop(
                conns, seconds * OPEN_SHARE / WINDOWS, arrivals
            )
            closed, closed_s = await client.closed_loop(
                conns, seconds * (1 - OPEN_SHARE) / WINDOWS
            )
            blocks.append((opened, closed, closed_s))
    finally:
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
    return blocks


def _layers(trace: dict, blocks, client, out) -> dict:
    """Per-layer metrics of the open-loop windows (batch size: closed loop).

    The server records requests in the order they are parsed or answered.
    Each window ends only when all its answers are in, so the records come
    in the blocks' order: first the kept server's set-up probe, then each
    block's open-loop requests followed by its closed-loop ones.
    """
    spans, first = [], 1
    for opened, closed, _ in blocks:
        spans.append((first, first + len(opened)))
        first += len(opened) + len(closed)

    def open_loop_part(records):
        return [r for lo, hi in spans for r in records[lo:hi]]

    open_records = [r for opened, _, _ in blocks for r in opened]
    closed_records = [r for _, closed, _ in blocks for r in closed]
    served = [r for r in open_records if r[4]]
    overhead = [(done - sent) * 1e3 - answer["latency_ms"]
                for _, _, sent, done, _, answer in served]
    requests = open_loop_part(trace["requests"])
    queue_wait = [wait for wait, _ in requests]
    forward_per_request = [fwd for _, fwd in requests]
    parse_ms = open_loop_part(trace["parse_ms"])
    batches = [ms for parsed, _, ms in trace["batches"]
               if any(lo < parsed <= hi for lo, hi in spans)]
    stages = {
        "op": mean([(done - due) * 1e3
                    for due, _, _, done, _, _ in open_records]),
        "loadgen.lag": mean([(q - d) * 1e3 for d, q, *_ in open_records]),
        "client.connection_wait": mean([(s - q) * 1e3
                                        for _, q, s, *_ in open_records]),
        "gateway.overhead": mean(overhead),
        "serve.queue_wait": mean(queue_wait),
        "ssnn.compile.forward_rows": mean(forward_per_request),
    }
    out.info["stages_mean_ms"] = stages
    out.info["gateway_parse_share_of_overhead"] = (
        mean(parse_ms) / mean(overhead)
    )
    return {
        "gateway.overhead_ms": median(overhead),
        "gateway.parse_ms": median(parse_ms),
        "gateway.rejected": sum(client.rejected.values()),
        "serve.latency_ms": median([a["latency_ms"]
                                    for *_, a in served]),
        "serve.queue_wait_ms": median(queue_wait),
        "serve.batch_size": mean([a["batch_size"]
                                  for *_, ok, a in closed_records if ok]),
        "ssnn.compile.forward_rows_ms": median(batches),
    }
