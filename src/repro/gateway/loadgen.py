"""Closed-loop million-user-shaped load harness for the gateway.

``python -m repro loadtest`` boots a real in-process :class:`Gateway`
(ephemeral port, demo tenants) over a small compiled network and drives
it with a mix of arrival processes over actual HTTP connections -- the
same code path a production load balancer would exercise, minus the
NIC:

* **steady-closed** -- N virtual users in a classic closed loop (send,
  await, repeat): the throughput-under-think-time shape.
* **poisson-open** -- open-loop Poisson arrivals from a seeded RNG:
  the independent-users shape; arrival times do not wait for answers.
* **flash-crowd** -- synchronized bursts of simultaneous requests:
  the thundering-herd shape that exercises micro-batch coalescing.
* **tenant-skew** -- one burst-only tenant hammers past its token
  bucket while polite tenants proceed: pins the **429** contract.
* **deadline-storm** -- the dispatcher is held busy (chaos-injection
  idiom, as in ``tests/serve``) while requests with 1 ms deadlines
  queue behind it: pins the **504** contract.
* **breaker-open** -- the backend's pool breaker is tripped before
  traffic arrives: pins the **503** admission contract.
* **node-failure** -- the backend is a two-node
  :class:`~repro.cluster.ClusterServer`; one node dies mid-run
  (workers SIGKILLed while serving) and the router's exactly-once
  re-dispatch keeps every client answer a **200** -- node death is
  invisible at the HTTP edge.

With ``--proxy`` the whole campaign is replayed through a seeded
:mod:`repro.netchaos` chaos proxy carrying a benign degraded-network
profile (tiny TCP fragments everywhere, a few milliseconds of seeded
latency on early responses): the deterministic status expectations
must hold unchanged on the bad network; only the latency columns move.

Every scenario builds a **fresh** backend from one shared compiled plan
and enters :func:`~repro.gateway.server.serving_edge` over it
(per-scenario counters start at zero), and each
carries its *expected* deterministic status counts: the campaign
``passed`` verdict asserts statuses match expectations exactly, while
client-side p50/p99 latency and throughput are measured and recorded as
informational (wall clock is never pinned --
``benchmarks/bench_gateway.py --check`` pins the deterministic fields
only, in ``BENCH_gateway.json``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gateway.protocol import parse_response_head
from repro.gateway.server import serving_edge
from repro.serve import CircuitBreaker, InferenceServer
from repro.serve.metrics import _percentile

LOADTEST_SCHEMA = "repro.gateway.loadtest/v1"

#: Demo credentials (see :func:`repro.gateway.auth.demo_tenants`).
KEY_A = "demo-key-a"
KEY_B = "demo-key-b"
KEY_BURST = "demo-key-burst"

WORKLOAD = {"sizes": (11, 8, 5), "chip_n": 4, "sc_per_npe": 8, "seed": 41}


# -- minimal asyncio HTTP client ---------------------------------------------


class HttpConnection:
    """One keep-alive HTTP/1.1 client connection (asyncio streams)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _ensure_open(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(
        self,
        method: str,
        path: str,
        *,
        headers: Sequence[Tuple[str, str]] = (),
        body: bytes = b"",
    ) -> Tuple[int, bytes]:
        """Send one request, return ``(status, body)``."""
        await self._ensure_open()
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 f"Content-Length: {len(body)}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        frame = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        self._writer.write(frame)
        await self._writer.drain()
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ConnectionError("server closed the connection "
                                  "mid-response")
        status, resp_headers, length = parse_response_head(head)
        payload = await self._reader.readexactly(length) if length else b""
        if resp_headers.get("connection", "").lower() == "close":
            await self.close()
        return status, payload

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _infer_body(train: np.ndarray,
                deadline_ms: Optional[float] = None) -> bytes:
    payload: Dict = {"spike_train": train.astype(int).tolist()}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return json.dumps(payload).encode("utf-8")


# -- scenario plumbing -------------------------------------------------------


class _Collector:
    """Per-scenario outcome accumulator (single event loop, no lock)."""

    def __init__(self):
        self.statuses: Dict[str, int] = {}
        self.rejections: Dict[str, int] = {}
        self.latencies_ms: List[float] = []

    def record(self, status: int, body: bytes, latency_ms: float) -> None:
        key = str(status)
        self.statuses[key] = self.statuses.get(key, 0) + 1
        self.latencies_ms.append(latency_ms)
        if status >= 400:
            try:
                code = json.loads(body.decode("utf-8"))["error"]["code"]
            except (ValueError, KeyError):
                code = "unparsed"
            self.rejections[code] = self.rejections.get(code, 0) + 1

    def summary(self, name: str, mode: str, elapsed_s: float,
                expected: Dict[str, int]) -> Dict:
        sent = sum(self.statuses.values())
        ordered = sorted(self.latencies_ms)
        return {
            "name": name,
            "mode": mode,
            "sent": sent,
            "statuses": dict(sorted(self.statuses.items())),
            "expected_statuses": dict(sorted(expected.items())),
            "passed": self.statuses == expected,
            "rejections": dict(sorted(self.rejections.items())),
            "latency_ms_p50": round(_percentile(ordered, 0.50), 3),
            "latency_ms_p99": round(_percentile(ordered, 0.99), 3),
            "latency_ms_max": round(ordered[-1], 3) if ordered else 0.0,
            "throughput_rps": round(sent / elapsed_s, 1) if elapsed_s
            else 0.0,
            "elapsed_s": round(elapsed_s, 3),
        }


async def _timed_request(
    conn: HttpConnection,
    collector: _Collector,
    api_key: str,
    body: bytes,
) -> int:
    start = time.perf_counter()
    status, payload = await conn.request(
        "POST", "/infer", headers=(("X-API-Key", api_key),), body=body
    )
    collector.record(status, payload,
                     (time.perf_counter() - start) * 1000.0)
    return status


def _make_trains(rng: np.random.Generator, count: int, steps: int,
                 in_features: int) -> List[np.ndarray]:
    return [
        (rng.random((steps, in_features)) < 0.3).astype(float)
        for _ in range(count)
    ]


#: Benign degraded-network profile for ``--proxy`` runs: every frame is
#: fragmented into tiny TCP pieces, and the first few responses pick up
#: a couple of milliseconds of seeded latency.  Nothing here may change
#: a status code -- the campaign's deterministic expectations must hold
#: on a bad network too; only the latency columns are allowed to move.
_PROXY_FAULTS = (
    ("split", dict(budget=None, direction="both", chunk_bytes=96)),
    ("latency", dict(budget=8, direction="down", delay_ms=2.0,
                     jitter_ms=1.0)),
)


def _serving(server, proxy: bool):
    """Enter the serving edge over one scenario's fresh, unstarted
    ``server``; with ``proxy`` its clients aim at a seeded chaos proxy
    carrying :data:`_PROXY_FAULTS`."""
    faults = None
    if proxy:
        from repro.netchaos import NetFault

        faults = tuple(NetFault(kind, **opts) for kind, opts in _PROXY_FAULTS)
    return serving_edge(server, queue_limit=4096, proxy_faults=faults,
                        proxy_seed=23)


# -- the scenarios -----------------------------------------------------------


def _scenario_steady_closed(compiled, quick: bool, seed: int,
                    proxy: bool = False) -> Dict:
    users = 6 if quick else 16
    per_user = 5 if quick else 25
    rng = np.random.default_rng(seed)
    with _serving(InferenceServer(compiled=compiled, batch_max=64),
                  proxy) as edge:
        trains = _make_trains(rng, users, 12, compiled.in_features)
        collector = _Collector()

        async def user(i: int) -> None:
            conn = HttpConnection(*edge.address)
            key = KEY_A if i % 2 == 0 else KEY_B
            try:
                for _ in range(per_user):
                    await _timed_request(conn, collector, key,
                                         _infer_body(trains[i]))
            finally:
                await conn.close()

        async def drive() -> None:
            await asyncio.gather(*(user(i) for i in range(users)))

        start = time.perf_counter()
        asyncio.run(drive())
        elapsed = time.perf_counter() - start
    return collector.summary(
        "steady-closed", "closed-loop", elapsed,
        expected={"200": users * per_user},
    )


def _scenario_poisson_open(compiled, quick: bool, seed: int,
                    proxy: bool = False) -> Dict:
    arrivals = 40 if quick else 200
    rate_per_s = 300.0
    rng = np.random.default_rng(seed + 1)
    gaps = rng.exponential(1.0 / rate_per_s, size=arrivals)
    with _serving(InferenceServer(compiled=compiled, batch_max=64),
                  proxy) as edge:
        trains = _make_trains(rng, 8, 12, compiled.in_features)
        collector = _Collector()

        async def one_shot(i: int) -> None:
            conn = HttpConnection(*edge.address)
            key = KEY_A if i % 2 == 0 else KEY_B
            try:
                await _timed_request(conn, collector, key,
                                     _infer_body(trains[i % len(trains)]))
            finally:
                await conn.close()

        async def drive() -> None:
            tasks = []
            for i in range(arrivals):
                await asyncio.sleep(gaps[i])
                tasks.append(asyncio.ensure_future(one_shot(i)))
            await asyncio.gather(*tasks)

        start = time.perf_counter()
        asyncio.run(drive())
        elapsed = time.perf_counter() - start
    return collector.summary(
        "poisson-open", "open-loop", elapsed,
        expected={"200": arrivals},
    )


def _scenario_flash_crowd(compiled, quick: bool, seed: int,
                    proxy: bool = False) -> Dict:
    waves = 3 if quick else 6
    width = 16 if quick else 48
    rng = np.random.default_rng(seed + 2)
    with _serving(InferenceServer(compiled=compiled, batch_max=64),
                  proxy) as edge:
        trains = _make_trains(rng, width, 12, compiled.in_features)
        collector = _Collector()

        async def crash_in(i: int) -> None:
            conn = HttpConnection(*edge.address)
            key = KEY_A if i % 2 == 0 else KEY_B
            try:
                await _timed_request(conn, collector, key,
                                     _infer_body(trains[i]))
            finally:
                await conn.close()

        async def drive() -> None:
            for _ in range(waves):
                await asyncio.gather(
                    *(crash_in(i) for i in range(width))
                )
                await asyncio.sleep(0.02)

        start = time.perf_counter()
        asyncio.run(drive())
        elapsed = time.perf_counter() - start
    return collector.summary(
        "flash-crowd", "open-loop", elapsed,
        expected={"200": waves * width},
    )


def _scenario_tenant_skew(compiled, quick: bool, seed: int,
                    proxy: bool = False) -> Dict:
    # tenant-burst has burst=10 and rate_per_s=0 (never refills), so a
    # sequential closed loop of `greedy` requests deterministically
    # yields 10 accepts + (greedy - 10) rate-limit rejections.
    greedy = 25 if quick else 60
    polite = 5 if quick else 20
    rng = np.random.default_rng(seed + 3)
    with _serving(InferenceServer(compiled=compiled, batch_max=64),
                  proxy) as edge:
        trains = _make_trains(rng, 4, 12, compiled.in_features)
        collector = _Collector()

        async def drive() -> None:
            conn = HttpConnection(*edge.address)
            try:
                for i in range(greedy):
                    await _timed_request(conn, collector, KEY_BURST,
                                         _infer_body(trains[i % 4]))
                for i in range(polite):
                    key = KEY_A if i % 2 == 0 else KEY_B
                    await _timed_request(conn, collector, key,
                                         _infer_body(trains[i % 4]))
            finally:
                await conn.close()

        start = time.perf_counter()
        asyncio.run(drive())
        elapsed = time.perf_counter() - start
    return collector.summary(
        "tenant-skew", "closed-loop", elapsed,
        expected={"200": 10 + polite, "429": greedy - 10},
    )


def _scenario_deadline_storm(compiled, quick: bool, seed: int,
                    proxy: bool = False) -> Dict:
    # Hold the dispatcher busy (chaos-injection idiom: wrap _forward
    # with a sleep, exactly as tests/serve does) while doomed requests
    # with 1 ms deadlines pile up behind the blocker; every one of them
    # expires at dispatch -> 504.
    doomed = 12 if quick else 40
    hold_s = 1.2
    rng = np.random.default_rng(seed + 4)
    with _serving(InferenceServer(compiled=compiled, batch_max=64),
                  proxy) as edge:
        trains = _make_trains(rng, 2, 12, compiled.in_features)
        collector = _Collector()
        original = edge.server._forward

        def held_forward(rows):
            time.sleep(hold_s)
            return original(rows)

        edge.server._forward = held_forward
        try:
            async def drive() -> None:
                blocker_conn = HttpConnection(*edge.address)
                blocker = asyncio.ensure_future(_timed_request(
                    blocker_conn, collector, KEY_A, _infer_body(trains[0])
                ))
                await asyncio.sleep(0.15)  # let the dispatcher take it

                async def one_doomed() -> None:
                    conn = HttpConnection(*edge.address)
                    try:
                        await _timed_request(
                            conn, collector, KEY_B,
                            _infer_body(trains[1], deadline_ms=1.0),
                        )
                    finally:
                        await conn.close()

                await asyncio.gather(*(one_doomed()
                                       for _ in range(doomed)))
                await blocker
                await blocker_conn.close()

            start = time.perf_counter()
            asyncio.run(drive())
            elapsed = time.perf_counter() - start
        finally:
            edge.server._forward = original
    return collector.summary(
        "deadline-storm", "open-loop", elapsed,
        expected={"200": 1, "504": doomed},
    )


def _scenario_breaker_open(compiled, quick: bool, seed: int,
                    proxy: bool = False) -> Dict:
    # Trip the pool breaker before traffic arrives (a long cool-down
    # keeps it open for the whole scenario): admission control sheds
    # every request at the edge with a typed 503.
    shots = 10 if quick else 30
    rng = np.random.default_rng(seed + 5)
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=300.0)
    with _serving(InferenceServer(compiled=compiled, batch_max=64,
                                  breaker=breaker), proxy) as edge:
        edge.server.breaker.record_failure()
        assert edge.server.breaker.state == "open"
        trains = _make_trains(rng, 2, 12, compiled.in_features)
        collector = _Collector()

        async def drive() -> None:
            conn = HttpConnection(*edge.address)
            try:
                for _ in range(shots):
                    await _timed_request(conn, collector, KEY_A,
                                         _infer_body(trains[0]))
            finally:
                await conn.close()

        start = time.perf_counter()
        asyncio.run(drive())
        elapsed = time.perf_counter() - start
    return collector.summary(
        "breaker-open", "closed-loop", elapsed,
        expected={"503": shots},
    )


def _scenario_node_failure(compiled, quick: bool, seed: int,
                    proxy: bool = False) -> Dict:
    from repro.cluster import ClusterServer

    # Two-node cluster backend; after the first wave a node dies
    # *mid-batch* (its workers are SIGKILLed while it serves, the
    # chaos-harness idiom from `node-kill`).  The router re-dispatches
    # the in-flight request exactly once and routes the rest around the
    # corpse, so the client-visible contract is every request -> 200.
    shots_before = 6 if quick else 20
    shots_after = 6 if quick else 20
    rng = np.random.default_rng(seed + 6)
    # supervise_interval_s=0: the scenario drives failure handling
    # through the router's dispatch path deterministically.
    with _serving(ClusterServer(compiled=compiled, batch_max=64, nodes=2,
                                node_workers=2, supervise_interval_s=0),
                  proxy) as edge:
        trains = _make_trains(rng, shots_before + shots_after, 12,
                              compiled.in_features)
        collector = _Collector()
        router = edge.server.router
        assert router.alive_count() == 2

        async def drive() -> None:
            conn = HttpConnection(*edge.address)
            try:
                for i in range(shots_before):
                    await _timed_request(conn, collector, KEY_A,
                                         _infer_body(trains[i]))
                # Arm mid-batch death on the node that owns the next
                # request's affinity key: it dies while serving that
                # request, losing the answer with the "host".
                rows = np.ascontiguousarray(trains[shots_before],
                                            dtype=np.float64)
                victim = router.node(
                    router._ring.route(router.affinity_key(rows))
                )
                original_forward = victim._forward

                def dying_forward(batch_rows):
                    victim.kill()
                    return original_forward(batch_rows)

                victim._forward = dying_forward
                for i in range(shots_before,
                               shots_before + shots_after):
                    await _timed_request(conn, collector, KEY_A,
                                         _infer_body(trains[i]))
                assert victim.state == "dead"
            finally:
                await conn.close()

        start = time.perf_counter()
        asyncio.run(drive())
        elapsed = time.perf_counter() - start
        # The failure was real and the recovery exact: one node left,
        # exactly one re-dispatch, the corpse out of the hash ring.
        assert router.alive_count() == 1
        assert router.retries == 1
        assert router.evictions == 1
    return collector.summary(
        "node-failure", "closed-loop", elapsed,
        expected={"200": shots_before + shots_after},
    )


SCENARIOS: Dict[str, Callable] = {
    "steady-closed": _scenario_steady_closed,
    "poisson-open": _scenario_poisson_open,
    "flash-crowd": _scenario_flash_crowd,
    "tenant-skew": _scenario_tenant_skew,
    "deadline-storm": _scenario_deadline_storm,
    "breaker-open": _scenario_breaker_open,
    "node-failure": _scenario_node_failure,
}


# -- campaign ----------------------------------------------------------------


def _compile_workload():
    from repro.harness import random_binarized_network
    from repro.ssnn import compile_network

    rng = np.random.default_rng(WORKLOAD["seed"])
    network = random_binarized_network(
        rng, sizes=WORKLOAD["sizes"], sc_per_npe=WORKLOAD["sc_per_npe"]
    )
    return compile_network(
        network, WORKLOAD["chip_n"], WORKLOAD["sc_per_npe"]
    )


def run_loadtest(
    quick: bool = False,
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 7,
    proxy: bool = False,
) -> Dict:
    """Run the load campaign; returns the ``repro.gateway.loadtest/v1``
    report.  ``passed`` is ``True`` iff every scenario's observed
    status counts equal its deterministic expectation.  With ``proxy``
    every scenario's traffic crosses a :class:`~repro.netchaos`
    chaos proxy with a benign degraded-network profile -- the same
    status expectations must hold, only latency may move."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenarios: {unknown}; have {list(SCENARIOS)}"
        )
    compiled = _compile_workload()
    results = []
    for name in names:
        results.append(SCENARIOS[name](compiled, quick, seed, proxy))
    totals_statuses: Dict[str, int] = {}
    totals_rejections: Dict[str, int] = {}
    for entry in results:
        for status, count in entry["statuses"].items():
            totals_statuses[status] = totals_statuses.get(status, 0) + count
        for code, count in entry["rejections"].items():
            totals_rejections[code] = (
                totals_rejections.get(code, 0) + count
            )
    return {
        "schema": LOADTEST_SCHEMA,
        "quick": quick,
        "proxy": proxy,
        "workload": {**WORKLOAD, "sizes": list(WORKLOAD["sizes"]),
                     "fingerprint": compiled.fingerprint},
        "scenarios": results,
        "totals": {
            "sent": sum(e["sent"] for e in results),
            "statuses": dict(sorted(totals_statuses.items())),
            "rejections": dict(sorted(totals_rejections.items())),
        },
        "passed": all(e["passed"] for e in results),
    }


def format_report(report: Dict) -> str:
    lines = [
        f"gateway load campaign "
        f"({'quick' if report['quick'] else 'full'}"
        f"{', degraded network' if report.get('proxy') else ''}) -- "
        f"{'PASS' if report['passed'] else 'FAIL'}",
        f"  workload: sizes={report['workload']['sizes']} "
        f"plan={report['workload']['fingerprint'][:12]}",
    ]
    for entry in report["scenarios"]:
        verdict = "ok" if entry["passed"] else "MISMATCH"
        statuses = " ".join(f"{k}:{v}"
                            for k, v in entry["statuses"].items())
        lines.append(
            f"  {entry['name']:>15} [{entry['mode']:>11}] {verdict:>8}  "
            f"{statuses:<24} p50={entry['latency_ms_p50']}ms "
            f"p99={entry['latency_ms_p99']}ms "
            f"{entry['throughput_rps']} req/s"
        )
    totals = report["totals"]
    lines.append(f"  totals: sent={totals['sent']} "
                 f"statuses={totals['statuses']} "
                 f"rejections={totals['rejections']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadtest",
        description="Drive the gateway with a mixed open/closed-loop "
                    "load campaign (see docs/GATEWAY.md).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small request counts (CI-sized)")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        choices=sorted(SCENARIOS),
                        help="run only this scenario (repeatable)")
    parser.add_argument("--proxy", action="store_true",
                        help="route all traffic through the netchaos "
                             "proxy (benign degraded-network profile; "
                             "status expectations must still hold)")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    args = parser.parse_args(argv)
    report = run_loadtest(quick=args.quick, scenarios=args.scenarios,
                          proxy=args.proxy)
    print(format_report(report))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
