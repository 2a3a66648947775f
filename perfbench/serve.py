"""The http-online server process: the 784-512-10 plan behind the gateway.

Started by :mod:`http_online` as ``python3 perfbench/serve.py --plans DIR
[--trace]``.  It compiles the pinned network through an empty plan cache in
``DIR``, serves it with ``InferenceServer(workers=0, batch_max=64,
deadline_ms=2.0)`` behind ``Gateway`` with ``AdmissionController
(queue_limit=1024)`` -- the ``python -m repro serve`` defaults, which serve
only the demo net -- and prints one JSON line with its arguments and bound
port.  A line on stdin stops it; it then prints one JSON line with its peak
RSS and, with ``--trace``, the per-request layer timings recorded by
wrapping ``parse_infer_request``, ``CompiledNetwork.forward_rows`` and
``InferenceServer.submit``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import CHIP_N, NETWORK_SEED, SC_PER_NPE, build_network, \
    ensure_program_importable, self_peak_rss_mb

#: The benchmark's own tenants: rate limits no reachable load can exhaust,
#: so a faster server never turns into 429s.
TENANTS = (("bench-a", "perfbench-key-a"), ("bench-b", "perfbench-key-b"))
TENANT_RATE_PER_S = 1e9
TENANT_BURST = 10 ** 9
SERVER_ARGS = {"workers": 0, "batch_max": 64, "deadline_ms": 2.0,
               "queue_limit": 1024, "port": 0}


class LayerTrace:
    """Per-request and per-batch timings, kept in memory until stop."""

    def __init__(self):
        self.parse_ms = []
        #: (requests parsed when the batch ran, rows, forward_rows ms)
        self.batches = []
        #: (queue wait ms, forward_rows ms of the request's batch)
        self.requests = []
        self.last_forward_ms = 0.0

    def install(self, server) -> None:
        import repro.gateway.server as gateway_server
        from repro.ssnn.compile import CompiledNetwork

        parse = gateway_server.parse_infer_request
        forward = CompiledNetwork.forward_rows
        submit = server.submit

        def timed_parse(body, in_features):
            start = time.perf_counter()
            try:
                return parse(body, in_features)
            finally:
                self.parse_ms.append((time.perf_counter() - start) * 1e3)

        def timed_forward(plan, rows):
            start = time.perf_counter()
            try:
                return forward(plan, rows)
            finally:
                ms = (time.perf_counter() - start) * 1e3
                self.last_forward_ms = ms
                self.batches.append((len(self.parse_ms), len(rows), ms))

        def on_done(future):
            # Runs on the dispatcher thread right after the batch's
            # forward_rows, so last_forward_ms is this request's batch.
            if future.cancelled() or future.exception() is not None:
                return
            latency_ms = future.result().latency_ms
            self.requests.append((latency_ms - self.last_forward_ms,
                                  self.last_forward_ms))

        def traced_submit(*args, **kwargs):
            future = submit(*args, **kwargs)
            future.add_done_callback(on_done)
            return future

        gateway_server.parse_infer_request = timed_parse
        CompiledNetwork.forward_rows = timed_forward
        server.submit = traced_submit

    def to_dict(self) -> dict:
        return {"parse_ms": self.parse_ms, "batches": self.batches,
                "requests": self.requests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--plans", required=True,
                        help="empty directory for this server's plan cache")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ensure_program_importable()

    from repro.gateway import AdmissionController, ApiKeyAuthenticator, \
        Gateway, Tenant
    from repro.serve import InferenceServer
    from repro.ssnn import PlanCache

    plan = PlanCache(root=args.plans).get_or_compile(
        build_network(), CHIP_N, SC_PER_NPE
    )
    server = InferenceServer(
        compiled=plan,
        workers=SERVER_ARGS["workers"],
        batch_max=SERVER_ARGS["batch_max"],
        deadline_ms=SERVER_ARGS["deadline_ms"],
    )
    trace = LayerTrace() if args.trace else None
    if trace is not None:
        trace.install(server)
    tenants = [Tenant(name=name, api_key=key, rate_per_s=TENANT_RATE_PER_S,
                      burst=TENANT_BURST) for name, key in TENANTS]
    server.start()
    gateway = Gateway(
        server,
        authenticator=ApiKeyAuthenticator(tenants),
        admission=AdmissionController(
            server, queue_limit=SERVER_ARGS["queue_limit"]
        ),
        port=SERVER_ARGS["port"],
    )
    try:
        gateway.run_in_thread()
        print(json.dumps({
            "bound_port": gateway.port,
            "plan_fingerprint": plan.fingerprint,
            "network_seed": NETWORK_SEED,
            **SERVER_ARGS,
            "tenants": [name for name, _ in TENANTS],
        }), flush=True)
        sys.stdin.readline()
    finally:
        gateway.close()
        server.stop()
    print(json.dumps({
        "peak_rss_mb": self_peak_rss_mb(),
        "trace": trace.to_dict() if trace is not None else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
