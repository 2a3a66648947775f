"""Serving layer: adaptive micro-batching on top of compiled plans.

The first serving-layer brick of the production north star
(ROADMAP.md): an in-process :class:`InferenceServer` that accepts
single-sample requests, batches them without waiting (each batch
takes what is already queued, up to ``batch_max`` samples of one
spike-train shape -- the default of Triton's dynamic batcher), executes
them through a compile-once
:class:`~repro.ssnn.compile.CompiledNetwork` -- optionally sharded
across a persistent shared-memory
:class:`~repro.ssnn.pool.InferencePool` -- and reports per-request
latency plus aggregate FPS/SOPS counters.

The robustness layer (the supervision story of ``docs/SERVING.md``):
pool calls are guarded by a :class:`CircuitBreaker` (closed -> open ->
half-open), per-request ``deadline_ms`` bounds expire queued requests
at dispatch time, and :meth:`InferenceServer.health` /
:meth:`InferenceServer.readiness` expose the supervision gauges.

See ``docs/SERVING.md`` for the compile -> pool -> server architecture,
``benchmarks/bench_serve.py --check`` for the ``BENCH_serve.json`` drift
gate and ``benchmarks/test_serve_speedup.py`` for the throughput gates.
"""

from repro.serve.breaker import BreakerSnapshot, CircuitBreaker
from repro.serve.metrics import (
    MetricsRecorder,
    ServerStats,
    server_stats_families,
)
from repro.serve.server import InferenceServer, ServeResult

__all__ = [
    "BreakerSnapshot",
    "CircuitBreaker",
    "InferenceServer",
    "MetricsRecorder",
    "ServeResult",
    "ServerStats",
    "server_stats_families",
]
