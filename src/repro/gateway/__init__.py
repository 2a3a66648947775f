"""The network edge: an asyncio HTTP/JSON gateway over the serving
stack, plus the closed-loop load harness that measures it.

This package turns the in-process :class:`~repro.serve.InferenceServer`
into a deployable service using only the standard library: no web
framework, no HTTP client dependency, no metrics client -- asyncio
streams, hand-rolled HTTP/1.1, and Prometheus text exposition written
by :mod:`repro.obs`.

Layers (each its own module, composable and individually testable):

* :mod:`repro.gateway.protocol` -- HTTP framing + the JSON request/
  response/typed-error schemas (``repro.gateway.infer/v1``,
  ``repro.gateway.error/v1``).
* :mod:`repro.gateway.auth` -- per-tenant API keys
  (:class:`Tenant`, :class:`ApiKeyAuthenticator`).
* :mod:`repro.gateway.ratelimit` -- per-tenant token buckets
  (:class:`TokenBucket`, :class:`RateLimiter`) and backend
  :class:`AdmissionController` (queue depth, breaker, readiness).
* :mod:`repro.gateway.server` -- the :class:`Gateway` event loop:
  ``/infer`` ``/healthz`` ``/readyz`` ``/metrics`` ``/drain``; and
  :func:`serving_edge`, which starts and stops backend -> gateway ->
  optional chaos proxy as one stack.
* :mod:`repro.gateway.client` -- the resilient blocking client
  (:class:`GatewayClient`): pooling/keep-alive, deadline propagation,
  retry budgets with seeded jitter, idempotency keys (exactly-once
  retries), optional hedging.
* :mod:`repro.gateway.loadgen` -- ``python -m repro loadtest``: the
  open/closed-loop campaign whose deterministic fields
  ``benchmarks/bench_gateway.py --check`` pins in ``BENCH_gateway.json``
  (``--proxy`` routes it through the :mod:`repro.netchaos` proxy for a
  degraded-network run).

See ``docs/GATEWAY.md`` for the endpoint contract, the client
resilience semantics, and the load-harness methodology.
"""

from repro.gateway.auth import ApiKeyAuthenticator, Tenant, demo_tenants
from repro.gateway.client import (
    GLOBAL_CLIENT_COUNTERS,
    ClientResult,
    GatewayClient,
    RetryPolicy,
)
from repro.gateway.loadgen import SCENARIOS, run_loadtest
from repro.gateway.protocol import (
    ERROR_CODES,
    IDEMPOTENCY_KEY_HEADER,
    REPLAY_HEADER,
    InferRequest,
    ProtocolError,
    parse_infer_request,
)
from repro.gateway.ratelimit import (
    AdmissionController,
    RateLimiter,
    TokenBucket,
)
from repro.gateway.server import (
    Gateway,
    IdempotencyLedger,
    serving_edge,
)

__all__ = [
    "AdmissionController",
    "ApiKeyAuthenticator",
    "ClientResult",
    "ERROR_CODES",
    "Gateway",
    "GatewayClient",
    "GLOBAL_CLIENT_COUNTERS",
    "IDEMPOTENCY_KEY_HEADER",
    "IdempotencyLedger",
    "InferRequest",
    "ProtocolError",
    "RateLimiter",
    "REPLAY_HEADER",
    "RetryPolicy",
    "SCENARIOS",
    "Tenant",
    "TokenBucket",
    "demo_tenants",
    "parse_infer_request",
    "run_loadtest",
    "serving_edge",
]
