"""Serving metrics: per-request latency plus aggregate FPS/SOPS.

Counters are updated by the server's dispatcher thread under a lock and
snapshotted into an immutable :class:`ServerStats` by
:meth:`MetricsRecorder.snapshot` -- cheap enough to poll from a
monitoring loop.  Latencies are kept in a bounded ring so a long-lived
server's memory stays O(1).

Robustness counters (this layer's contribution to the supervision story
in ``docs/SERVING.md``): ``expired`` (requests whose per-request
deadline lapsed while queued), ``cancelled`` (futures cancelled by the
caller before dispatch), plus the fields the server injects at
snapshot time: the ``pool_failures`` and ``poison_batches`` counters
and the breaker and worker gauges of its
:class:`~repro.ssnn.pool.GuardedPool`, and the queue depth.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.obs import MetricFamily


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


@dataclass(frozen=True)
class ServerStats:
    """Aggregate serving statistics at one point in time.

    Attributes:
        requests: Requests accepted so far.
        completed: Requests answered (successfully).
        failed: Requests answered with an error.
        samples: Samples inferred (== completed for 1-sample requests).
        batches: Coalesced hardware batches executed.
        mean_batch: Mean coalesced batch size.
        latency_ms_p50 / latency_ms_p95 / latency_ms_max: Request
            latency percentiles over the retained window (submit ->
            result, queueing included).
        fps: Aggregate samples/second since the server started.
        sops: Aggregate synaptic operations/second since start (the
            paper's SOPS throughput axis).
        synaptic_ops: Total synaptic operations executed.
        uptime_s: Seconds since the server started.
        expired: Requests failed at dispatch because their per-request
            ``deadline_ms`` had lapsed while queued.
        cancelled: Requests skipped at dispatch because the caller
            cancelled their future (e.g. :meth:`InferenceServer.infer`
            timing out).
        pool_failures: Batches that fell back to serial execution after
            a pool error (counted toward the circuit breaker).
        poison_batches: Batches quarantined as poison by the pool and
            executed serially.
        pending: Requests accepted but not yet resolved (queue +
            in-flight); 0 when fully drained.
        breaker_state: Circuit-breaker state at snapshot time.
        workers_configured / workers_alive / worker_restarts: Pool
            supervision gauges (0 when serving serially).
        queue_depth: Requests waiting in the coalescing queue.
    """

    requests: int
    completed: int
    failed: int
    samples: int
    batches: int
    mean_batch: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_max: float
    fps: float
    sops: float
    synaptic_ops: int
    uptime_s: float
    expired: int = 0
    cancelled: int = 0
    pool_failures: int = 0
    poison_batches: int = 0
    pending: int = 0
    breaker_state: str = "closed"
    workers_configured: int = 0
    workers_alive: int = 0
    worker_restarts: int = 0
    queue_depth: int = 0

    def to_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "samples": self.samples,
            "batches": self.batches,
            "mean_batch": round(self.mean_batch, 3),
            "latency_ms_p50": round(self.latency_ms_p50, 3),
            "latency_ms_p95": round(self.latency_ms_p95, 3),
            "latency_ms_max": round(self.latency_ms_max, 3),
            "fps": round(self.fps, 1),
            "sops": round(self.sops, 1),
            "synaptic_ops": self.synaptic_ops,
            "uptime_s": round(self.uptime_s, 3),
            "expired": self.expired,
            "cancelled": self.cancelled,
            "pool_failures": self.pool_failures,
            "poison_batches": self.poison_batches,
            "pending": self.pending,
            "breaker_state": self.breaker_state,
            "workers_configured": self.workers_configured,
            "workers_alive": self.workers_alive,
            "worker_restarts": self.worker_restarts,
            "queue_depth": self.queue_depth,
        }


# -- Prometheus families ----------------------------------------------------

#: The breaker states exported as a one-hot ``breaker_state`` gauge.
BREAKER_STATES = ("closed", "open", "half-open")


def server_stats_families(stats: ServerStats) -> List[MetricFamily]:
    """The backend :class:`ServerStats` as Prometheus metric families.

    Counters keep their cumulative-total semantics (``_total`` suffix);
    point-in-time fields export as gauges; the breaker state is a
    one-hot gauge over :data:`BREAKER_STATES`.
    """
    counters = (
        ("requests", stats.requests, "Requests accepted by the server"),
        ("completed", stats.completed, "Requests answered successfully"),
        ("failed", stats.failed, "Requests answered with an error"),
        ("samples", stats.samples, "Samples inferred"),
        ("batches", stats.batches, "Coalesced hardware batches executed"),
        ("expired", stats.expired,
         "Requests expired at dispatch (deadline_ms lapsed)"),
        ("cancelled", stats.cancelled,
         "Requests cancelled by the caller before dispatch"),
        ("pool_failures", stats.pool_failures,
         "Batches that fell back to serial after a pool error"),
        ("poison_batches", stats.poison_batches,
         "Batches quarantined as poison and run serially"),
        ("synaptic_ops", stats.synaptic_ops,
         "Synaptic operations executed"),
    )
    gauges = (
        ("pending", stats.pending, "Accepted but unresolved requests"),
        ("queue_depth", stats.queue_depth,
         "Requests waiting in the coalescing queue"),
        ("mean_batch", stats.mean_batch, "Mean coalesced batch size"),
        ("latency_ms_p50", stats.latency_ms_p50,
         "p50 request latency over the retained window (ms)"),
        ("latency_ms_p95", stats.latency_ms_p95,
         "p95 request latency over the retained window (ms)"),
        ("latency_ms_max", stats.latency_ms_max,
         "Max request latency over the retained window (ms)"),
        ("fps", stats.fps, "Aggregate samples per second since start"),
        ("sops", stats.sops,
         "Aggregate synaptic operations per second since start"),
        ("uptime_seconds", stats.uptime_s, "Seconds since server start"),
        ("workers_configured", stats.workers_configured,
         "Pool workers configured (0 when serial)"),
        ("workers_alive", stats.workers_alive, "Pool workers alive"),
        ("worker_restarts", stats.worker_restarts,
         "Pool worker resurrections"),
    )
    families: List[MetricFamily] = [
        (f"sushi_server_{name}_total", "counter", help_text,
         [(None, value)])
        for name, value, help_text in counters
    ]
    families.extend(
        (f"sushi_server_{name}", "gauge", help_text, [(None, value)])
        for name, value, help_text in gauges
    )
    families.append((
        "sushi_server_breaker_state", "gauge",
        "Circuit breaker state (one-hot over closed/open/half-open)",
        [({"state": state}, 1.0 if stats.breaker_state == state else 0.0)
         for state in BREAKER_STATES],
    ))
    return families


class MetricsRecorder:
    """Thread-safe accumulator behind :meth:`InferenceServer.stats`."""

    def __init__(self, latency_window: int = 4096):
        self._lock = threading.Lock()
        self._latencies = deque(maxlen=latency_window)
        self._started = time.monotonic()
        self.requests = 0
        self.completed = 0
        self.failed = 0
        self.samples = 0
        self.batches = 0
        self.synaptic_ops = 0
        self.expired = 0
        self.cancelled = 0

    def record_submit(self, n: int = 1) -> None:
        with self._lock:
            self.requests += n

    def record_batch(
        self,
        batch_size: int,
        synops: int,
        latencies_ms: Sequence[float],
    ) -> None:
        with self._lock:
            self.batches += 1
            self.samples += batch_size
            self.completed += len(latencies_ms)
            self.synaptic_ops += synops
            self._latencies.extend(latencies_ms)

    def record_failure(self, n: int = 1) -> None:
        with self._lock:
            self.failed += n

    def record_expired(self, n: int = 1) -> None:
        with self._lock:
            self.expired += n

    def record_cancelled(self, n: int = 1) -> None:
        with self._lock:
            self.cancelled += n

    def snapshot(
        self,
        *,
        breaker_state: str = "closed",
        pool_failures: int = 0,
        poison_batches: int = 0,
        workers_configured: int = 0,
        workers_alive: int = 0,
        worker_restarts: int = 0,
        queue_depth: int = 0,
    ) -> ServerStats:
        with self._lock:
            uptime = max(time.monotonic() - self._started, 1e-9)
            ordered = sorted(self._latencies)
            resolved = (self.completed + self.failed + self.expired
                        + self.cancelled)
            return ServerStats(
                requests=self.requests,
                completed=self.completed,
                failed=self.failed,
                samples=self.samples,
                batches=self.batches,
                mean_batch=(self.samples / self.batches
                            if self.batches else 0.0),
                latency_ms_p50=_percentile(ordered, 0.50),
                latency_ms_p95=_percentile(ordered, 0.95),
                latency_ms_max=(ordered[-1] if ordered else 0.0),
                fps=self.samples / uptime,
                sops=self.synaptic_ops / uptime,
                synaptic_ops=self.synaptic_ops,
                uptime_s=uptime,
                expired=self.expired,
                cancelled=self.cancelled,
                pool_failures=pool_failures,
                poison_batches=poison_batches,
                pending=max(0, self.requests - resolved),
                breaker_state=breaker_state,
                workers_configured=workers_configured,
                workers_alive=workers_alive,
                worker_restarts=worker_restarts,
                queue_depth=queue_depth,
            )
