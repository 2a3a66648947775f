"""The adaptive micro-batching inference server.

One dispatcher thread drains a request queue and is work-conserving:
it never waits for a batch to fill.  After the first admitted request
it takes only what is already queued -- up to ``batch_max`` samples,
stopping at a request whose spike-train shape differs (that request
opens the next batch) -- and runs the whole batch at once as a single
row block through the compiled plan (serially or on the persistent
shared-memory pool).  Requests that arrive while a batch runs form the
next one, so batches grow with load and a lone request is never held.
This is the default of Triton's dynamic batcher
(``max_queue_delay_microseconds: 0``).  Answers do not depend on batch
composition: ``forward_rows`` treats every row independently.

Failure semantics (see ``docs/SERVING.md``): the pool resurrects its own
workers, so transient chaos heals *inside* a call.  Batches run through
a :class:`~repro.ssnn.pool.GuardedPool`, the pool-or-serial step the
runtime and the cluster nodes share: a pool call that still fails counts
against a :class:`~repro.serve.breaker.CircuitBreaker` and the batch
re-runs serially (identical answers).  The breaker opens after ``K``
consecutive pool failures, skips the pool while open, and probes it
half-open after a cool-down -- the server never permanently discards a
pool that might heal.  A :class:`~repro.ssnn.pool.PoisonBatchError` is
*not* a pool failure: the pool already restored itself and fingered the
row block, so the batch runs serially and the breaker records a success.
Per-request ``deadline_ms`` bounds let callers cap queueing delay:
requests whose deadline lapsed while queued fail with
:class:`~repro.errors.DeadlineExceededError` at dispatch time, and
futures cancelled by the caller (e.g. an :meth:`InferenceServer.infer`
timeout) are skipped instead of burning a batch slot.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.snn.binarize import BinarizedNetwork
from repro.serve.breaker import CircuitBreaker
from repro.obs import MetricFamily
from repro.serve.metrics import (
    MetricsRecorder,
    ServerStats,
    server_stats_families,
)
from repro.ssnn.compile import (
    CompiledNetwork,
    compile_network,
    resolve_plan_cache,
    spike_rows,
)
from repro.ssnn.pool import GuardedPool


@dataclass(frozen=True)
class ServeResult:
    """Answer to one serving request (one sample).

    Attributes:
        rates: (classes,) mean output spike rates.
        prediction: argmax class label.
        output_raster: (T, classes) per-step output spikes.
        latency_ms: Submit-to-answer wall-clock latency (queueing
            included).
        batch_size: Samples in the batch this request rode in.
        steps: Time steps of the request's spike train.
    """

    rates: np.ndarray
    prediction: int
    output_raster: np.ndarray
    latency_ms: float
    batch_size: int
    steps: int


@dataclass
class _Request:
    train: np.ndarray  # (T, in_features) bool
    future: Future
    enqueued: float
    deadline: Optional[float] = None  # monotonic instant, None = no bound


class InferenceServer:
    """Micro-batching server over one compiled network.

    Args:
        network: The :class:`~repro.snn.binarize.BinarizedNetwork` to
            serve, compiled on construction (through the plan cache), OR
            pass an already-compiled artifact via ``compiled=``.
        chip_n / sc_per_npe / reorder: Chip configuration (ignored when
            ``compiled`` is given).
        batch_max: Most samples one batch takes from the queue.
        deadline_ms: Ignored.  The dispatcher never waits for a batch
            to fill; the argument is still accepted (and must be
            ``>= 0``) only so existing callers keep working.  The
            per-request ``submit(deadline_ms=)`` bound is unrelated.
        workers: ``> 1`` shards batches of at least ``2 x workers``
            rows across a persistent supervised
            :class:`~repro.ssnn.pool.InferencePool`; other batches run
            in the dispatcher thread.  Pool failures fall back to serial
            for that batch (served results are identical) and count
            against the circuit breaker.
        plan_cache: See :func:`repro.ssnn.compile.resolve_plan_cache`.
        queue_max: Backpressure bound; :meth:`submit` raises
            ``queue.Full`` beyond it.
        breaker: Circuit breaker guarding the pool path; a default
            :class:`~repro.serve.breaker.CircuitBreaker` is constructed
            when omitted.  Inject one with custom thresholds (or a fake
            clock) for tests and chaos scenarios.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        network: Optional[BinarizedNetwork] = None,
        *,
        compiled: Optional[CompiledNetwork] = None,
        chip_n: int = 16,
        sc_per_npe: int = 10,
        reorder: bool = True,
        batch_max: int = 512,
        deadline_ms: float = 2.0,
        workers: int = 0,
        plan_cache="default",
        queue_max: int = 65536,
        breaker: Optional[CircuitBreaker] = None,
    ):
        if (network is None) == (compiled is None):
            raise ConfigurationError(
                "pass exactly one of `network` or `compiled`"
            )
        if batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1")
        if deadline_ms < 0:
            raise ConfigurationError("deadline_ms must be >= 0")
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if compiled is None:
            cache = resolve_plan_cache(plan_cache)
            if cache is not None:
                compiled = cache.get_or_compile(
                    network, chip_n, sc_per_npe, reorder
                )
            else:
                compiled = compile_network(
                    network, chip_n, sc_per_npe, reorder
                )
        self.compiled = compiled
        self.batch_max = batch_max
        self.workers = workers
        self._guard = GuardedPool(compiled, workers, breaker)
        self.breaker = self._guard.breaker
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=queue_max)
        self._holdback: Optional[_Request] = None
        # Guards the accepting-check/enqueue handshake against drain():
        # a submit that passed the check is counted in _admissions until
        # its request is actually queued, so drain cannot declare the
        # server settled while an admission is still in flight.
        self._admission_lock = threading.Lock()
        self._admissions = 0
        self._metrics = MetricsRecorder()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._accepting = False
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "InferenceServer":
        if self._running:
            return self
        self._guard.open()
        self._stopping.clear()
        self._running = True
        self._accepting = True
        self._thread = threading.Thread(
            target=self._serve_loop, name="sushi-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the dispatcher.  With ``drain=True`` (default) queued
        requests are answered first; otherwise they fail fast with a
        :class:`ConfigurationError`."""
        if not self._running:
            self._guard.close()
            return
        self._accepting = False
        if not drain:
            self._fail_pending("server stopped before this request ran")
        self._stopping.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._running = False
        self._thread = None
        self._fail_pending("server stopped before this request ran")
        self._guard.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting new requests and wait until every accepted
        request has been resolved (answered, failed, expired or
        cancelled).  The dispatcher keeps running -- call :meth:`stop`
        afterwards to shut down, or flip :meth:`start` semantics back by
        restarting.  Returns ``True`` once fully drained, ``False`` on
        timeout (remaining work keeps draining in the background).

        Idempotent and safe to call concurrently -- with other
        :meth:`drain` calls (each independently waits for quiescence)
        and with in-flight :meth:`submit` / :meth:`infer`: a request
        that passed the accepting-check before the flip is either
        counted by ``_admissions`` (drain waits for it to land in the
        queue) or already queued (drain waits for its resolution), so
        ``True`` never strands an accepted request."""
        with self._admission_lock:
            self._accepting = False
        deadline = time.monotonic() + timeout
        while not self._settled():
            if time.monotonic() >= deadline:
                return self._settled()
            time.sleep(0.005)
        return True

    def _settled(self) -> bool:
        """No admission mid-handshake, nothing queued or held back, and
        every accepted request resolved."""
        with self._admission_lock:
            if self._admissions > 0:
                return False
        return (self._queue.empty() and self._holdback is None
                and self.stats().pending == 0)

    def _fail_pending(self, reason: str) -> None:
        pending: List[_Request] = []
        if self._holdback is not None:
            pending.append(self._holdback)
            self._holdback = None
        while True:
            try:
                pending.append(self._queue.get_nowait())
            except queue.Empty:
                break
        failed = 0
        for request in pending:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(ConfigurationError(reason))
                failed += 1
            else:
                self._metrics.record_cancelled()
        if failed:
            self._metrics.record_failure(failed)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path --------------------------------------------------------

    def submit(
        self,
        spike_train: np.ndarray,
        timeout: Optional[float] = None,
        *,
        deadline_ms: Optional[float] = None,
    ) -> Future:
        """Enqueue one sample; returns a future of :class:`ServeResult`.

        ``spike_train`` is ``(T, in_features)`` (or ``(T, 1,
        in_features)``, squeezed) of 0s and 1s.  Raises immediately on a bad
        shape or value and ``queue.Full`` under backpressure.  With
        ``deadline_ms`` the request fails with :class:`DeadlineExceededError`
        instead of executing if it is still queued when the deadline lapses.
        """
        if not self._running or not self._accepting:
            raise ConfigurationError("server is not accepting requests; "
                                     "call start()")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be > 0")
        train = spike_rows(spike_train)
        if train.ndim == 3 and train.shape[1] == 1:
            train = train[:, 0, :]
        if train.ndim != 2:
            raise ConfigurationError(
                "spike_train must be (T, in_features) for one sample"
            )
        if train.shape[1] != self.compiled.in_features:
            raise ConfigurationError(
                f"spike width {train.shape[1]} != compiled input "
                f"{self.compiled.in_features}"
            )
        now = time.monotonic()
        future: Future = Future()
        request = _Request(
            train=train,
            future=future,
            enqueued=now,
            deadline=(now + deadline_ms / 1000.0
                      if deadline_ms is not None else None),
        )
        # Re-check acceptance under the admission lock and hold an
        # admission slot across the (possibly blocking) enqueue, so a
        # concurrent drain() either rejects this request here or waits
        # for it -- it can never return True with the request stranded
        # between the check and the queue.
        with self._admission_lock:
            if not self._running or not self._accepting:
                raise ConfigurationError(
                    "server is not accepting requests; call start()"
                )
            self._admissions += 1
        try:
            self._queue.put(request, timeout=timeout)
            self._metrics.record_submit()
        finally:
            with self._admission_lock:
                self._admissions -= 1
        return future

    def infer(
        self,
        spike_train: np.ndarray,
        timeout: float = 30.0,
        *,
        deadline_ms: Optional[float] = None,
    ) -> ServeResult:
        """Synchronous convenience wrapper around :meth:`submit`.

        On timeout the underlying future is *cancelled* so the orphaned
        request never burns a batch slot (it is skipped at dispatch and
        counted as ``cancelled`` in :meth:`stats`).
        """
        future = self.submit(spike_train, deadline_ms=deadline_ms)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def queue_depth(self) -> int:
        """Requests waiting in the coalescing queue right now.  Cheap
        (no lock, no percentile sort) -- the per-request admission
        probe for gateways, unlike the full :meth:`stats` snapshot."""
        return self._queue.qsize() + (1 if self._holdback is not None else 0)

    def stats(self) -> ServerStats:
        return self._metrics.snapshot(
            queue_depth=self.queue_depth(), **self._guard.stats()
        )

    def health(self) -> Dict:
        """Point-in-time health snapshot (schema ``repro.serve.health/v1``)."""
        stats = self.stats()
        return {
            "schema": "repro.serve.health/v1",
            "running": self._running,
            "accepting": self._accepting,
            "ready": self.readiness(),
            "mode": "pool" if self._guard.pool is not None else "serial",
            "breaker": self.breaker.snapshot().to_dict(),
            "stats": stats.to_dict(),
        }

    def readiness(self) -> bool:
        """``True`` when the server is running, accepting requests, and
        not shutting down -- the load-balancer admission check."""
        return (self._running and self._accepting
                and not self._stopping.is_set())

    def metric_families(self) -> List[MetricFamily]:
        """The backend's families for the gateway ``/metrics`` scrape."""
        return server_stats_families(self.stats())

    # -- dispatcher ----------------------------------------------------------

    def _admit(self, request: _Request) -> bool:
        """Dispatch-time admission: skip cancelled futures and expire
        requests whose per-request deadline lapsed while queued."""
        if request.deadline is not None \
                and time.monotonic() >= request.deadline:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(DeadlineExceededError(
                    "request deadline_ms lapsed while queued"
                ))
                self._metrics.record_expired()
            else:
                self._metrics.record_cancelled()
            return False
        if not request.future.set_running_or_notify_cancel():
            self._metrics.record_cancelled()
            return False
        return True

    def _next_request(self, timeout: float) -> Optional[_Request]:
        if self._holdback is not None:
            request, self._holdback = self._holdback, None
            return request
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def _serve_loop(self) -> None:
        while True:
            first = self._next_request(timeout=0.05)
            if first is None:
                if self._stopping.is_set() and self._queue.empty() \
                        and self._holdback is None:
                    return
                continue
            if not self._admit(first):
                continue
            batch = [first]
            while len(batch) < self.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt.train.shape != first.train.shape:
                    # Never mix shapes: the straggler opens the next
                    # batch.
                    self._holdback = nxt
                    break
                if self._admit(nxt):
                    batch.append(nxt)
            self._run_batch(batch)

    def _run_batch(self, batch: List[_Request]) -> None:
        try:
            steps, n_in = batch[0].train.shape
            n_out = self.compiled.out_features
            stacked = np.stack([r.train for r in batch], axis=1)
            rows = stacked.reshape(steps * len(batch), n_in)
            decisions, _spurious, synops = self._forward(rows)
            raster = decisions.reshape(steps, len(batch), n_out)
            rates = (raster.mean(axis=0) if steps
                     else raster.sum(axis=0))  # (batch, out)
            now = time.monotonic()
            latencies = [(now - request.enqueued) * 1000.0
                         for request in batch]
            # Count the batch before answering it, so a caller holding
            # an answer never reads stats() one batch short.
            self._metrics.record_batch(len(batch), synops, latencies)
            for i, request in enumerate(batch):
                request.future.set_result(ServeResult(
                    rates=rates[i],
                    prediction=int(rates[i].argmax()),
                    output_raster=raster[:, i, :],
                    latency_ms=latencies[i],
                    batch_size=len(batch),
                    steps=steps,
                ))
        except Exception as exc:  # pragma: no cover - defensive
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            self._metrics.record_failure(len(batch))

    def _forward(self, rows: np.ndarray):
        return self._guard.forward(rows)

    def __repr__(self) -> str:
        mode = (f"pool[{self.workers}]" if self._guard.pool is not None
                else "serial")
        state = "running" if self._running else "stopped"
        return (f"<InferenceServer {state} {mode} "
                f"breaker={self.breaker.state} "
                f"batch_max={self.batch_max} "
                f"plan={self.compiled.fingerprint[:12]}>")
