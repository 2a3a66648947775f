"""Deterministic chaos harness for the supervised serving pipeline.

Every scenario injects one process-level failure mode into a live
:class:`~repro.ssnn.pool.InferencePool` (or a full
:class:`~repro.serve.server.InferenceServer`) and asserts the two
invariants the robustness layer promises (docs/SERVING.md, "Failure
semantics"):

1. **Bit-identical answers** -- every recovered call returns exactly
   the serial ``CompiledNetwork.forward_rows`` result (decisions,
   spurious count and synaptic-op count all equal).
2. **Full restoration** -- after the dust settles,
   ``alive_workers()`` equals the configured worker count again.

Faults are injected *inside the worker process* through the pool's
picklable ``chaos_hook`` (called before every task), so scenarios do
not depend on racing the parent from the outside.  Each hook draws
fire permits from a shared on-disk budget (``O_CREAT | O_EXCL`` marker
files), which makes the injection count exact across worker
generations: a respawned worker inherits the same hook and the same
budget, so "kill exactly one worker" means exactly one -- even though
the killer is resurrected with the hook still armed.

Scenarios (``python -m repro chaos``; ``--quick`` shrinks workloads):

* ``worker-kill``    -- SIGKILL a worker mid-batch; shard retry.
* ``worker-freeze``  -- a worker stalls past ``result_timeout_s``;
  force-kill + respawn on the progress deadline.
* ``shm-unlink``     -- an input segment vanishes mid-batch; republish
  under fresh names with a bumped epoch.
* ``shm-corrupt``    -- an input epoch guard is scribbled over; stale
  detection + republish.
* ``poison-batch``   -- a row block that kills workers on every
  delivery is quarantined (:class:`PoisonBatchError`) twice, served
  serially, and the pool survives to serve the next block.
* ``breaker-cycle``  -- consecutive pool failures open the server's
  :class:`~repro.serve.breaker.CircuitBreaker`; the half-open probe
  closes it; answers are identical throughout.

Node-level scenarios (PR 8) raise the blast radius from one worker
process to a whole :class:`~repro.cluster.node.PoolNode` behind the
:class:`~repro.cluster.router.ClusterRouter`:

* ``node-kill``      -- a whole node dies mid-batch (workers SIGKILLed,
  host gone); the router re-dispatches the request exactly once to a
  healthy node, evicts the corpse, and a replacement restores capacity.
* ``node-partition`` -- a node is cut off from the router; probes
  quarantine it out of the hash ring, traffic re-routes, and the healed
  node rejoins with its original affinity.
* ``scale-storm``    -- the autoscaler rides scripted load 1 -> 8 nodes
  and back down to 1 (fake clock, drain-before-retire), with traffic
  dispatched after every resize.

Every node scenario asserts the same invariant as the worker ones:
answers bit-identical to serial ``forward_rows`` through the event,
and the cluster restored to full routable capacity afterwards.

Network-layer scenarios (PR 10) move the blast radius *outside* the
gateway socket: each runs the full request path -- resilient
:class:`~repro.gateway.client.GatewayClient` -> seeded
:class:`~repro.netchaos.ChaosProxy` -> live :class:`Gateway` -> server
-- and asserts exact client/proxy/server ledgers on top of the
bit-identical predictions:

* ``net-reset-storm``   -- responses RST mid-flight; idempotent
  retries replay the recorded answer (exactly-once at the server).
* ``net-latency-spike`` -- responses delayed past the client timeout;
  the accepted-then-lost request is retried and replayed, never
  recomputed.
* ``net-black-hole``    -- accept-then-silence upstreams; timeouts and
  retries land on a healthy path with zero duplicate computes.
* ``net-slow-client``   -- slowloris request trickle; the gateway
  tolerates slow frames with no retries at all.
* ``net-hedge-race``    -- a delayed primary loses to a hedged
  duplicate carrying the same idempotency key (one compute, one
  replay).
* ``net-overload-shed`` -- a held backend triggers shed-before-queue:
  batch-priority traffic sheds as ``overloaded`` with ``Retry-After``
  while critical traffic still queues and completes.

The runner emits a ``repro.chaos/v1`` JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.harness.differential import random_binarized_network
from repro.serve.breaker import CircuitBreaker
from repro.serve.server import InferenceServer
from repro.ssnn.compile import CompiledNetwork, compile_network
from repro.ssnn.pool import InferencePool, PoisonBatchError

CHAOS_SCHEMA = "repro.chaos/v1"

#: Chip configuration every scenario compiles against (small enough to
#: spawn in milliseconds, big enough to shard).
CHIP_N = 4
SC_PER_NPE = 8
WORKERS = 2


class ChaosAssertionError(AssertionError):
    """A chaos scenario's recovery invariant did not hold."""


# -- fault-injection hooks (picklable; executed inside workers) --------------


class ChaosHook:
    """Base hook: fires at most ``budget`` times across *all* worker
    generations, using ``O_CREAT | O_EXCL`` marker files in
    ``marker_dir`` as an atomic cross-process permit pool."""

    def __init__(self, marker_dir: str, budget: int = 1):
        self.marker_dir = marker_dir
        self.budget = budget

    def _claim(self) -> bool:
        """Atomically claim one fire permit; False once exhausted."""
        for i in range(self.budget):
            path = os.path.join(self.marker_dir, f"fired-{i}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fired(self) -> int:
        """Permits consumed so far (parent-side observability)."""
        return sum(
            1 for name in os.listdir(self.marker_dir)
            if name.startswith("fired-")
        )

    def __call__(self, slot, job, epoch, shard, in_name, out_name) -> None:
        if self._claim():
            self.fire(slot, job, epoch, shard, in_name, out_name)

    def fire(self, slot, job, epoch, shard, in_name, out_name) -> None:
        raise NotImplementedError


class KillHook(ChaosHook):
    """SIGKILL the worker before it touches the task (a crashed or
    OOM-killed process; the harshest exit -- no cleanup, no result)."""

    def fire(self, slot, job, epoch, shard, in_name, out_name) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


class FreezeHook(ChaosHook):
    """Stall the worker well past the pool's ``result_timeout_s`` (a
    livelocked or SIGSTOPped process that is alive but makes no
    progress)."""

    def __init__(self, marker_dir: str, budget: int = 1,
                 sleep_s: float = 30.0):
        super().__init__(marker_dir, budget)
        self.sleep_s = sleep_s

    def fire(self, slot, job, epoch, shard, in_name, out_name) -> None:
        time.sleep(self.sleep_s)


class UnlinkShmHook(ChaosHook):
    """Unlink the input segment before the task attaches it (a purged
    ``/dev/shm`` -- the segment name dangles)."""

    def fire(self, slot, job, epoch, shard, in_name, out_name) -> None:
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(name=in_name)
        except FileNotFoundError:
            return
        try:
            segment.unlink()
        finally:
            segment.close()


class CorruptHeaderHook(ChaosHook):
    """Zero the input segment's ``(job, epoch)`` guard (bit corruption
    in the header); the worker's validation must reject the task as
    stale instead of computing on suspect rows."""

    def fire(self, slot, job, epoch, shard, in_name, out_name) -> None:
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(name=in_name)
        except FileNotFoundError:
            return
        try:
            segment.buf[:16] = b"\x00" * 16
        finally:
            segment.close()


class _FlakyPool:
    """Wrap a real pool: the first ``failures`` calls raise, the rest
    delegate -- a deterministic stand-in for a pool whose host keeps
    failing (what the circuit breaker exists for)."""

    def __init__(self, inner: InferencePool, failures: int):
        self._inner = inner
        self.remaining_failures = failures

    def infer_rows(self, rows):
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise RuntimeError("chaos: injected pool failure")
        return self._inner.infer_rows(rows)

    @property
    def workers(self):
        return self._inner.workers

    @property
    def restarts(self):
        return self._inner.restarts

    def alive_workers(self):
        return self._inner.alive_workers()

    def close(self):
        self._inner.close()


# -- workload ----------------------------------------------------------------


def _workload(quick: bool):
    """Deterministic compiled network + row block for the scenarios."""
    rng = np.random.default_rng(7)
    network = random_binarized_network(
        rng, sizes=(12, 9, 5), sc_per_npe=SC_PER_NPE
    )
    compiled = compile_network(network, CHIP_N, SC_PER_NPE)
    n_rows = 12 if quick else 48
    rows_rng = np.random.default_rng(11)
    rows = (rows_rng.random((n_rows, compiled.in_features)) < 0.4)
    return compiled, rows.astype(np.float64)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosAssertionError(message)


def _check_equal(got, want, label: str) -> None:
    _check(np.array_equal(got[0], want[0]),
           f"{label}: decisions diverged from serial forward_rows")
    _check(got[1] == want[1],
           f"{label}: spurious count {got[1]} != serial {want[1]}")
    _check(got[2] == want[2],
           f"{label}: synops {got[2]} != serial {want[2]}")


# -- scenarios ---------------------------------------------------------------


def _scenario_worker_kill(quick: bool, marker_dir: str) -> Dict:
    compiled, rows = _workload(quick)
    want = compiled.forward_rows(rows)
    hook = KillHook(marker_dir, budget=1)
    with InferencePool(
        compiled, workers=WORKERS, chaos_hook=hook, result_timeout_s=30.0
    ) as pool:
        got = pool.infer_rows(rows)
        _check_equal(got, want, "worker-kill")
        _check(hook.fired() == 1, "worker-kill: hook did not fire")
        _check(pool.restarts >= 1,
               "worker-kill: no worker was respawned")
        _check(pool.alive_workers() == WORKERS,
               "worker-kill: pool not restored to full worker count")
        # The pool keeps serving after recovery.
        _check_equal(pool.infer_rows(rows), want, "worker-kill follow-up")
        return {"restarts": pool.restarts, "fired": hook.fired()}


def _scenario_worker_freeze(quick: bool, marker_dir: str) -> Dict:
    compiled, rows = _workload(quick)
    want = compiled.forward_rows(rows)
    hook = FreezeHook(marker_dir, budget=1, sleep_s=30.0)
    with InferencePool(
        compiled, workers=WORKERS, chaos_hook=hook, result_timeout_s=0.75
    ) as pool:
        start = time.monotonic()
        got = pool.infer_rows(rows)
        elapsed = time.monotonic() - start
        _check_equal(got, want, "worker-freeze")
        _check(hook.fired() == 1, "worker-freeze: hook did not fire")
        _check(pool.restarts >= 1,
               "worker-freeze: frozen worker was not force-killed")
        _check(pool.alive_workers() == WORKERS,
               "worker-freeze: pool not restored to full worker count")
        _check(elapsed < 10.0,
               "worker-freeze: recovery waited for the full freeze")
        _check_equal(pool.infer_rows(rows), want, "worker-freeze follow-up")
        return {"restarts": pool.restarts, "recovery_s": round(elapsed, 3)}


def _scenario_shm_unlink(quick: bool, marker_dir: str) -> Dict:
    compiled, rows = _workload(quick)
    want = compiled.forward_rows(rows)
    hook = UnlinkShmHook(marker_dir, budget=1)
    with InferencePool(
        compiled, workers=WORKERS, chaos_hook=hook, result_timeout_s=30.0
    ) as pool:
        got = pool.infer_rows(rows)
        _check_equal(got, want, "shm-unlink")
        _check(hook.fired() == 1, "shm-unlink: hook did not fire")
        _check(pool.alive_workers() == WORKERS,
               "shm-unlink: pool not restored to full worker count")
        _check_equal(pool.infer_rows(rows), want, "shm-unlink follow-up")
        return {"restarts": pool.restarts, "fired": hook.fired()}


def _scenario_shm_corrupt(quick: bool, marker_dir: str) -> Dict:
    compiled, rows = _workload(quick)
    want = compiled.forward_rows(rows)
    hook = CorruptHeaderHook(marker_dir, budget=1)
    with InferencePool(
        compiled, workers=WORKERS, chaos_hook=hook, result_timeout_s=30.0
    ) as pool:
        got = pool.infer_rows(rows)
        _check_equal(got, want, "shm-corrupt")
        _check(hook.fired() == 1, "shm-corrupt: hook did not fire")
        _check(pool.alive_workers() == WORKERS,
               "shm-corrupt: pool not restored to full worker count")
        _check_equal(pool.infer_rows(rows), want, "shm-corrupt follow-up")
        return {"restarts": pool.restarts, "fired": hook.fired()}


def _scenario_poison_batch(quick: bool, marker_dir: str) -> Dict:
    """A block that kills its worker on *every* delivery: the pool must
    quarantine it (twice), the caller serves it serially, and the pool
    survives to serve clean blocks once the chaos budget is spent."""
    compiled, rows = _workload(quick)
    want = compiled.forward_rows(rows)
    hook = KillHook(marker_dir, budget=8)
    poisons = 0
    calls = 0
    with InferencePool(
        compiled, workers=WORKERS, chaos_hook=hook, result_timeout_s=30.0
    ) as pool:
        final = None
        while calls < 12:
            calls += 1
            try:
                final = pool.infer_rows(rows)
            except PoisonBatchError:
                poisons += 1
                _check(pool.alive_workers() == WORKERS,
                       "poison-batch: pool not restored after quarantine")
                # The caller's contract: quarantined blocks run serially.
                _check_equal(compiled.forward_rows(rows), want,
                             "poison-batch serial fallback")
                continue
            break
        _check(final is not None,
               "poison-batch: pool never recovered after chaos budget")
        _check(poisons >= 2,
               f"poison-batch: expected repeated quarantine, got {poisons}")
        _check_equal(final, want, "poison-batch recovery")
        _check(pool.alive_workers() == WORKERS,
               "poison-batch: pool not restored to full worker count")
        return {"poisons": poisons, "calls": calls,
                "restarts": pool.restarts, "fired": hook.fired()}


def _scenario_breaker_cycle(quick: bool, marker_dir: str) -> Dict:
    """Two consecutive pool failures open the server's breaker; while
    open the pool is skipped; the half-open probe closes it again.
    Every answer along the way equals the serial forward."""
    compiled, rows = _workload(quick)
    steps = 6
    train = rows[:steps]  # one request: (steps, in_features)
    decisions, _, _ = compiled.forward_rows(train)
    rates = decisions.reshape(steps, 1, compiled.out_features).mean(axis=0)
    want_prediction = int(rates[0].argmax())

    breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=0.3)
    server = InferenceServer(
        compiled=compiled, workers=WORKERS, batch_max=4, breaker=breaker,
    )
    server.start()
    try:
        guard = server._guard
        _check(guard.pool is not None,
               "breaker-cycle: server failed to spawn its pool")
        flaky = _FlakyPool(guard.pool, failures=2)
        guard.pool = flaky
        states: List[str] = [breaker.state]
        predictions: List[int] = []
        for _ in range(3):  # 2 failures trip the breaker open
            predictions.append(server.infer(train, timeout=30.0).prediction)
            states.append(breaker.state)
        _check("open" in states,
               f"breaker-cycle: breaker never opened (states={states})")
        _check(flaky.remaining_failures == 0,
               "breaker-cycle: injected failures were not consumed")
        time.sleep(0.35)  # past reset_timeout_s: open -> half-open
        _check(breaker.state == "half-open",
               f"breaker-cycle: expected half-open, got {breaker.state}")
        predictions.append(server.infer(train, timeout=30.0).prediction)
        states.append(breaker.state)
        _check(breaker.state == "closed",
               f"breaker-cycle: probe did not close (states={states})")
        for i, prediction in enumerate(predictions):
            _check(prediction == want_prediction,
                   f"breaker-cycle: request {i} prediction {prediction} "
                   f"!= serial {want_prediction}")
        stats = server.stats()
        _check(stats.pool_failures == 2,
               f"breaker-cycle: pool_failures={stats.pool_failures} != 2")
        _check(stats.workers_alive == WORKERS,
               "breaker-cycle: pool not restored to full worker count")
        snapshot = breaker.snapshot()
        return {
            "states": states,
            "opens": snapshot.opens,
            "closes": snapshot.closes,
            "probes": snapshot.probes,
            "pool_failures": stats.pool_failures,
        }
    finally:
        server.stop()


# -- node-level scenarios (cluster layer) ------------------------------------


def _cluster_workload(quick: bool, node_workers: int):
    """A router over two pool nodes plus the serial reference answer."""
    from repro.cluster import ClusterRouter, PoolNode

    compiled, rows = _workload(quick)
    want = compiled.forward_rows(rows)
    router = ClusterRouter(compiled)
    for i in range(2):
        router.join(PoolNode(
            f"node-{i}", compiled, workers=node_workers
        ))
    return compiled, rows, want, router


def _affinity_owner(router, rows):
    """The node the consistent-hash ring routes ``rows`` to."""
    key = router.affinity_key(rows)
    return router.node(router._ring.route(key))


def _scenario_node_kill(quick: bool, marker_dir: str) -> Dict:
    """A whole node dies *mid-batch*: its workers are SIGKILLed and the
    host flag flips while the dispatch is executing, so the in-flight
    answer is lost with the host.  The router must re-dispatch exactly
    once to the healthy node (bit-identical answer), evict the corpse
    from the ring, and a replacement node must restore capacity."""
    compiled, rows, want, router = _cluster_workload(
        quick, node_workers=WORKERS
    )
    try:
        victim = _affinity_owner(router, rows)
        survivor = next(
            router.node(n) for n in router.node_ids()
            if n != victim.node_id
        )
        # Arm the mid-batch death: the victim's forward path kills the
        # node (SIGKILL to its pool workers, state -> dead) and then
        # proceeds -- whatever the doomed pool manages to compute, the
        # node is dead when the call resolves, so the answer is lost
        # and the dispatch must raise NodeUnavailableError internally.
        original_forward = victim._forward

        def dying_forward(batch_rows):
            victim.kill()
            return original_forward(batch_rows)

        victim._forward = dying_forward
        got = router.dispatch(rows)
        _check_equal(got, want, "node-kill")
        _check(victim.state == "dead", "node-kill: victim is not dead")
        _check(router.retries == 1,
               f"node-kill: expected exactly one re-dispatch, "
               f"got {router.retries}")
        _check(router.evictions == 1,
               f"node-kill: evictions={router.evictions} != 1")
        _check(victim.node_id not in router._ring,
               "node-kill: dead node still owns ring points")
        _check(survivor.healthy, "node-kill: survivor degraded")
        # Traffic keeps flowing on the survivor with no further retry.
        _check_equal(router.dispatch(rows), want, "node-kill follow-up")
        _check(router.retries == 1,
               "node-kill: follow-up dispatch needed a retry")
        # Recovery: a replacement node restores routable capacity.
        from repro.cluster import PoolNode

        router.join(PoolNode("node-repl", compiled, workers=WORKERS))
        _check(router.alive_count() == 2,
               "node-kill: cluster not restored to two routable nodes")
        _check_equal(router.dispatch(rows), want, "node-kill recovered")
        return {
            "victim": victim.node_id,
            "retries": router.retries,
            "evictions": router.evictions,
            "rebalances": router.rebalances,
            "nodes_routable": router.alive_count(),
        }
    finally:
        router.shutdown()


def _scenario_node_partition(quick: bool, marker_dir: str) -> Dict:
    """A node is partitioned from the router: dispatches and probes
    fail while its processes stay healthy.  The health sweep must
    quarantine it out of the ring (traffic re-routes, zero wrong
    answers), and after the partition heals the sweep must rejoin it
    and hand its affinity back."""
    compiled, rows, want, router = _cluster_workload(
        quick, node_workers=WORKERS
    )
    try:
        owner = _affinity_owner(router, rows)
        _check_equal(router.dispatch(rows), want, "node-partition baseline")
        _check(router.affinity_hits == 1,
               "node-partition: baseline missed its affinity owner")

        owner.partition()
        # Dispatch *before* any probe: selection skips the unreachable
        # node (it is no longer dispatchable) -- a routed-around
        # fallback, not a retry, and still the exact serial answer.
        _check_equal(router.dispatch(rows), want,
                     "node-partition during partition")
        _check(router.retries == 0,
               "node-partition: routing around should not burn a retry")
        _check(router.fallbacks >= 1,
               "node-partition: expected a fallback dispatch")

        # The health sweep quarantines it out of the ring.
        verdicts = router.probe_all()
        _check(verdicts[owner.node_id] is False,
               "node-partition: probe reached a partitioned node")
        _check(owner.node_id not in router._ring,
               "node-partition: quarantined node still in the ring")
        _check(router.quarantines == 1,
               f"node-partition: quarantines={router.quarantines} != 1")
        _check_equal(router.dispatch(rows), want,
                     "node-partition quarantined")

        # Heal: the next sweep rejoins it and affinity returns.
        owner.heal_partition()
        verdicts = router.probe_all()
        _check(verdicts[owner.node_id] is True,
               "node-partition: healed node still failing probes")
        _check(owner.node_id in router._ring,
               "node-partition: healed node not rejoined")
        _check(router.rejoins == 1,
               f"node-partition: rejoins={router.rejoins} != 1")
        hits_before = router.affinity_hits
        _check_equal(router.dispatch(rows), want, "node-partition healed")
        _check(router.affinity_hits == hits_before + 1,
               "node-partition: healed node did not get its "
               "affinity back")
        _check(owner.alive_workers() == WORKERS,
               "node-partition: node not at full worker strength")
        return {
            "owner": owner.node_id,
            "fallbacks": router.fallbacks,
            "quarantines": router.quarantines,
            "rejoins": router.rejoins,
            "rebalances": router.rebalances,
        }
    finally:
        router.shutdown()


def _scenario_scale_storm(quick: bool, marker_dir: str) -> Dict:
    """Autoscaler storm, fully deterministic: a fake clock and scripted
    gauges drive the cluster 1 -> 8 nodes under sustained "load", then
    back down to 1 (drain-before-retire), with a real dispatch checked
    bit-identical after every resize.  Quick mode uses serial nodes
    (routing is what's under test); the full campaign spawns real pools
    on every node."""
    from repro.cluster import (
        Autoscaler,
        AutoscalerConfig,
        ClusterRouter,
        PoolNode,
    )

    compiled, rows = _workload(quick)
    want = compiled.forward_rows(rows)
    node_workers = 0 if quick else WORKERS
    router = ClusterRouter(compiled)
    seq = [0]

    def factory(node_id: str) -> PoolNode:
        seq[0] += 1
        return PoolNode(f"{node_id}-{seq[0]}", compiled,
                        workers=node_workers)

    router.join(factory("seed"))

    class _FakeClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    clock = _FakeClock()
    config = AutoscalerConfig(
        min_nodes=1, max_nodes=8, hysteresis=2, cooldown_s=5.0,
        scale_up_queue_depth=8.0, scale_down_queue_depth=1.0,
        scale_up_latency_ms=250.0, scale_down_latency_ms=50.0,
    )
    scaler = Autoscaler(router, factory, config=config, clock=clock)

    sizes = [router.alive_count()]
    # Sustained overload: every tick reports hot gauges.  Hysteresis
    # needs 2 breaching ticks per action; cooldown 5s between actions.
    while router.alive_count() < 8:
        clock.now += 6.0
        scaler.tick(queue_depth=32.0, latency_ms_p95=400.0)
        action = scaler.tick(queue_depth=32.0, latency_ms_p95=400.0)
        _check(action == "scale-up",
               f"scale-storm: expected scale-up at {len(sizes)} nodes, "
               f"got {action}")
        sizes.append(router.alive_count())
        _check_equal(router.dispatch(rows), want,
                     f"scale-storm at {router.alive_count()} nodes (up)")
    _check(sizes == [1, 2, 3, 4, 5, 6, 7, 8],
           f"scale-storm: up trajectory {sizes}")
    _check(scaler.scale_ups == 7,
           f"scale-storm: scale_ups={scaler.scale_ups} != 7")

    # The storm breaks: idle gauges drain the cluster back down.
    while router.alive_count() > 1:
        clock.now += 6.0
        scaler.tick(queue_depth=0.0, latency_ms_p95=1.0)
        action = scaler.tick(queue_depth=0.0, latency_ms_p95=1.0)
        _check(action == "scale-down",
               f"scale-storm: expected scale-down, got {action}")
        sizes.append(router.alive_count())
        _check_equal(router.dispatch(rows), want,
                     f"scale-storm at {router.alive_count()} nodes (down)")
    _check(sizes[-1] == 1, f"scale-storm: final size {sizes[-1]} != 1")
    _check(scaler.scale_downs == 7,
           f"scale-storm: scale_downs={scaler.scale_downs} != 7")
    # Another idle tick must NOT retire the last node (min_nodes=1).
    clock.now += 6.0
    scaler.tick(queue_depth=0.0, latency_ms_p95=1.0)
    scaler.tick(queue_depth=0.0, latency_ms_p95=1.0)
    _check(router.alive_count() == 1,
           "scale-storm: autoscaler breached min_nodes")
    _check_equal(router.dispatch(rows), want, "scale-storm settled")
    _check(router.retries == 0 and router.serial_fallbacks == 0,
           "scale-storm: resizing lost or re-routed in-flight work")
    actions = [e["action"] for e in scaler.events]
    router.shutdown()
    return {
        "sizes": sizes,
        "scale_ups": scaler.scale_ups,
        "scale_downs": scaler.scale_downs,
        "actions": actions,
        "rebalances": router.rebalances,
        "node_workers": node_workers,
    }


# -- network-layer scenarios (client -> chaos proxy -> gateway) --------------


def _wait_until(predicate: Callable[[], bool], timeout_s: float = 5.0,
                label: str = "condition") -> None:
    """Poll ``predicate`` every 5ms until true or ``timeout_s`` lapses."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise ChaosAssertionError(f"timed out waiting for {label}")


def _net_trains(compiled, n_trains: int) -> List[np.ndarray]:
    """Deterministic spike trains for the network scenarios."""
    steps = 6
    rng = np.random.default_rng(29)
    block = (rng.random((n_trains, steps, compiled.in_features)) < 0.35)
    return [block[i].astype(np.float64) for i in range(n_trains)]


def _serial_answer(compiled, train: np.ndarray):
    """Fault-free expectation for one spike train: the gateway's
    ``prediction`` and ``rates`` from a serial ``forward_rows`` pass.

    The server coalesces independent rows step-major, so batched
    results match this per-train serial formula bit-for-bit; JSON
    float round-trips are exact (repr-based), so comparing the decoded
    payload against these floats *is* a bit-identity assertion.
    """
    decisions, _, _ = compiled.forward_rows(train)
    steps = train.shape[0]
    rates = decisions.reshape(
        steps, 1, compiled.out_features
    ).mean(axis=0)[0]
    return int(rates.argmax()), [float(r) for r in rates]


def _net_edge(faults=(), *, shed_queue_depth=None):
    """The full request path under test: a serial
    :class:`InferenceServer` behind the serving edge, with a seeded
    chaos proxy carrying ``faults`` in front of the gateway."""
    from repro.gateway import serving_edge

    compiled, _ = _workload(True)
    return serving_edge(
        InferenceServer(compiled=compiled, workers=0, batch_max=8),
        queue_limit=64, shed_queue_depth=shed_queue_depth,
        proxy_faults=faults, proxy_seed=13,
    )


def _net_client(edge, api_key: str = "demo-key-a", **kwargs):
    """A :class:`~repro.gateway.GatewayClient` aimed at the proxy."""
    from repro.gateway import GatewayClient
    return GatewayClient(*edge.address, api_key=api_key, **kwargs)


def _replays(edge) -> Dict[str, int]:
    """The gateway's idempotent-replay ledger, by tenant."""
    ledger = edge.gateway.counters.snapshot()["idempotent_replays"]
    return {tenant: count for (tenant,), count in ledger.items()}


def _check_net_results(edge, trains, results, label: str) -> None:
    """Every result is a 200 whose prediction/rates are bit-identical
    to the fault-free serial expectation."""
    _check(len(results) == len(trains),
           f"{label}: {len(results)} results for {len(trains)} trains")
    for i, (train, res) in enumerate(zip(trains, results)):
        want_pred, want_rates = _serial_answer(edge.server.compiled, train)
        _check(res.status == 200,
               f"{label}: request {i} got HTTP {res.status}")
        _check(res.payload.get("prediction") == want_pred,
               f"{label}: request {i} prediction "
               f"{res.payload.get('prediction')} != serial {want_pred}")
        _check(res.payload.get("rates") == want_rates,
               f"{label}: request {i} rates diverged from serial")


def _scenario_net_reset_storm(quick: bool, marker_dir: str) -> Dict:
    """Responses RST mid-flight (SO_LINGER-0 after 20 bytes).  The
    backend computed and recorded each answer before the wire died, so
    every retry must *replay* the recorded answer -- exactly-once is
    proven by the server's completed count staying at one compute per
    train while the retry/replay ledgers match the reset budget."""
    from repro.gateway import RetryPolicy
    from repro.netchaos import NetFault

    resets = 2 if quick else 4
    n_trains = 4 if quick else 8
    with _net_edge(
        (NetFault("reset", budget=resets, direction="down",
                  after_bytes=20),),
    ) as edge:
        trains = _net_trains(edge.server.compiled, n_trains)
        client = _net_client(edge, retry=RetryPolicy(
            max_attempts=resets + 2, backoff_base_s=0.01,
            backoff_cap_s=0.05, budget=resets,
        ))
        try:
            results = [client.infer(t) for t in trains]
            stats = client.stats()
        finally:
            client.close()
        _check_net_results(edge, trains, results, "net-reset-storm")
        # Request 0 burns every armed connection: the pool is empty
        # after each RST, so each retry opens the next armed socket.
        _check(results[0].attempts == resets + 1,
               f"net-reset-storm: request 0 took {results[0].attempts} "
               f"attempts, want {resets + 1}")
        _check(results[0].replayed,
               "net-reset-storm: request 0 final answer was not a replay")
        _check(all(r.attempts == 1 for r in results[1:]),
               "net-reset-storm: a clean request needed retries")
        _check(edge.proxy.fired("reset") == resets,
               f"net-reset-storm: fired {edge.proxy.fired('reset')} "
               f"resets, want {resets}")
        _check(stats["retries"] == resets and stats["conn_errors"] == resets,
               f"net-reset-storm: retries={stats['retries']} "
               f"conn_errors={stats['conn_errors']}, want {resets} each")
        _check(stats["timeouts"] == 0 and stats["budget_exhausted"] == 0,
               "net-reset-storm: unexpected timeouts or budget exhaustion")
        _check(stats["replays"] == 1,
               f"net-reset-storm: client saw {stats['replays']} replay "
               f"responses, want 1 (only the last retry is delivered)")
        replays = _replays(edge)
        _check(replays == {"tenant-a": resets},
               f"net-reset-storm: gateway replays "
               f"{replays} != {{'tenant-a': {resets}}}")
        _check(edge.server.stats().completed == n_trains,
               "net-reset-storm: server computed a retried request twice")
        return {
            "resets": resets,
            "n_trains": n_trains,
            "client": stats,
            "proxy": edge.proxy.stats(),
            "gateway_replays": replays,
        }


def _scenario_net_latency_spike(quick: bool, marker_dir: str) -> Dict:
    """Responses delayed 900ms against a 300ms client timeout: the
    request is accepted-then-lost.  Each timed-out attempt is answered
    on retry by the idempotency ledger -- never recomputed."""
    from repro.gateway import RetryPolicy
    from repro.netchaos import NetFault

    spikes = 1 if quick else 2
    n_trains = 4 if quick else 8
    with _net_edge(
        (NetFault("latency", budget=spikes, direction="down",
                  delay_ms=900.0),),
    ) as edge:
        trains = _net_trains(edge.server.compiled, n_trains)
        client = _net_client(
            edge,
            timeout_s=0.3,
            retry=RetryPolicy(max_attempts=spikes + 2,
                              backoff_base_s=0.01, backoff_cap_s=0.05),
        )
        try:
            results = [client.infer(t) for t in trains]
            stats = client.stats()
        finally:
            client.close()
        _check_net_results(edge, trains, results, "net-latency-spike")
        _check(results[0].attempts == spikes + 1 and results[0].replayed,
               f"net-latency-spike: request 0 attempts="
               f"{results[0].attempts} replayed={results[0].replayed}, "
               f"want {spikes + 1} attempts ending in a replay")
        _check(edge.proxy.fired("latency") == spikes,
               f"net-latency-spike: fired {edge.proxy.fired('latency')} "
               f"spikes, want {spikes}")
        _check(stats["timeouts"] == spikes and stats["retries"] == spikes,
               f"net-latency-spike: timeouts={stats['timeouts']} "
               f"retries={stats['retries']}, want {spikes} each")
        _check(stats["conn_errors"] == 0 and stats["replays"] == 1,
               f"net-latency-spike: conn_errors={stats['conn_errors']} "
               f"replays={stats['replays']}, want 0 and 1")
        replays = _replays(edge)
        _check(replays == {"tenant-a": spikes},
               f"net-latency-spike: gateway replays {replays}")
        _check(edge.server.stats().completed == n_trains,
               "net-latency-spike: a timed-out request was recomputed")
        return {
            "spikes": spikes,
            "n_trains": n_trains,
            "client": stats,
            "proxy": edge.proxy.stats(),
            "gateway_replays": replays,
        }


def _scenario_net_black_hole(quick: bool, marker_dir: str) -> Dict:
    """Accept-then-silence upstreams: armed connections never reach the
    gateway, so -- unlike the reset/latency storms -- retries compute
    *fresh* (zero replays) and still land bit-identical."""
    from repro.gateway import RetryPolicy
    from repro.netchaos import NetFault

    holes = 1 if quick else 2
    n_trains = 4 if quick else 8
    with _net_edge(
        (NetFault("blackhole", budget=holes, hold_s=10.0),),
    ) as edge:
        trains = _net_trains(edge.server.compiled, n_trains)
        client = _net_client(
            edge,
            timeout_s=0.3,
            retry=RetryPolicy(max_attempts=holes + 2,
                              backoff_base_s=0.01, backoff_cap_s=0.05),
        )
        try:
            results = [client.infer(t) for t in trains]
            stats = client.stats()
        finally:
            client.close()
        _check_net_results(edge, trains, results, "net-black-hole")
        _check(results[0].attempts == holes + 1
               and not results[0].replayed,
               f"net-black-hole: request 0 attempts={results[0].attempts} "
               f"replayed={results[0].replayed}, want {holes + 1} fresh")
        _check(edge.proxy.fired("blackhole") == holes,
               f"net-black-hole: fired {edge.proxy.fired('blackhole')} "
               f"holes, want {holes}")
        _check(stats["timeouts"] == holes and stats["retries"] == holes,
               f"net-black-hole: timeouts={stats['timeouts']} "
               f"retries={stats['retries']}, want {holes} each")
        _check(stats["replays"] == 0,
               "net-black-hole: the gateway never saw the black-holed "
               "request, so nothing should replay")
        replays = _replays(edge)
        _check(replays == {}, f"net-black-hole: gateway replays {replays}")
        _check(edge.server.stats().completed == n_trains,
               "net-black-hole: duplicate compute after black-hole retry")
        return {
            "holes": holes,
            "n_trains": n_trains,
            "client": stats,
            "proxy": edge.proxy.stats(),
        }


def _scenario_net_slow_client(quick: bool, marker_dir: str) -> Dict:
    """Slowloris request trickle (40-byte chunks, 4ms pauses) on the
    upload direction.  The gateway must tolerate slow frames: every
    request completes first try, with no retries anywhere."""
    from repro.netchaos import NetFault

    slows = 2 if quick else 4
    n_trains = 4 if quick else 8
    with _net_edge(
        (NetFault("slow-send", budget=slows, direction="up",
                  chunk_bytes=40, pause_ms=4.0),),
    ) as edge:
        trains = _net_trains(edge.server.compiled, n_trains)
        # keep_alive=False: one connection per request, so exactly
        # `slows` of the `n_trains` connections are armed.
        client = _net_client(edge, keep_alive=False, timeout_s=10.0)
        try:
            results = [client.infer(t) for t in trains]
            stats = client.stats()
        finally:
            client.close()
        _check_net_results(edge, trains, results, "net-slow-client")
        _check(edge.proxy.fired("slow-send") == slows,
               f"net-slow-client: fired {edge.proxy.fired('slow-send')} "
               f"slow sockets, want {slows}")
        _check(stats["retries"] == 0 and stats["timeouts"] == 0
               and stats["conn_errors"] == 0 and stats["replays"] == 0,
               f"net-slow-client: expected a clean ledger, got {stats}")
        _check(stats["connections_opened"] == n_trains,
               f"net-slow-client: opened {stats['connections_opened']} "
               f"connections, want {n_trains} (keep-alive off)")
        _check(edge.server.stats().completed == n_trains,
               "net-slow-client: completed count diverged")
        return {
            "slows": slows,
            "n_trains": n_trains,
            "client": stats,
            "proxy": edge.proxy.stats(),
        }


def _scenario_net_hedge_race(quick: bool, marker_dir: str) -> Dict:
    """One delayed primary races a hedged duplicate carrying the same
    idempotency key: the hedge wins with a ledger replay -- one
    compute, one replay, zero retries."""
    from repro.netchaos import NetFault

    n_trains = 4 if quick else 8
    with _net_edge(
        (NetFault("latency", budget=1, direction="down",
                  delay_ms=700.0),),
    ) as edge:
        trains = _net_trains(edge.server.compiled, n_trains)
        client = _net_client(edge, hedge_after_ms=150.0, timeout_s=10.0)
        try:
            results = [client.infer(t) for t in trains]
            stats = client.stats()
        finally:
            client.close()
        _check_net_results(edge, trains, results, "net-hedge-race")
        _check(results[0].hedged and results[0].attempts == 1,
               f"net-hedge-race: request 0 hedged={results[0].hedged} "
               f"attempts={results[0].attempts}, want one hedged attempt")
        _check(results[0].replayed,
               "net-hedge-race: the winning hedge must be a replay of "
               "the primary's recorded compute")
        _check(all(not r.hedged for r in results[1:]),
               "net-hedge-race: an un-delayed request hedged")
        _check(stats["hedges"] == 1 and stats["hedge_wins"] == 1,
               f"net-hedge-race: hedges={stats['hedges']} "
               f"hedge_wins={stats['hedge_wins']}, want 1 each")
        _check(stats["retries"] == 0 and stats["timeouts"] == 0,
               "net-hedge-race: hedging must not consume retries")
        _check(edge.proxy.fired("latency") == 1,
               f"net-hedge-race: fired {edge.proxy.fired('latency')}")
        replays = _replays(edge)
        _check(replays == {"tenant-a": 1},
               f"net-hedge-race: gateway replays {replays}")
        _check(edge.server.stats().completed == n_trains,
               "net-hedge-race: the hedge computed a second time")
        return {
            "n_trains": n_trains,
            "client": stats,
            "proxy": edge.proxy.stats(),
            "gateway_replays": replays,
        }


def _scenario_net_overload_shed(quick: bool, marker_dir: str) -> Dict:
    """Shed-before-queue under a wedged backend: with the forward pass
    held, critical (priority-0) traffic keeps queueing up to the hard
    limit while batch (priority-2) traffic sheds as ``overloaded`` with
    a ``Retry-After`` hint at the soft watermark.  Releasing the hold
    drains every admitted request to a bit-identical answer."""
    with _net_edge(shed_queue_depth=2) as edge:
        trains = _net_trains(edge.server.compiled, 4)
        release = threading.Event()
        original_forward = edge.server._forward

        def held_forward(rows):
            release.wait(15.0)
            return original_forward(rows)

        edge.server._forward = held_forward
        results: Dict[int, object] = {}
        errors: List[BaseException] = []

        def request(i: int) -> None:
            # Distinct seeds: each client draws its own idempotency-key
            # stream, so concurrent requests never alias in the ledger.
            client = _net_client(edge, "demo-key-a", seed=i + 1)
            try:
                results[i] = client.infer(trains[i])
            except BaseException as exc:  # surfaced via `errors`
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=request, args=(0,), daemon=True)]
        threads[0].start()
        _wait_until(
            lambda: (edge.server.stats().pending == 1
                     and edge.server.queue_depth() == 0),
            label="net-overload-shed: request 0 in flight",
        )
        # Two more critical requests stack up behind the held batch.
        for i in (1, 2):
            thread = threading.Thread(target=request, args=(i,),
                                      daemon=True)
            thread.start()
            threads.append(thread)
            _wait_until(lambda i=i: edge.server.queue_depth() >= i,
                        label=f"net-overload-shed: request {i} queued")
        # Batch-priority traffic now sheds at the soft watermark.
        shed_client = _net_client(edge, "demo-key-burst", seed=99)
        try:
            sheds = [shed_client.infer(trains[3]) for _ in range(3)]
            shed_stats = shed_client.stats()
        finally:
            shed_client.close()
        for k, res in enumerate(sheds):
            _check(res.status == 503,
                   f"net-overload-shed: shed {k} got HTTP {res.status}")
            _check(res.payload["error"]["code"] == "overloaded",
                   f"net-overload-shed: shed {k} code "
                   f"{res.payload['error']['code']!r}")
            _check(res.retry_after_s == 1.0,
                   f"net-overload-shed: shed {k} Retry-After "
                   f"{res.retry_after_s} != 1.0")
        _check(shed_stats["retries"] == 0,
               "net-overload-shed: an HTTP 503 must not trigger "
               "client-side retries")
        # Critical traffic is still admitted past the soft watermark.
        threads.append(threading.Thread(target=request, args=(3,),
                                        daemon=True))
        threads[-1].start()
        _wait_until(lambda: edge.server.queue_depth() >= 3,
                    label="net-overload-shed: request 3 queued")
        release.set()
        for thread in threads:
            thread.join(timeout=15.0)
        edge.server._forward = original_forward
        _check(not errors,
               f"net-overload-shed: unexpected client errors: {errors}")
        ordered = [results[i] for i in sorted(results)]
        _check_net_results(edge, trains, ordered, "net-overload-shed")
        sheds = edge.gateway.sheds.snapshot()["requests"]
        _check(sheds == {("overloaded", "2"): 3},
               f"net-overload-shed: shed ledger {sheds} != "
               f"{{('overloaded', '2'): 3}}")
        _check(edge.server.stats().completed == 4,
               "net-overload-shed: completed count diverged")
        return {
            "sheds": {f"{code}:p{prio}": count
                      for (code, prio), count in sheds.items()},
            "admitted": len(ordered),
            "shed_client": shed_stats,
        }


NETWORK_SCENARIOS = (
    "net-reset-storm",
    "net-latency-spike",
    "net-black-hole",
    "net-slow-client",
    "net-hedge-race",
    "net-overload-shed",
)


SCENARIOS: Dict[str, Callable[[bool, str], Dict]] = {
    "worker-kill": _scenario_worker_kill,
    "worker-freeze": _scenario_worker_freeze,
    "shm-unlink": _scenario_shm_unlink,
    "shm-corrupt": _scenario_shm_corrupt,
    "poison-batch": _scenario_poison_batch,
    "breaker-cycle": _scenario_breaker_cycle,
    "node-kill": _scenario_node_kill,
    "node-partition": _scenario_node_partition,
    "scale-storm": _scenario_scale_storm,
    "net-reset-storm": _scenario_net_reset_storm,
    "net-latency-spike": _scenario_net_latency_spike,
    "net-black-hole": _scenario_net_black_hole,
    "net-slow-client": _scenario_net_slow_client,
    "net-hedge-race": _scenario_net_hedge_race,
    "net-overload-shed": _scenario_net_overload_shed,
}


# -- runner ------------------------------------------------------------------


def run_scenario(name: str, quick: bool = False) -> Dict:
    """Run one scenario; returns its report entry (never raises for
    scenario failures -- ``passed`` carries the verdict)."""
    runner = SCENARIOS[name]
    marker_dir = tempfile.mkdtemp(prefix=f"sushi-chaos-{name}-")
    start = time.monotonic()
    try:
        details = runner(quick, marker_dir)
        entry = {"name": name, "passed": True, "error": None,
                 "details": details}
    except Exception as exc:  # noqa: BLE001 - report, don't crash the run
        entry = {"name": name, "passed": False,
                 "error": f"{type(exc).__name__}: {exc}", "details": {}}
    finally:
        shutil.rmtree(marker_dir, ignore_errors=True)
    entry["elapsed_s"] = round(time.monotonic() - start, 3)
    return entry


def run_chaos(quick: bool = False,
              names: Optional[List[str]] = None) -> Dict:
    """Run the chaos campaign; returns the ``repro.chaos/v1`` report."""
    selected = list(SCENARIOS) if names is None else names
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown chaos scenarios: {unknown}")
    scenarios = [run_scenario(name, quick=quick) for name in selected]
    return {
        "schema": CHAOS_SCHEMA,
        "quick": quick,
        "workers": WORKERS,
        "scenarios": scenarios,
        "passed": all(s["passed"] for s in scenarios),
    }


def format_report(report: Dict) -> str:
    lines = [f"chaos campaign ({'quick' if report['quick'] else 'full'}, "
             f"{report['workers']} workers)"]
    for entry in report["scenarios"]:
        verdict = "ok" if entry["passed"] else "FAIL"
        detail = ""
        if entry["error"]:
            detail = f"  {entry['error']}"
        elif entry["details"]:
            pairs = ", ".join(f"{k}={v}" for k, v in entry["details"].items())
            detail = f"  ({pairs})"
        lines.append(f"  {entry['name']:<14} {verdict:>4} "
                     f"[{entry['elapsed_s']:6.2f}s]{detail}")
    lines.append("all scenarios bit-identical to serial and fully restored"
                 if report["passed"] else "CHAOS CAMPAIGN FAILED")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Inject process-level chaos into the serving pipeline "
                    "and assert bit-identical recovery.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        choices=sorted(SCENARIOS),
                        help="run only the named scenario (repeatable)")
    parser.add_argument("--out", default=None,
                        help="write the repro.chaos/v1 JSON report here")
    args = parser.parse_args(argv)
    report = run_chaos(quick=args.quick, names=args.scenarios)
    print(format_report(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
