"""Unit tests for :class:`repro.cluster.node.PoolNode`.

The node's contract: bit-identical answers in every reachable state,
:class:`NodeUnavailableError` (never wrong data) in every unreachable
one, and a lifecycle the router can trust -- draining stops new work,
killing loses in-flight answers loudly, retiring is idempotent.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    ACTIVE,
    DEAD,
    DRAINING,
    RETIRED,
    NodeUnavailableError,
    PoolNode,
)
from repro.errors import ConfigurationError
from repro.harness import random_binarized_network
from repro.serve import CircuitBreaker
from repro.ssnn import InferencePool, compile_network

CHIP_N = 4
SC = 8


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(41)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=SC)
    compiled = compile_network(network, CHIP_N, SC)
    rows = (np.random.default_rng(11).random((18, 11)) < 0.4)
    return compiled, rows.astype(np.float64)


class TestExecution:
    def test_serial_node_is_bit_identical(self, workload):
        compiled, rows = workload
        want = compiled.forward_rows(rows)
        with PoolNode("n0", compiled, workers=0) as node:
            got = node.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1] and got[2] == want[2]
            stats = node.stats()
            assert stats.requests == 1 and stats.completed == 1

    def test_pool_node_is_bit_identical(self, workload):
        compiled, rows = workload
        want = compiled.forward_rows(rows)
        with PoolNode("n0", compiled, workers=2) as node:
            if node._guard.pool is None:
                pytest.skip("pool unavailable on this platform")
            got = node.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1] and got[2] == want[2]
            assert node.alive_workers() == 2

    def test_open_breaker_falls_back_serially(self, workload):
        compiled, rows = workload
        want = compiled.forward_rows(rows)
        breaker = CircuitBreaker(failure_threshold=1,
                                 reset_timeout_s=300.0)
        with PoolNode("n0", compiled, workers=2,
                      breaker=breaker) as node:
            breaker.record_failure()
            assert breaker.state == "open"
            assert not node.healthy  # sheds affinity...
            assert node.dispatchable  # ...but still serves correctly
            got = node.infer_rows(rows)
            assert np.array_equal(got[0], want[0])

    def test_dead_node_raises_without_consuming(self, workload):
        compiled, rows = workload
        node = PoolNode("n0", compiled, workers=0)
        node.kill()
        assert node.state == DEAD
        with pytest.raises(NodeUnavailableError):
            node.infer_rows(rows)
        # Rejected at the door: the request never entered the node, so
        # node metrics stay untouched (the router owns the retry story).
        assert node.stats().requests == 0
        assert node.stats().failed == 0
        node.retire()  # reap; state stays dead
        assert node.state == DEAD

    def test_partitioned_node_raises_and_heals(self, workload):
        compiled, rows = workload
        with PoolNode("n0", compiled, workers=0) as node:
            node.partition()
            assert not node.probe()
            assert not node.dispatchable
            with pytest.raises(NodeUnavailableError):
                node.infer_rows(rows)
            node.heal_partition()
            assert node.probe()
            want = compiled.forward_rows(rows)
            assert np.array_equal(node.infer_rows(rows)[0], want[0])

    def test_mid_call_death_loses_the_answer_loudly(self, workload):
        """A node killed while executing must raise -- the answer died
        with the host -- so the router can re-dispatch."""
        compiled, rows = workload
        node = PoolNode("n0", compiled, workers=0)
        original = node._forward

        def dying_forward(batch_rows):
            node.kill()
            return original(batch_rows)

        node._forward = dying_forward
        with pytest.raises(NodeUnavailableError):
            node.infer_rows(rows)
        assert node.load() == 0  # inflight fully unwound
        # Accepted then lost: this one DOES count as a node failure.
        assert node.stats().requests == 1
        assert node.stats().failed == 1
        node.retire()


    @pytest.mark.parametrize("moment", ["before the pool", "in the pool"])
    def test_killed_node_spawns_nothing(self, workload, moment,
                                        monkeypatch):
        """Killed before its pool runs the block or while the pool holds
        it, a node respawns no worker and computes nothing on its
        pool: the call raises and the workers stay dead."""
        compiled, rows = workload
        node = PoolNode("n0", compiled, workers=2)
        pool = node._guard.pool
        if pool is None:
            pytest.skip("pool unavailable on this platform")
        if moment == "before the pool":
            original = node._forward

            def dying_forward(batch_rows):
                node.kill()
                return original(batch_rows)

            node._forward = dying_forward
        else:
            original = InferencePool._next_result

            def dying_wait(self, timeout):
                node.kill()
                return original(self, timeout)

            monkeypatch.setattr(InferencePool, "_next_result", dying_wait)
        with pytest.raises(NodeUnavailableError):
            node.infer_rows(rows)
        deadline = time.monotonic() + 10.0
        while node.alive_workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert node.restarts() == 0
        assert node.alive_workers() == 0
        with pytest.raises(NodeUnavailableError):
            node.infer_rows(rows)
        assert node.restarts() == 0
        node.retire()


class TestLifecycle:
    def test_drain_blocks_until_inflight_resolves(self, workload):
        compiled, rows = workload
        node = PoolNode("n0", compiled, workers=0)
        release = threading.Event()
        original = node._forward

        def held_forward(batch_rows):
            release.wait(10.0)
            return original(batch_rows)

        node._forward = held_forward
        worker = threading.Thread(
            target=lambda: node.infer_rows(rows)
        )
        worker.start()
        deadline = time.monotonic() + 5.0
        while node.load() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert node.load() == 1
        assert not node.drain(timeout=0.1)  # in-flight: can't settle
        assert node.state == DRAINING
        assert not node.dispatchable
        release.set()
        assert node.drain(timeout=10.0)
        worker.join(timeout=10.0)
        node.retire()
        assert node.state == RETIRED

    def test_drain_is_idempotent(self, workload):
        compiled, _ = workload
        node = PoolNode("n0", compiled, workers=0)
        assert node.drain(timeout=1.0)
        assert node.drain(timeout=1.0)
        assert node.state == DRAINING
        node.retire()
        node.retire()  # idempotent
        assert node.state == RETIRED

    def test_retired_node_rejects_work(self, workload):
        compiled, rows = workload
        node = PoolNode("n0", compiled, workers=0)
        node.retire()
        with pytest.raises(NodeUnavailableError):
            node.infer_rows(rows)
        assert not node.probe()

    def test_kill_sigkills_pool_workers(self, workload):
        compiled, _ = workload
        node = PoolNode("n0", compiled, workers=2)
        if node._guard.pool is None:
            pytest.skip("pool unavailable on this platform")
        procs = list(node._guard.pool._procs)
        node.kill()
        deadline = time.monotonic() + 10.0
        while (any(p.is_alive() for p in procs)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert not any(p.is_alive() for p in procs)
        node.retire()

    def test_health_snapshot_schema(self, workload):
        compiled, _ = workload
        with PoolNode("n0", compiled, workers=0) as node:
            health = node.health()
            assert health["schema"] == "repro.cluster.node/v1"
            assert health["state"] == ACTIVE
            assert health["dispatchable"] and health["healthy"]
            assert health["breaker"]["state"] == "closed"

    def test_workers_validation(self, workload):
        compiled, _ = workload
        with pytest.raises(ConfigurationError):
            PoolNode("n0", compiled, workers=-1)
