"""Unit tests for :class:`repro.cluster.router.ClusterRouter`.

Dispatch semantics under every failure combination: affinity while
healthy, failure-aware selection around unhealthy nodes, exactly-once
re-dispatch on mid-call death, serial fallback as the floor -- and the
membership lifecycle (join/leave/evict/probe) with its counters, which
the gateway exports as cluster gauges.
"""

import time

import numpy as np
import pytest

from repro.cluster import ClusterRouter, PoolNode
from repro.errors import ConfigurationError
from repro.harness import random_binarized_network
from repro.serve import CircuitBreaker
from repro.obs import render_prometheus
from repro.ssnn import compile_network

CHIP_N = 4
SC = 8


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(41)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=SC)
    compiled = compile_network(network, CHIP_N, SC)
    rows = (np.random.default_rng(11).random((18, 11)) < 0.4)
    return compiled, rows.astype(np.float64)


def _serial_cluster(compiled, n=3):
    router = ClusterRouter(compiled)
    for i in range(n):
        router.join(PoolNode(f"n{i}", compiled, workers=0))
    return router


class TestDispatch:
    def test_affinity_dispatch_is_bit_identical(self, workload):
        compiled, rows = workload
        want = compiled.forward_rows(rows)
        router = _serial_cluster(compiled)
        try:
            got = router.dispatch(rows)
            assert np.array_equal(got[0], want[0])
            assert (got[1], got[2]) == (want[1], want[2])
            assert router.affinity_hits == 1
            # Same rows -> same key -> same owner, no fallback.
            router.dispatch(rows)
            assert router.affinity_hits == 2
            assert router.fallbacks == 0
        finally:
            router.shutdown()

    def test_affinity_key_is_plan_and_content_bound(self, workload):
        compiled, rows = workload
        router = _serial_cluster(compiled, n=1)
        try:
            key_a = router.affinity_key(rows)
            key_b = router.affinity_key(rows)
            assert key_a == key_b
            assert compiled.fingerprint in key_a
            flipped = rows.copy()
            flipped[0, 0] = 1.0 - flipped[0, 0]
            assert router.affinity_key(flipped) != key_a
        finally:
            router.shutdown()

    def test_open_breaker_sheds_affinity_to_healthy_node(self, workload):
        compiled, rows = workload
        breakers = {
            f"n{i}": CircuitBreaker(failure_threshold=1,
                                    reset_timeout_s=300.0)
            for i in range(3)
        }
        router = ClusterRouter(compiled)
        for node_id, breaker in breakers.items():
            router.join(PoolNode(node_id, compiled, workers=0,
                                 breaker=breaker))
        try:
            owner_id = router._ring.route(router.affinity_key(rows))
            breakers[owner_id].record_failure()  # owner degrades
            want = compiled.forward_rows(rows)
            got = router.dispatch(rows)
            assert np.array_equal(got[0], want[0])
            assert router.fallbacks == 1 and router.affinity_hits == 0
            assert router.retries == 0  # routed around, not retried
        finally:
            router.shutdown()

    def test_mid_call_death_redispatches_exactly_once(self, workload):
        compiled, rows = workload
        want = compiled.forward_rows(rows)
        router = _serial_cluster(compiled, n=2)
        try:
            victim = router.node(
                router._ring.route(router.affinity_key(rows))
            )
            original = victim._forward

            def dying_forward(batch_rows):
                victim.kill()
                return original(batch_rows)

            victim._forward = dying_forward
            got = router.dispatch(rows)
            assert np.array_equal(got[0], want[0])
            assert router.retries == 1
            assert router.evictions == 1
            assert victim.node_id not in router._ring
            # Follow-up traffic needs no retry.
            router.dispatch(rows)
            assert router.retries == 1
        finally:
            router.shutdown()

    def test_killed_pool_node_is_retried_once_and_spawns_nothing(
            self, workload):
        compiled, rows = workload
        want = compiled.forward_rows(rows)
        router = ClusterRouter(compiled)
        for i in range(2):
            router.join(PoolNode(f"n{i}", compiled, workers=2))
        try:
            victim = router.node(
                router._ring.route(router.affinity_key(rows))
            )
            if victim._guard.pool is None:
                pytest.skip("pool unavailable on this platform")
            original = victim._forward

            def dying_forward(batch_rows):
                victim.kill()
                return original(batch_rows)

            victim._forward = dying_forward
            got = router.dispatch(rows)
            assert np.array_equal(got[0], want[0])
            assert (got[1], got[2]) == (want[1], want[2])
            assert router.retries == 1
            deadline = time.monotonic() + 10.0
            while victim.alive_workers() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert victim.restarts() == 0
            assert victim.alive_workers() == 0
        finally:
            router.shutdown()

    def test_total_node_loss_falls_back_serially(self, workload):
        compiled, rows = workload
        want = compiled.forward_rows(rows)
        router = _serial_cluster(compiled, n=2)
        try:
            for node_id in router.node_ids():
                router.node(node_id).kill()
            got = router.dispatch(rows)
            assert np.array_equal(got[0], want[0])
            assert router.serial_fallbacks == 1
        finally:
            router.shutdown()

    def test_empty_cluster_answers_serially(self, workload):
        compiled, rows = workload
        router = ClusterRouter(compiled)
        want = compiled.forward_rows(rows)
        got = router.dispatch(rows)
        assert np.array_equal(got[0], want[0])
        assert router.serial_fallbacks == 1

    def test_shape_validation(self, workload):
        compiled, _ = workload
        router = _serial_cluster(compiled, n=1)
        try:
            with pytest.raises(ConfigurationError):
                router.dispatch(np.zeros((4, compiled.in_features + 1)))
            with pytest.raises(ConfigurationError):
                router.dispatch(np.zeros(compiled.in_features))
        finally:
            router.shutdown()


class TestMembership:
    def test_join_is_idempotent(self, workload):
        compiled, _ = workload
        router = ClusterRouter(compiled)
        node = PoolNode("n0", compiled, workers=0)
        router.join(node)
        router.join(node)
        assert router.node_ids() == ("n0",)
        assert router.rebalances == 1
        router.shutdown()

    def test_leave_drains_before_retire(self, workload):
        compiled, rows = workload
        router = _serial_cluster(compiled, n=2)
        try:
            victim_id = router.node_ids()[0]
            victim = router.node(victim_id)
            assert router.leave(victim_id) is True
            assert victim.state == "retired"
            assert victim_id not in router._ring
            assert router.node(victim_id) is None
            want = compiled.forward_rows(rows)
            assert np.array_equal(router.dispatch(rows)[0], want[0])
        finally:
            router.shutdown()

    def test_leave_unknown_node_is_noop(self, workload):
        compiled, _ = workload
        router = ClusterRouter(compiled)
        assert router.leave("ghost") is True

    def test_probe_quarantines_and_rejoins(self, workload):
        compiled, _ = workload
        router = _serial_cluster(compiled, n=2)
        try:
            target = router.node(router.node_ids()[0])
            target.partition()
            verdicts = router.probe_all()
            assert verdicts[target.node_id] is False
            assert target.node_id not in router._ring
            assert router.quarantines == 1
            # Roster retains the node for the heal path.
            assert router.node(target.node_id) is target
            target.heal_partition()
            verdicts = router.probe_all()
            assert verdicts[target.node_id] is True
            assert target.node_id in router._ring
            assert router.rejoins == 1
        finally:
            router.shutdown()

    def test_probe_evicts_the_dead(self, workload):
        compiled, _ = workload
        router = _serial_cluster(compiled, n=2)
        try:
            corpse = router.node(router.node_ids()[0])
            corpse.kill()
            router.probe_all()
            assert corpse.node_id not in router._ring
            assert router.evictions == 1
            assert router.alive_count() == 1
        finally:
            router.shutdown()


class TestObservability:
    def test_stats_schema_and_counters(self, workload):
        compiled, rows = workload
        router = _serial_cluster(compiled, n=2)
        try:
            router.dispatch(rows)
            snap = router.stats()
            assert snap["schema"] == "repro.cluster/v1"
            assert snap["plan"] == compiled.fingerprint
            assert snap["nodes_total"] == 2
            assert snap["nodes_routable"] == 2
            assert snap["counters"]["dispatches"] == 1
            assert set(snap["per_node"]) == set(router.node_ids())
            entry = next(iter(snap["per_node"].values()))
            assert {"state", "partitioned", "in_ring", "breaker",
                    "workers_alive", "restarts", "inflight",
                    "dispatches"} <= set(entry)
        finally:
            router.shutdown()

    def test_metric_families_render(self, workload):
        compiled, rows = workload
        router = _serial_cluster(compiled, n=2)
        try:
            router.dispatch(rows)
            text = render_prometheus(router.metric_families())
            assert 'sushi_cluster_nodes{state="active"} 2' in text
            assert "sushi_cluster_rebalances_total 2" in text
            assert "sushi_cluster_dispatches_total 1" in text
            assert 'node="n0"' in text
            assert 'sushi_cluster_node_breaker_state' in text
        finally:
            router.shutdown()
