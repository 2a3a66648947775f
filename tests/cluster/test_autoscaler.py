"""Unit tests for the cluster autoscaler (fake clock, scripted gauges).

Every decision is a pure function of (gauges, streaks, cooldown clock,
cluster size), so the tests drive :meth:`Autoscaler.tick` explicitly
and assert the exact action trajectory -- hysteresis, cooldown, bounds
and the drain-before-retire scale-down path.
"""

import numpy as np
import pytest

from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterRouter,
    PoolNode,
)
from repro.cluster.autoscaler import _EVENT_WINDOW
from repro.errors import ConfigurationError
from repro.harness import random_binarized_network
from repro.ssnn import compile_network


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(41)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=8)
    return compile_network(network, 4, 8)


@pytest.fixture()
def harness(compiled):
    router = ClusterRouter(compiled)
    seq = []

    def factory(node_id):
        seq.append(node_id)
        return PoolNode(node_id, compiled, workers=0)

    router.join(factory("seed"))
    clock = StepClock()
    config = AutoscalerConfig(
        min_nodes=1, max_nodes=4, hysteresis=2, cooldown_s=10.0,
        scale_up_queue_depth=8.0, scale_down_queue_depth=1.0,
        scale_up_latency_ms=250.0, scale_down_latency_ms=50.0,
    )
    scaler = Autoscaler(router, factory, config=config, clock=clock)
    yield router, scaler, clock
    router.shutdown()


HOT = {"queue_depth": 20.0, "latency_ms_p95": 400.0}
COLD = {"queue_depth": 0.0, "latency_ms_p95": 1.0}
MILD = {"queue_depth": 4.0, "latency_ms_p95": 100.0}


class TestHysteresis:
    def test_single_hot_tick_does_nothing(self, harness):
        router, scaler, clock = harness
        assert scaler.tick(**HOT) is None
        assert router.alive_count() == 1

    def test_two_hot_ticks_scale_up(self, harness):
        router, scaler, clock = harness
        assert scaler.tick(**HOT) is None
        assert scaler.tick(**HOT) == "scale-up"
        assert router.alive_count() == 2
        assert scaler.scale_ups == 1
        assert scaler.events[0]["action"] == "scale-up"
        assert scaler.events[0]["nodes_before"] == 1
        assert scaler.events[0]["nodes_after"] == 2

    def test_dead_band_resets_streaks(self, harness):
        router, scaler, clock = harness
        scaler.tick(**HOT)
        scaler.tick(**MILD)  # between thresholds: streak resets
        assert scaler.tick(**HOT) is None
        assert router.alive_count() == 1

    def test_latency_alone_triggers_up(self, harness):
        router, scaler, clock = harness
        gauges = {"queue_depth": 0.0, "latency_ms_p95": 400.0}
        scaler.tick(**gauges)
        assert scaler.tick(**gauges) == "scale-up"

    def test_scale_down_needs_both_gauges_cold(self, harness):
        router, scaler, clock = harness
        scaler.tick(**HOT)
        scaler.tick(**HOT)  # -> 2 nodes
        clock.advance(11.0)
        half_cold = {"queue_depth": 0.0, "latency_ms_p95": 100.0}
        scaler.tick(**half_cold)
        assert scaler.tick(**half_cold) is None  # latency not cold
        scaler.tick(**COLD)
        assert scaler.tick(**COLD) == "scale-down"


class TestCooldownAndBounds:
    def test_cooldown_blocks_consecutive_actions(self, harness):
        router, scaler, clock = harness
        scaler.tick(**HOT)
        scaler.tick(**HOT)  # action at t=0
        assert scaler.tick(**HOT) is None  # hysteresis satisfied but...
        assert scaler.tick(**HOT) is None  # ...cooldown holds
        assert router.alive_count() == 2
        clock.advance(10.0)
        assert scaler.tick(**HOT) == "scale-up"
        assert router.alive_count() == 3

    def test_max_nodes_is_a_ceiling(self, harness):
        router, scaler, clock = harness
        while router.alive_count() < 4:
            clock.advance(11.0)
            scaler.tick(**HOT)
            scaler.tick(**HOT)
        clock.advance(11.0)
        scaler.tick(**HOT)
        assert scaler.tick(**HOT) is None
        assert router.alive_count() == 4

    def test_min_nodes_is_a_floor(self, harness):
        router, scaler, clock = harness
        scaler.tick(**COLD)
        assert scaler.tick(**COLD) is None
        assert router.alive_count() == 1


class TestScaleDownSemantics:
    def test_scale_down_drains_and_retires_the_victim(self, harness):
        router, scaler, clock = harness
        scaler.tick(**HOT)
        scaler.tick(**HOT)
        added = [n for n in router.node_ids() if n != "seed"]
        assert len(added) == 1
        victim = router.node(added[0])
        clock.advance(11.0)
        scaler.tick(**COLD)
        assert scaler.tick(**COLD) == "scale-down"
        assert victim.state == "retired"
        assert router.node(victim.node_id) is None
        assert router.alive_count() == 1
        # The seed node survives (newest-id victim selection).
        assert router.node_ids() == ("seed",)

    def test_stats_trajectory(self, harness):
        router, scaler, clock = harness
        scaler.tick(**HOT)
        scaler.tick(**HOT)
        clock.advance(11.0)
        scaler.tick(**COLD)
        scaler.tick(**COLD)
        snap = scaler.stats()
        assert snap["schema"] == "repro.cluster.autoscaler/v1"
        assert snap["scale_ups"] == 1 and snap["scale_downs"] == 1
        assert [e["action"] for e in snap["events"]] == [
            "scale-up", "scale-down",
        ]
        assert snap["ticks"] == 4


class TestEventWindow:
    def test_events_keep_only_the_newest_actions(self, harness):
        router, scaler, clock = harness
        assert _EVENT_WINDOW >= 14  # the whole 1 -> 8 -> 1 scale storm
        total = _EVENT_WINDOW + 5
        for _ in range(total):  # flap between one node and two
            gauges = HOT if router.alive_count() == 1 else COLD
            clock.advance(11.0)
            scaler.tick(**gauges)
            assert scaler.tick(**gauges) is not None
        assert scaler.scale_ups + scaler.scale_downs == total
        assert len(scaler.events) == _EVENT_WINDOW
        assert scaler.stats()["events"] == scaler.events
        # Actions alternate up/down on nodes scale-1, scale-1, scale-2,
        # ...; the five oldest are gone.
        assert (scaler.events[0]["action"], scaler.events[0]["node"]) \
            == ("scale-down", "scale-3")
        assert (scaler.events[-1]["action"], scaler.events[-1]["node"]) \
            == ("scale-up", f"scale-{(total + 1) // 2}")


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_nodes=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_nodes=4, max_nodes=2)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(hysteresis=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(scale_down_queue_depth=10.0,
                             scale_up_queue_depth=5.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(scale_down_latency_ms=500.0,
                             scale_up_latency_ms=250.0)

    def test_observed_gauges_from_empty_cluster(self, compiled):
        router = ClusterRouter(compiled)
        scaler = Autoscaler(router, lambda nid: PoolNode(
            nid, compiled, workers=0
        ))
        gauges = scaler.observed_gauges()
        assert gauges == {"queue_depth": 0.0, "latency_ms_p95": 0.0}
