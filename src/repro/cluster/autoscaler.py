"""Gauge-driven cluster autoscaling with hysteresis and cooldown.

The :class:`Autoscaler` closes the loop between the serving gauges the
stack already exports (queue depth and p95 latency from
:class:`~repro.serve.metrics.ServerStats`) and the router's node
lifecycle: sustained pressure spawns nodes (up to ``max_nodes``),
sustained idleness drains-then-retires them (down to ``min_nodes``).

Three guard rails keep it from flapping:

* **Hysteresis** -- a scale decision needs ``hysteresis`` *consecutive*
  breaching evaluations; a single hot tick does nothing.
* **Cooldown** -- after any action the scaler holds still for
  ``cooldown_s`` regardless of gauges, giving the new topology time to
  absorb the load shift (breach streaks keep accumulating meanwhile).
* **Drain-before-retire** -- scale-down goes through
  :meth:`ClusterRouter.leave`: the victim leaves the hash ring first
  (no new work), finishes its in-flight row blocks, then retires.  No
  answer is ever lost to a scale-down.

The evaluation clock is injectable, so tests (and the scale-storm chaos
scenario) drive :meth:`tick` with a fake clock and scripted gauges --
the decision trajectory is fully deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.cluster.node import PoolNode
from repro.cluster.router import ClusterRouter

SCALE_UP = "scale-up"
SCALE_DOWN = "scale-down"

#: Scale actions retained in :attr:`Autoscaler.events` (oldest dropped
#: first); the 1 -> 8 -> 1 scale storm takes 14.
_EVENT_WINDOW = 32


@dataclass(frozen=True)
class AutoscalerConfig:
    """Policy knobs (defaults sized for the demo workloads).

    Attributes:
        min_nodes / max_nodes: Cluster size bounds (1..8 mirrors the
            ISSUE's 1->8 scale-under-load scenario).
        scale_up_queue_depth: Mean routable-node queue depth at or
            above which a tick counts toward scaling up.
        scale_up_latency_ms: p95 latency (ms) at or above which a tick
            counts toward scaling up (either trigger suffices).
        scale_down_queue_depth / scale_down_latency_ms: Both must be at
            or below these for a tick to count toward scaling down --
            the gap between up and down thresholds is the dead band.
        hysteresis: Consecutive breaching ticks required to act.
        cooldown_s: Quiet period after any action.
        drain_timeout_s: Bound on the scale-down drain handshake.
    """

    min_nodes: int = 1
    max_nodes: int = 8
    scale_up_queue_depth: float = 8.0
    scale_up_latency_ms: float = 250.0
    scale_down_queue_depth: float = 1.0
    scale_down_latency_ms: float = 50.0
    hysteresis: int = 2
    cooldown_s: float = 10.0
    drain_timeout_s: float = 30.0

    def __post_init__(self):
        if self.min_nodes < 1:
            raise ConfigurationError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ConfigurationError("max_nodes must be >= min_nodes")
        if self.hysteresis < 1:
            raise ConfigurationError("hysteresis must be >= 1")
        if self.cooldown_s < 0 or self.drain_timeout_s < 0:
            raise ConfigurationError("timeouts must be >= 0")
        if self.scale_down_queue_depth > self.scale_up_queue_depth:
            raise ConfigurationError(
                "scale_down_queue_depth must not exceed scale_up_queue_depth"
            )
        if self.scale_down_latency_ms > self.scale_up_latency_ms:
            raise ConfigurationError(
                "scale_down_latency_ms must not exceed scale_up_latency_ms"
            )


class Autoscaler:
    """Drives node join/leave from serving gauges.

    Args:
        router: The cluster to resize.
        node_factory: ``node_factory(node_id) -> PoolNode`` -- how the
            scaler spawns capacity (the :class:`ClusterServer` wires a
            factory that clones its pool configuration).
        config: Policy; defaults above.
        clock: Monotonic-seconds callable (injectable for tests).
    """

    def __init__(
        self,
        router: ClusterRouter,
        node_factory: Callable[[str], PoolNode],
        config: Optional[AutoscalerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.router = router
        self.node_factory = node_factory
        self.config = config if config is not None else AutoscalerConfig()
        self._clock = clock
        self._seq = 0
        self._spawned: List[str] = []  # join order, for LIFO unwind
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_at: Optional[float] = None
        self.scale_ups = 0
        self.scale_downs = 0
        self.ticks = 0
        self.events: List[Dict] = []

    # -- gauge sourcing ------------------------------------------------------

    def observed_gauges(self) -> Dict[str, float]:
        """Default gauges from the router: mean in-flight depth per
        routable node plus the worst per-node p95 latency."""
        nodes = self.router.routable_nodes()
        if not nodes:
            return {"queue_depth": 0.0, "latency_ms_p95": 0.0}
        total_inflight = sum(n.load() for n in nodes)
        worst_p95 = max(n.stats().latency_ms_p95 for n in nodes)
        return {
            "queue_depth": total_inflight / len(nodes),
            "latency_ms_p95": worst_p95,
        }

    # -- decision loop -------------------------------------------------------

    def tick(
        self,
        queue_depth: Optional[float] = None,
        latency_ms_p95: Optional[float] = None,
    ) -> Optional[str]:
        """One evaluation.  Gauges default to :meth:`observed_gauges`;
        tests and the chaos storm pass them explicitly.  Returns
        ``"scale-up"``, ``"scale-down"`` or ``None``."""
        cfg = self.config
        if queue_depth is None or latency_ms_p95 is None:
            observed = self.observed_gauges()
            if queue_depth is None:
                queue_depth = observed["queue_depth"]
            if latency_ms_p95 is None:
                latency_ms_p95 = observed["latency_ms_p95"]
        self.ticks += 1

        hot = (queue_depth >= cfg.scale_up_queue_depth
               or latency_ms_p95 >= cfg.scale_up_latency_ms)
        cold = (queue_depth <= cfg.scale_down_queue_depth
                and latency_ms_p95 <= cfg.scale_down_latency_ms)
        if hot:
            self._up_streak += 1
            self._down_streak = 0
        elif cold:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0

        now = self._clock()
        if (self._last_action_at is not None
                and now - self._last_action_at < cfg.cooldown_s):
            return None

        nodes = self.router.alive_count()
        if self._up_streak >= cfg.hysteresis and nodes < cfg.max_nodes:
            return self._scale_up(now, queue_depth, latency_ms_p95)
        if self._down_streak >= cfg.hysteresis and nodes > cfg.min_nodes:
            return self._scale_down(now, queue_depth, latency_ms_p95)
        return None

    def _scale_up(self, now: float, queue_depth: float,
                  latency_ms_p95: float) -> str:
        before = self.router.alive_count()
        self._seq += 1
        node = self.node_factory(f"scale-{self._seq}")
        self.router.join(node)
        self._spawned.append(node.node_id)
        self.scale_ups += 1
        self._record(SCALE_UP, now, before, queue_depth, latency_ms_p95,
                     node.node_id)
        return SCALE_UP

    def _scale_down(self, now: float, queue_depth: float,
                    latency_ms_p95: float) -> str:
        routable = self.router.routable_nodes()
        before = len(routable)
        # Victim: among the least-loaded nodes, unwind the autoscaler's
        # own spawns newest-first (LIFO) so the operator-provisioned
        # seed nodes survive; only if no spawn qualifies fall back to
        # the largest node id for determinism.
        min_load = min(n.load() for n in routable)
        candidates = {n.node_id: n for n in routable
                      if n.load() == min_load}
        victim = None
        for node_id in reversed(self._spawned):
            if node_id in candidates:
                victim = candidates[node_id]
                break
        if victim is None:
            victim = candidates[max(candidates)]
        if victim.node_id in self._spawned:
            self._spawned.remove(victim.node_id)
        self.router.leave(victim.node_id,
                          timeout=self.config.drain_timeout_s)
        self.scale_downs += 1
        self._record(SCALE_DOWN, now, before, queue_depth, latency_ms_p95,
                     victim.node_id)
        return SCALE_DOWN

    def _record(self, action: str, now: float, before: int,
                queue_depth: float, latency_ms_p95: float,
                node_id: str) -> None:
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_at = now
        self.events.append({
            "action": action,
            "node": node_id,
            "nodes_before": before,
            "nodes_after": self.router.alive_count(),
            "queue_depth": round(float(queue_depth), 3),
            "latency_ms_p95": round(float(latency_ms_p95), 3),
        })
        del self.events[:-_EVENT_WINDOW]

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict:
        return {
            "schema": "repro.cluster.autoscaler/v1",
            "config": {
                "min_nodes": self.config.min_nodes,
                "max_nodes": self.config.max_nodes,
                "hysteresis": self.config.hysteresis,
                "cooldown_s": self.config.cooldown_s,
            },
            "ticks": self.ticks,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "events": list(self.events),
        }

    def __repr__(self) -> str:
        return (f"<Autoscaler nodes={self.router.alive_count()} "
                f"ups={self.scale_ups} downs={self.scale_downs} "
                f"ticks={self.ticks}>")
