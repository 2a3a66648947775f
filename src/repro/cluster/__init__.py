"""Cluster serving layer: sharded pool nodes behind smart dispatch.

SUSHI scales by replicating constrained NPEs behind a mesh; this
package mirrors that shape in software.  N :class:`PoolNode` "machines"
(independent supervised :class:`~repro.ssnn.pool.InferencePool` process
groups, each with a private shm namespace, circuit breaker and gauges)
sit behind a :class:`ClusterRouter` dispatching by consistent-hash plan
affinity (:class:`ConsistentHashRing`) with least-loaded fallback,
exactly-once failure retry and a serial last resort -- so node death,
partition and scale events cost latency, never answers.  An optional
:class:`Autoscaler` resizes the cluster from the serving gauges, and
:class:`ClusterServer` packages the whole thing behind the same
interface the HTTP gateway already speaks.  See ``docs/CLUSTER.md``.
"""

from repro.cluster.autoscaler import (
    SCALE_DOWN,
    SCALE_UP,
    Autoscaler,
    AutoscalerConfig,
)
from repro.cluster.node import (
    ACTIVE,
    DEAD,
    DRAINING,
    RETIRED,
    NodeUnavailableError,
    PoolNode,
)
from repro.cluster.ring import ConsistentHashRing
from repro.cluster.router import CLUSTER_SCHEMA, ClusterRouter
from repro.cluster.service import ClusterServer

__all__ = [
    "ACTIVE",
    "DEAD",
    "DRAINING",
    "RETIRED",
    "SCALE_DOWN",
    "SCALE_UP",
    "CLUSTER_SCHEMA",
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterRouter",
    "ClusterServer",
    "ConsistentHashRing",
    "NodeUnavailableError",
    "PoolNode",
]
