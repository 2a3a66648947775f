"""Parallel memoized design-space explorer (``python -m repro explore``).

Sweeps the chip/compiler configuration grid (NPE count, SC per NPE,
bit-slice width, bucketing policy) through the pluggable estimator
registry, memoizes completed points content-addressed in the
:class:`~repro.ssnn.compile.PlanCache`, and extracts the Pareto
frontier over accuracy / FPS / junction count / power.

See ``docs/EXPLORER.md`` for the registry protocol, the grid schema,
the Pareto semantics and the cache behaviour.
"""

from repro.explore.estimators import (
    EstimateContext,
    Estimator,
    available_estimators,
    get_estimator,
    memory_technologies,
    register_estimator,
)
from repro.explore.grid import (
    BUCKETING_POLICIES,
    EXPLORE_KIND,
    EXPLORE_SCHEMA,
    ExploreGrid,
    ExplorePoint,
    point_fingerprint,
)
from repro.explore.pareto import PARETO_AXES, dominates, pareto_frontier
from repro.explore.driver import (
    ExploreConfig,
    ExploreWorkload,
    GLOBAL_EXPLORE_COUNTERS,
    build_workload,
    evaluate_point,
    pinned_digest,
    pinned_view,
    render_report,
    run_explore,
)

__all__ = [
    "BUCKETING_POLICIES",
    "EXPLORE_KIND",
    "EXPLORE_SCHEMA",
    "EstimateContext",
    "Estimator",
    "ExploreConfig",
    "ExploreGrid",
    "ExplorePoint",
    "ExploreWorkload",
    "GLOBAL_EXPLORE_COUNTERS",
    "PARETO_AXES",
    "available_estimators",
    "build_workload",
    "dominates",
    "evaluate_point",
    "get_estimator",
    "memory_technologies",
    "pareto_frontier",
    "pinned_digest",
    "pinned_view",
    "point_fingerprint",
    "register_estimator",
    "render_report",
    "run_explore",
]
