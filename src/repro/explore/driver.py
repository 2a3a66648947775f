"""Parallel memoized design-space sweeps (the explorer's engine room).

``run_explore`` turns an :class:`~repro.explore.grid.ExploreGrid` into a
``repro.explore/v1`` report:

1. **Workload** -- a deterministic binarized network + spike-row block
   (seeded, content-fingerprinted).  Reference predictions come from the
   ideal (unconstrained) network forward once per sweep.
2. **Memoization** -- every grid point is content-addressed
   (:func:`~repro.explore.grid.point_fingerprint`) and completed points
   are stored in the shared :class:`~repro.ssnn.compile.PlanCache`
   under the :data:`~repro.explore.grid.EXPLORE_KIND` namespace.  A
   re-run or a widened grid pays only for the delta; cache traffic is
   parent-side only, so hit/miss counts are exact and deterministic.
3. **Fan-out** -- uncached points evaluate on a process pool
   (``workers >= 2``); each worker receives the pickled workload once
   at start-up (the initializer idiom of :mod:`repro.ssnn.pool`'s
   ancestors) and per-point tasks are just coordinates.  Results are
   re-assembled in grid order, so serial and parallel sweeps are
   bit-identical.  A broken pool degrades to inline evaluation.
4. **Accuracy** rides the compiled SSNN path:
   :func:`~repro.ssnn.compile.compile_network` (through the plan cache
   when one is given -- points sharing a ``(slice_width, sc,
   bucketing)`` compilation hit the same plan) and
   :meth:`~repro.ssnn.compile.CompiledNetwork.forward_rows`.  Points
   whose capacity check fails are recorded *infeasible* (the SuperSNN
   realizability axis) and keep their resource/power estimates.
5. **Gate-level probe** -- per unique NPE count, the transmission
   latency of a mesh-scale JTL line is measured through
   :class:`~repro.rsfq.trace.TraceEngine` (recorded once, replayed from
   the trace cache on warm sweeps); fallbacks are counted and exported.
6. **Pareto extraction** -- :func:`~repro.explore.pareto
   .pareto_frontier` over the feasible points.

Everything pinned by :func:`pinned_view` is a pure function of the
config -- independent of worker count, cache warmth, host and wall
clock (asserted by ``tests/explore/`` and gated by
``benchmarks/test_explore_speedup.py``).
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.explore.estimators import (
    EstimateContext,
    MEMORY_PREFIX,
    get_estimator,
    memory_technologies,
)
from repro.explore.grid import (
    EXPLORE_KIND,
    EXPLORE_SCHEMA,
    EXPLORE_SCHEMA_VERSION,
    ExploreGrid,
    ExplorePoint,
    point_fingerprint,
)
from repro.explore.pareto import PARETO_AXES, pareto_frontier
from repro.harness.campaign import build_reference_pipeline
from repro.harness.differential import (
    random_binarized_network,
    random_spike_trains,
)
from repro.harness.reporting import format_table
from repro.obs import Counters
from repro.snn.binarize import BinarizedNetwork
from repro.ssnn.compile import (
    PlanCache,
    compile_network,
    resolve_plan_cache,
)

__all__ = [
    "ExploreConfig",
    "ExploreWorkload",
    "GLOBAL_EXPLORE_COUNTERS",
    "build_workload",
    "evaluate_point",
    "run_explore",
    "pinned_view",
    "pinned_digest",
    "render_report",
]


# -- sweep counters ----------------------------------------------------------

#: Process-wide sweep totals, scraped by the gateway ``/metrics``
#: endpoint as ``sushi_explore_*``.  Pass ``.fresh()`` to
#: :func:`run_explore` to count one sweep on its own.
GLOBAL_EXPLORE_COUNTERS = Counters("sushi_explore", {
    "sweeps": "Design-space sweeps executed",
    "points_requested": "Grid points requested across all sweeps",
    "points_evaluated": "Grid points evaluated (cache misses)",
    "point_cache_hits": "Grid points served from the explore-point cache",
    "point_cache_misses": "Explore-point cache lookups that missed",
    "infeasible_points": "Grid points rejected by the capacity check",
    "trace_probe_replays": "Mesh latency probes served by trace replay",
    "trace_probe_fallbacks":
        "Mesh latency probes that fell back to the event engine",
})


# -- configuration and workload ----------------------------------------------


@dataclass(frozen=True)
class ExploreConfig:
    """One sweep's grid, workload recipe and execution knobs.

    Only ``workers`` and the cache are execution details; everything
    else participates in the pinned report.  ``workload_sc`` is the SC
    count the random network is drawn *safe for* -- grid points with
    fewer SCs will typically be infeasible (the realizability axis).
    """

    grid: ExploreGrid = field(default_factory=ExploreGrid)
    seed: int = 2026
    sizes: Tuple[int, ...] = (96, 64, 10)
    steps: int = 2
    frames: int = 32
    workload_sc: int = 8
    spike_rate: float = 0.4
    memory_technology: str = "ndro"
    estimators: Tuple[str, ...] = ("resources", "power", "performance")
    probe_pulses: int = 4
    workers: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.frames < 1:
            raise ConfigurationError("steps and frames must be >= 1")
        if len(self.sizes) < 2:
            raise ConfigurationError("sizes needs input and output")
        if self.memory_technology not in memory_technologies():
            raise ConfigurationError(
                f"unknown memory technology "
                f"'{self.memory_technology}'; available: "
                f"{memory_technologies()}"
            )
        for name in self.estimators:
            get_estimator(name)  # raises on unknown names
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.probe_pulses < 1:
            raise ConfigurationError("probe_pulses must be >= 1")

    @classmethod
    def quick(cls, workers: int = 0) -> "ExploreConfig":
        """The CI smoke grid: 8 points, sub-second cold."""
        return cls(
            grid=ExploreGrid(
                npe_counts=(8, 16),
                sc_per_npe=(4, 8, 10),
                slice_widths=(4,),
                bucketing=("reordered", "naive"),
            ),
            sizes=(32, 24, 8),
            frames=16,
            workers=workers,
        )

    @property
    def memory_estimator(self) -> str:
        return MEMORY_PREFIX + self.memory_technology


@dataclass(frozen=True)
class ExploreWorkload:
    """The sweep's fixed evaluation workload (built once, shipped to
    workers once)."""

    network: BinarizedNetwork
    rows: np.ndarray           # (steps * frames, in_features)
    steps: int
    frames: int
    reference_labels: np.ndarray  # (frames,) ideal-forward argmax
    fingerprint: str
    max_strength: int
    utilisation: float

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "layers": [list(l.signed_weights.shape)
                       for l in self.network.layers],
            "steps": self.steps,
            "frames": self.frames,
            "max_strength": self.max_strength,
            "utilisation": self.utilisation,
        }


def _reference_labels(network: BinarizedNetwork, rows: np.ndarray,
                      steps: int, frames: int) -> np.ndarray:
    """Ideal-forward predictions: per-frame argmax of output decisions
    accumulated over time steps (no capacity limit, no bucketing)."""
    current = rows
    for layer in network.layers:
        current = layer.forward(current)
    spikes = np.asarray(current, dtype=np.float64)
    per_frame = spikes.reshape(steps, frames, -1).sum(axis=0)
    return per_frame.argmax(axis=1).astype(np.int64)


def build_workload(config: ExploreConfig) -> ExploreWorkload:
    """Materialise the deterministic workload described by ``config``."""
    rng = np.random.default_rng(config.seed)
    network = random_binarized_network(
        rng, sizes=config.sizes, sc_per_npe=config.workload_sc
    )
    trains = random_spike_trains(
        rng, config.steps, config.frames, config.sizes[0],
        rate=config.spike_rate,
    )
    rows = np.ascontiguousarray(
        trains.reshape(config.steps * config.frames, config.sizes[0])
    )
    digest = hashlib.sha256()
    digest.update(
        f"{EXPLORE_SCHEMA}/v{EXPLORE_SCHEMA_VERSION}|workload"
        f"|seed={config.seed}|steps={config.steps}"
        f"|frames={config.frames}|rate={config.spike_rate!r}".encode()
    )
    for layer in network.layers:
        digest.update(np.ascontiguousarray(
            layer.signed_weights, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(
            layer.thresholds, dtype=np.int64).tobytes())
    digest.update(rows.astype(np.uint8).tobytes())
    utilisation = float(rows.mean())
    return ExploreWorkload(
        network=network,
        rows=rows,
        steps=config.steps,
        frames=config.frames,
        reference_labels=_reference_labels(
            network, rows, config.steps, config.frames
        ),
        fingerprint=digest.hexdigest(),
        max_strength=max(
            layer.max_strength for layer in network.layers
        ),
        utilisation=utilisation,
    )


# -- point evaluation --------------------------------------------------------


def evaluate_point(
    point: ExplorePoint,
    workload: ExploreWorkload,
    config: ExploreConfig,
    plan_cache: Optional[PlanCache] = None,
) -> dict:
    """Evaluate one grid point into its report row (pure/deterministic:
    same inputs -> bit-identical row, on any host or process)."""
    memory = get_estimator(config.memory_estimator)
    ndro_baseline = get_estimator(MEMORY_PREFIX + "ndro")
    context = EstimateContext(
        max_strength=workload.max_strength,
        utilisation=workload.utilisation,
    )
    metrics: Dict[str, object] = {}
    for name in config.estimators:
        if name == "performance":
            continue  # needs the measured synops; runs below
        metrics.update(get_estimator(name).estimate(point, context))
    mem_metrics = memory.estimate(point, context)
    ndro_metrics = ndro_baseline.estimate(point, context)
    metrics.update(mem_metrics)

    feasible = True
    error: Optional[str] = None
    try:
        if plan_cache is not None:
            compiled = plan_cache.get_or_compile(
                workload.network, point.slice_width, point.sc_per_npe,
                reorder=point.reorder,
            )
        else:
            compiled = compile_network(
                workload.network, point.slice_width, point.sc_per_npe,
                reorder=point.reorder,
            )
    except CapacityError as exc:
        feasible = False
        error = str(exc)
        compiled = None

    synops_per_frame: Optional[float] = None
    reload_fraction: Optional[float] = None
    if compiled is not None:
        decisions, spurious, synops = compiled.forward_rows(workload.rows)
        per_frame = decisions.reshape(
            workload.steps, workload.frames, -1
        ).sum(axis=0)
        predictions = per_frame.argmax(axis=1).astype(np.int64)
        matches = int((predictions == workload.reference_labels).sum())
        synops_per_frame = synops / workload.frames
        reload_per_frame = (compiled.reload_events * workload.steps
                            * float(mem_metrics["memory_reload_scale"]))
        reload_fraction = min(0.95, reload_per_frame / (
            reload_per_frame + synops_per_frame
        )) if synops_per_frame > 0 else 0.0
        metrics.update({
            "accuracy": round(matches / workload.frames, 6),
            "spurious": int(spurious),
            "synops_per_frame": round(synops_per_frame, 3),
            "reload_fraction": round(reload_fraction, 6),
            "pass_count": int(compiled.pass_count),
            "reload_events": int(compiled.reload_events),
            "reload_passes": int(compiled.reload_passes),
            "plan_fingerprint": compiled.fingerprint,
        })

    if "performance" in config.estimators:
        metrics.update(get_estimator("performance").estimate(
            point,
            EstimateContext(
                max_strength=workload.max_strength,
                synops_per_frame=synops_per_frame,
                reload_fraction=reload_fraction,
                utilisation=workload.utilisation,
            ),
        ))

    # Memory-technology-adjusted totals: swap the NDRO crosspoint store
    # (already inside the chip model's logic_jj) for the configured
    # technology's per-bit costs.
    if "total_jj" in metrics:
        metrics["total_jj_effective"] = int(
            metrics["total_jj"] + mem_metrics["memory_jj"]
            - ndro_metrics["memory_jj"]
        )
    if "power_mw" in metrics:
        metrics["power_mw_effective"] = round(
            metrics["power_mw"] + mem_metrics["memory_power_mw"]
            - ndro_metrics["memory_power_mw"], 4
        )

    return {
        "key": point.key,
        "point": point.to_dict(),
        "feasible": feasible,
        "error": error,
        "metrics": metrics,
    }


# -- content-addressed point memoization -------------------------------------


def _decode_point(meta: dict, arrays) -> dict:
    """A memoized row from its ``PlanCache`` entry; a stale schema is
    rejected (the store then drops the entry and the point re-runs)."""
    if meta.get("schema_version") != EXPLORE_SCHEMA_VERSION:
        raise ConfigurationError("stale explore-point entry")
    return meta["row"]


# -- gate-level mesh probes --------------------------------------------------


def measure_probe_latencies(
    npe_counts: Sequence[int],
    plan_cache: Optional[PlanCache],
    n_pulses: int,
    counters: Counters,
) -> Dict[int, float]:
    """Measured far-end latency (ps) of an ``npe_count``-stage JTL line
    per unique NPE count, through the traced engine: recorded once,
    served as a vectorized replay from the trace cache afterwards."""
    from repro.rsfq.trace import TraceEngine

    latencies: Dict[int, float] = {}
    for npe_count in sorted(set(npe_counts)):
        net, probe = build_reference_pipeline(npe_count)
        engine = TraceEngine(net, cache=plan_cache)
        first = next(iter(net.cells))
        stimuli = [(first, "din", 100.0 * k) for k in range(n_pulses)]
        episode = engine.run_episode((stimuli,))
        latencies[npe_count] = round(
            float(probe.times[0]) if probe.times
            else float(episode.final_time_ps), 4
        )
        counters.inc("trace_probe_replays", engine.stats["replays"])
        counters.inc("trace_probe_fallbacks", engine.stats["fallbacks"])
    return latencies


# -- process-pool fan-out ----------------------------------------------------

_EXPLORE_WORKER: dict = {}


def _init_worker(payload: bytes, cache_root: Optional[str]) -> None:
    """Pool initializer: unpickle the workload/config once per worker
    (the compile-once artifact is the only payload that ever crosses
    the process boundary by value)."""
    import pickle

    config, workload = pickle.loads(payload)
    _EXPLORE_WORKER["config"] = config
    _EXPLORE_WORKER["workload"] = workload
    _EXPLORE_WORKER["plan_cache"] = (
        PlanCache(root=cache_root) if cache_root else None
    )


def _evaluate_remote(coords: Tuple[int, int, int, str]) -> dict:
    """Pool task: evaluate one point from its coordinates."""
    point = ExplorePoint(*coords)
    return evaluate_point(
        point, _EXPLORE_WORKER["workload"], _EXPLORE_WORKER["config"],
        plan_cache=_EXPLORE_WORKER["plan_cache"],
    )


def _evaluate_pending(
    pending: List[ExplorePoint],
    workload: ExploreWorkload,
    config: ExploreConfig,
    plan_cache: Optional[PlanCache],
) -> Dict[str, dict]:
    """Evaluate the uncached points, fanning out when ``workers >= 2``;
    a broken pool degrades to inline evaluation of whatever is left."""
    results: Dict[str, dict] = {}
    remaining = list(pending)
    if config.workers >= 2 and len(remaining) > 1:
        import pickle

        payload = pickle.dumps((config, workload))
        root = str(plan_cache.root) if plan_cache is not None else None
        try:
            with ProcessPoolExecutor(
                max_workers=min(config.workers, len(remaining)),
                initializer=_init_worker,
                initargs=(payload, root),
            ) as pool:
                for row in pool.map(
                    _evaluate_remote,
                    [(p.npe_count, p.sc_per_npe, p.slice_width,
                      p.bucketing) for p in remaining],
                ):
                    results[row["key"]] = row
                remaining = []
        except Exception:
            pass  # BrokenProcessPool / pickling trouble: finish inline
    for point in remaining:
        if point.key not in results:
            row = evaluate_point(
                point, workload, config, plan_cache=plan_cache
            )
            results[row["key"]] = row
    return results


# -- the sweep ---------------------------------------------------------------


def run_explore(
    config: ExploreConfig = ExploreConfig(),
    plan_cache: Union[str, PlanCache, None] = None,
    counters: Optional[Counters] = None,
) -> dict:
    """Run one sweep and return the ``repro.explore/v1`` report.

    ``plan_cache`` follows the serving stack's convention (``None`` |
    ``"default"`` | a :class:`PlanCache`); when given it serves both
    the compiled-plan/trace caches *and* the explore-point memoization.
    """
    counters = GLOBAL_EXPLORE_COUNTERS if counters is None else counters
    cache = resolve_plan_cache(plan_cache)
    started = time.monotonic()
    workload = build_workload(config)
    points = config.grid.points()
    counters.inc("sweeps")
    counters.inc("points_requested", len(points))

    probe_latencies = measure_probe_latencies(
        [p.npe_count for p in points], cache, config.probe_pulses,
        counters,
    )

    fingerprints = {
        point.key: point_fingerprint(
            point, workload.fingerprint, config.memory_technology,
            config.estimators,
        )
        for point in points
    }
    rows: Dict[str, dict] = {}
    pending: List[ExplorePoint] = []
    for point in points:
        cached = (cache.load(fingerprints[point.key], EXPLORE_KIND,
                             _decode_point)
                  if cache is not None else None)
        if cached is not None:
            rows[point.key] = cached
            counters.inc("point_cache_hits")
        else:
            pending.append(point)
            if cache is not None:
                counters.inc("point_cache_misses")
    cache_hits = len(points) - len(pending)

    evaluated = _evaluate_pending(pending, workload, config, cache)
    counters.inc("points_evaluated", len(evaluated))
    for key, row in evaluated.items():
        rows[key] = row
        if cache is not None:
            cache.store(fingerprints[key], EXPLORE_KIND, {
                "schema_version": EXPLORE_SCHEMA_VERSION, "row": row,
            })

    ordered = []
    for point in points:
        row = rows[point.key]
        row["metrics"]["probe_latency_ps"] = probe_latencies[
            point.npe_count
        ]
        ordered.append(row)
    infeasible = sum(1 for row in ordered if not row["feasible"])
    counters.inc("infeasible_points",
                 sum(1 for p in pending
                     if not rows[p.key]["feasible"]))
    frontier = pareto_frontier(ordered)

    return {
        "schema": EXPLORE_SCHEMA,
        "config": {
            "grid": config.grid.to_dict(),
            "seed": config.seed,
            "sizes": list(config.sizes),
            "steps": config.steps,
            "frames": config.frames,
            "workload_sc": config.workload_sc,
            "spike_rate": config.spike_rate,
            "memory_technology": config.memory_technology,
            "estimators": list(config.estimators),
        },
        "workload": workload.to_dict(),
        "points": ordered,
        "pareto": [row["key"] for row in frontier],
        "pareto_axes": [list(axis) for axis in PARETO_AXES],
        "counters": {
            "points_total": len(points),
            "point_cache_hits": cache_hits,
            "points_evaluated": len(evaluated),
            "infeasible_points": infeasible,
        },
        "timing": {  # informational: never pinned, never asserted
            "wall_s": round(time.monotonic() - started, 6),
            "workers": config.workers,
            "cached": cache is not None,
        },
    }


# -- report views ------------------------------------------------------------


def pinned_view(report: dict) -> dict:
    """The deterministic subset of a report: everything except wall
    clocks and cache/executor provenance.  Serial and parallel sweeps
    of one config must produce *bit-identical* pinned views (asserted
    by tests and the benchmark gate)."""
    return {
        "schema": report["schema"],
        "config": report["config"],
        "workload": report["workload"],
        "points": report["points"],
        "pareto": report["pareto"],
        "pareto_axes": report["pareto_axes"],
        "infeasible_points": report["counters"]["infeasible_points"],
    }


def pinned_digest(report: dict) -> str:
    """SHA-256 over the canonical JSON of the pinned view (the single
    drift sentinel committed in ``BENCH_explore.json``)."""
    canonical = json.dumps(
        pinned_view(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def render_report(report: dict) -> str:
    """ASCII rendering: the full grid table plus the Pareto frontier."""
    table_rows = []
    pareto = set(report["pareto"])
    for row in report["points"]:
        metrics = row["metrics"]
        table_rows.append({
            "point": row["key"],
            "ok": "yes" if row["feasible"] else "CAP",
            "jj": metrics.get("total_jj_effective", "-"),
            "power_mw": metrics.get("power_mw_effective", "-"),
            "fps": metrics.get("fps", "-"),
            "acc": metrics.get("accuracy", "-"),
            "spur": metrics.get("spurious", "-"),
            "passes": metrics.get("pass_count", "-"),
            "reloads": metrics.get("reload_events", "-"),
            "lat_ps": metrics.get("probe_latency_ps", "-"),
            "pareto": "*" if row["key"] in pareto else "",
        })
    cfg = report["config"]
    text = format_table(
        table_rows,
        title=(
            f"design-space sweep: {len(table_rows)} points, workload "
            f"{'x'.join(str(s) for s in cfg['sizes'])} "
            f"({cfg['memory_technology']} memory)"
        ),
    )
    axes = ", ".join(
        f"{key}({direction})" for key, direction in report["pareto_axes"]
    )
    text += (
        f"\n\nPareto frontier over {axes}:\n  "
        + ("\n  ".join(report["pareto"]) if report["pareto"]
           else "(empty)")
    )
    counters = report["counters"]
    text += (
        f"\n\npoints: {counters['points_total']} total, "
        f"{counters['point_cache_hits']} cached, "
        f"{counters['points_evaluated']} evaluated, "
        f"{counters['infeasible_points']} infeasible"
    )
    return text
