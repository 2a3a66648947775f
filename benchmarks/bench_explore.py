"""Design-space explorer benchmark: ``BENCH_explore.json`` writer/checker.

Runs the full default grid (NPE count up to 32 -- the paper's 16x16
mesh) three ways over one shared cache root:

1. **cold serial** -- fresh cache, ``workers=0``: every point evaluates;
2. **warm parallel** -- same cache, ``workers=2``: every point must come
   back from the explore-point cache (the 100% hit rate is pinned);
3. **cold parallel** -- second fresh cache, ``workers=2``: the pinned
   view must be *bit-identical* to the serial sweep's (the determinism
   contract across process-pool worker counts).

Two field classes live in the JSON (the repo-wide convention):

* **Pinned** (checked by ``--check`` and CI): the schema, point /
  feasible / infeasible counts, the Pareto frontier keys, the workload
  fingerprint, the pinned-view digest, the warm hit rate (1.0), the
  serial-vs-parallel equality verdict and the trace-probe fallback
  count (0).  All deterministic on any machine.
* **Informational** (recorded, never asserted): wall clocks and the
  warm-over-cold speedup.  The enforced ">= 3x" gate lives in
  ``test_explore_speedup.py`` where both sweeps run back-to-back.

Usage (the shared command line of :mod:`repro.harness.regression`)::

    PYTHONPATH=src python benchmarks/bench_explore.py --write
    PYTHONPATH=src python benchmarks/bench_explore.py --check
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.explore import (  # noqa: E402
    GLOBAL_EXPLORE_COUNTERS,
    ExploreConfig,
    pinned_digest,
    pinned_view,
    run_explore,
)
from repro.harness.regression import main  # noqa: E402
from repro.ssnn import PlanCache  # noqa: E402

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_explore.json"
WORKERS = 2


def _timed_sweep(config: ExploreConfig, cache: PlanCache):
    counters = GLOBAL_EXPLORE_COUNTERS.fresh()
    start = time.perf_counter()
    report = run_explore(config, plan_cache=cache, counters=counters)
    elapsed = time.perf_counter() - start
    return report, counters.snapshot(), elapsed


def measure() -> dict:
    serial = ExploreConfig()
    parallel = replace(serial, workers=WORKERS)

    with tempfile.TemporaryDirectory() as root_a, \
            tempfile.TemporaryDirectory() as root_b:
        cold_report, cold_counts, t_cold = _timed_sweep(
            serial, PlanCache(root=root_a)
        )
        warm_report, warm_counts, t_warm = _timed_sweep(
            parallel, PlanCache(root=root_a)
        )
        par_report, par_counts, t_par = _timed_sweep(
            parallel, PlanCache(root=root_b)
        )

    points_total = cold_report["counters"]["points_total"]
    warm_hits = warm_counts["point_cache_hits"]
    canonical = json.dumps(pinned_view(cold_report), sort_keys=True)
    return {REPORT_PATH: {
        "note": ("counts/pareto/fingerprint/digest/hit-rate/equality "
                 "fields are pinned by --check; wall-clock numbers are "
                 "informational (the >=3x gate is "
                 "test_explore_speedup.py)"),
        "sweep": {
            "schema": cold_report["schema"],
            "points_total": points_total,
            "points_feasible": points_total
            - cold_report["counters"]["infeasible_points"],
            "points_infeasible":
                cold_report["counters"]["infeasible_points"],
            "pareto": cold_report["pareto"],
            "workload_fingerprint":
                cold_report["workload"]["fingerprint"],
            "pinned_digest": pinned_digest(cold_report),
            "trace_probe_fallbacks":
                cold_counts["trace_probe_fallbacks"],
        },
        "memoization": {
            "warm_hit_rate": round(warm_hits / points_total, 6),
            "warm_points_evaluated": warm_counts["points_evaluated"],
            "serial_equals_parallel": bool(
                canonical == json.dumps(
                    pinned_view(par_report), sort_keys=True
                )
                and canonical == json.dumps(
                    pinned_view(warm_report), sort_keys=True
                )
            ),
            "parallel_workers": WORKERS,
        },
        "timing": {
            "cold_serial_s": round(t_cold, 4),
            "warm_parallel_s": round(t_warm, 4),
            "cold_parallel_s": round(t_par, 4),
            "warm_speedup": round(t_cold / max(t_warm, 1e-9), 2),
        },
    }}


def _pinned_view(report: dict) -> dict:
    """The pinned (deterministic) subset of a benchmark report."""
    view = {}
    for field, value in report.get("sweep", {}).items():
        view[f"sweep.{field}"] = value
    memo = report.get("memoization", {})
    for field in ("warm_hit_rate", "warm_points_evaluated",
                  "serial_equals_parallel"):
        view[f"memoization.{field}"] = memo.get(field)
    return view


VIEWS = {REPORT_PATH: _pinned_view}

if __name__ == "__main__":
    raise SystemExit(main(VIEWS, measure))
