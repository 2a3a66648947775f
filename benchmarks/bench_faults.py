"""Resilience benchmark report: ``BENCH_faults.json`` writer/checker.

Runs the reference Monte-Carlo resilience campaign (see
:mod:`repro.harness.campaign` and ``docs/FAULTS.md``) plus the
self-healing runtime acceptance scenario, and pins their deterministic
outputs the same way ``bench_report.py`` pins events-processed counts:

* **Pinned** (checked by ``--check`` and the CI resilience-smoke step):
  per grid point -- BER, bit errors, injected-fault counts, violation
  counts and events processed; for the self-healing scenario -- attempts,
  degraded flag and injected-fault total.  Every number derives from
  seeded per-site RNG streams, so any drift means the fault subsystem's
  *semantics* changed (not just its speed) and must be acknowledged by
  regenerating the baseline.
* **Asserted invariants** (checked on every run, not stored): BER is 0
  with zero injections at p=0, and BER is monotone non-decreasing in
  fault probability.
* **Informational** (recorded, never asserted): wall time per campaign
  and the measured zero-fault overhead ratio (the structural <3% guard
  lives in ``benchmarks/test_fault_overhead.py``).

Usage (the shared command line of :mod:`repro.harness.regression`)::

    PYTHONPATH=src python benchmarks/bench_faults.py --write   # new baseline
    PYTHONPATH=src python benchmarks/bench_faults.py --check   # CI drift gate
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.harness.campaign import (  # noqa: E402
    CampaignConfig,
    run_resilience_campaign,
)
from repro.harness.differential import (  # noqa: E402
    random_binarized_network,
    random_spike_trains,
)
from repro.harness.regression import main  # noqa: E402
from repro.rsfq.faults import FaultModel  # noqa: E402
from repro.ssnn import RetryPolicy, SushiRuntime  # noqa: E402

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_faults.json"

#: Per-point fields that must not drift between runs.
PINNED_POINT_FIELDS = (
    "ber", "bit_errors", "bits", "injections", "violations", "events",
)
#: Self-healing fields that must not drift between runs.
PINNED_HEALING_FIELDS = ("attempts", "degraded", "fault_injections")

#: The reference campaign grid (kept small enough for CI, large enough
#: that every wire-fault kind visibly bends its BER curve).
CAMPAIGN = CampaignConfig(
    kinds=("pulse_drop", "pulse_duplicate", "extra_delay"),
    probabilities=(0.0, 0.02, 0.1, 0.3),
    jitter_sigmas=(0.0,),
    trials=3,
    seed=0,
    chain_length=16,
    n_pulses=24,
)


def run_campaign() -> dict:
    start = time.perf_counter()
    result = run_resilience_campaign(CAMPAIGN)
    wall = time.perf_counter() - start
    if not result.zero_probability_clean():
        raise AssertionError("p=0 campaign points are not fault-free")
    if not result.ber_monotone():
        raise AssertionError("BER is not monotone in fault probability")
    points = {}
    for pt in result.points:
        key = f"{pt.kind}@p={pt.probability:g}"
        points[key] = {
            "ber": round(pt.ber, 6),
            "bit_errors": pt.bit_errors,
            "bits": pt.bits,
            "injections": pt.injections,
            "violations": pt.violations,
            "events": pt.events,
        }
    return {
        "description": (
            f"{CAMPAIGN.chain_length}-stage pipeline, "
            f"{CAMPAIGN.n_pulses} pulses, {CAMPAIGN.trials} trials/point"
        ),
        "wall_time_s": round(wall, 6),
        "points": points,
    }


def run_self_healing() -> dict:
    """The ISSUE acceptance scenario: pulse-drop p=0.05 inference must
    complete through retry/fallback with the degradation recorded."""
    sizes = (8, 6, 4)
    network = random_binarized_network(
        np.random.default_rng(0), sizes, sc_per_npe=8
    )
    trains = random_spike_trains(
        np.random.default_rng(1), 6, 8, sizes[0], rate=0.5
    )
    runtime = SushiRuntime(
        chip_n=8, sc_per_npe=8,
        faults=FaultModel.single("pulse_drop", 0.05, seed=3),
        retry_policy=RetryPolicy(max_retries=2),
    )
    result = runtime.infer(network, trains)
    clean = SushiRuntime(chip_n=8, sc_per_npe=8).infer(network, trains)
    if not np.array_equal(result.output_raster, clean.output_raster):
        raise AssertionError(
            "self-healed inference disagrees with the clean reference"
        )
    return {
        "description": "pulse_drop p=0.05, RetryPolicy(max_retries=2)",
        "attempts": result.attempts,
        "degraded": result.degraded,
        "fault_injections": result.fault_injections,
        "recovery_lines": len(result.recovery),
    }


def measure_zero_fault_overhead(repeats: int = 5) -> dict:
    """Back-to-back timing of the reference pipeline with ``faults=None``
    vs an *inactive* model (informational: both bind the identical
    delivery fast path, so the true overhead is structurally zero)."""
    from repro.harness.campaign import build_reference_pipeline
    from repro.rsfq import Simulator

    def one_run(faults):
        net, _probe = build_reference_pipeline(64)
        sim = Simulator(net, faults=faults)
        for k in range(256):
            sim.schedule_input("j0", "din", 50.0 * k)
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    base = min(one_run(None) for _ in range(repeats))
    inactive = min(one_run(FaultModel()) for _ in range(repeats))
    return {
        "baseline_s": round(base, 6),
        "inactive_model_s": round(inactive, 6),
        "overhead_ratio": round(inactive / base, 4),
    }


def measure() -> dict:
    return {REPORT_PATH: {
        "note": ("campaign points and self-healing outcomes are pinned "
                 "by --check; wall-clock numbers are informational"),
        "campaign": run_campaign(),
        "self_healing": run_self_healing(),
        "zero_fault_overhead": measure_zero_fault_overhead(),
    }}


def _pinned_view(report: dict) -> dict:
    view = {}
    for key, point in report.get("campaign", {}).get("points", {}).items():
        for field in PINNED_POINT_FIELDS:
            view[f"campaign.{key}.{field}"] = point.get(field)
    healing = report.get("self_healing", {})
    for field in PINNED_HEALING_FIELDS:
        view[f"self_healing.{field}"] = healing.get(field)
    return view


VIEWS = {REPORT_PATH: _pinned_view}

if __name__ == "__main__":
    raise SystemExit(main(VIEWS, measure))
