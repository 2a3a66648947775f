"""Benchmark: event-engine fast path vs the pre-rework legacy loop.

Asserts the PR's headline claims on this interpreter, back to back:

* the sequential fast path processes >= 2x the events/sec of the legacy
  engine (per-event object allocation + string dispatch) on both the pure
  event-churn workload and the full gate-level chip protocol -- the two
  engines run in interleaved pairs, one of each under the same
  instantaneous machine load, and the best per-pair speedup counts;
* both engines -- legacy and fast -- compute identical physics (same
  events, same outputs, same violation counts);
* the recorded ``BENCH_simulator.json`` baseline still matches the
  deterministic events-processed counters (the same gate CI runs via
  ``bench_report.py --check``).
"""

import json
from pathlib import Path

from conftest import emit
from legacy_engine import run_chain_workload, run_chip_workload

SPEEDUP_FLOOR = 2.0
TRIALS = 3


def best_pair(run, trials=TRIALS):
    """``(legacy, fast, speedup)`` of the pair with the best fast/legacy
    events/sec ratio over ``trials`` back-to-back pairs of
    ``run(engine)``; the engine that runs first alternates.  Pairing
    keeps the host's speed changes out of the ratio, best-of suppresses
    scheduler noise."""
    pairs = []
    for k in range(trials):
        if k % 2:
            fast = run("fast")
            legacy = run("legacy")
        else:
            legacy = run("legacy")
            fast = run("fast")
        pairs.append((legacy, fast,
                      fast.events_per_sec / legacy.events_per_sec))
    return max(pairs, key=lambda pair: pair[2])


class TestSequentialSpeedup:
    def test_chain_event_churn_speedup(self):
        legacy, fast, speedup = best_pair(run_chain_workload)
        assert fast.events == legacy.events
        assert fast.violations == legacy.violations
        emit(
            "chain event churn: "
            f"legacy {legacy.events_per_sec:,.0f} ev/s, "
            f"fast {fast.events_per_sec:,.0f} ev/s, "
            f"speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
        )
        assert speedup >= SPEEDUP_FLOOR

    def test_chip_protocol_speedup(self):
        legacy, fast, speedup = best_pair(
            lambda engine: run_chip_workload(engine=engine)
        )
        assert fast.events == legacy.events
        assert fast.outputs == legacy.outputs
        assert fast.violations == legacy.violations == 0
        emit(
            "chip protocol: "
            f"legacy {legacy.events_per_sec:,.0f} ev/s, "
            f"fast {fast.events_per_sec:,.0f} ev/s, "
            f"speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
        )
        assert speedup >= SPEEDUP_FLOOR


class TestEngineAgreement:
    def test_committed_baseline_counters_match(self):
        from bench_report import REPORT_PATH, _pinned_view, measure

        baseline = json.loads(Path(REPORT_PATH).read_text())
        assert _pinned_view(baseline) == _pinned_view(measure())
