"""Event-engine benchmark report: ``BENCH_simulator.json`` writer/checker.

Measures the reference workloads of :mod:`legacy_engine` on the legacy
and fast sequential engines and the trace replayer, and reports
events/sec, wall time and the fast-over-legacy speedup.

Two fields classes live in the JSON:

* **Pinned** (checked by ``--check`` and the CI perf-smoke step): the
  deterministic events-processed and violation counts per workload, and
  the trace-replay counters.  Any optimisation that changes *what* the engine
  simulates -- rather than how fast -- shows up here as drift and fails
  the check.
* **Informational** (recorded, never asserted): wall-clock derived numbers
  (events/sec, speedups).  They document the machine the baseline was
  written on; asserting them would make CI flaky.  The enforced ">= 2x
  sequential fast path" gate lives in ``test_simulator_speedup.py``,
  where it runs both engines back-to-back on the same interpreter.

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py --write   # new baseline
    PYTHONPATH=src python benchmarks/bench_report.py --check   # CI drift gate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from legacy_engine import (  # noqa: E402
    run_chain_workload,
    run_chip_workload,
    run_trace_replay_workload,
)

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_simulator.json"
SCHEMA_VERSION = 1

#: Fields that must not drift between runs (deterministic engine outputs).
PINNED_FIELDS = ("events", "violations", "replays", "fallbacks",
                 "replay_equal")


def measure() -> dict:
    """Run every workload on every engine and assemble the report."""
    chain_legacy = run_chain_workload("legacy")
    chain_fast = run_chain_workload("fast")

    chip_legacy = run_chip_workload(engine="legacy")
    chip_fast = run_chip_workload(engine="fast")

    if chip_legacy.outputs != chip_fast.outputs:
        raise AssertionError("legacy and fast engines disagree on outputs")

    def block(result):
        return {
            "events": result.events,
            "violations": result.violations,
            "wall_time_s": round(result.wall_time_s, 6),
            "events_per_sec": round(result.events_per_sec, 1),
        }

    return {
        "version": SCHEMA_VERSION,
        "note": ("events/violations are pinned by --check; "
                 "wall-clock numbers are informational"),
        "workloads": {
            "chain_300x150": {
                "description": "300-JTL chain, 150 pulses (pure event churn)",
                "legacy": block(chain_legacy),
                "fast": block(chain_fast),
                "speedup_fast_over_legacy": round(
                    chain_fast.events_per_sec
                    / chain_legacy.events_per_sec, 3),
            },
            "chip_n2_sc4_r6": {
                "description": ("2x2 gate-level chip, sc_per_npe=4, "
                                "6 timesteps x 4 passes"),
                "legacy": block(chip_legacy),
                "fast": block(chip_fast),
                "speedup_fast_over_legacy": round(
                    chip_fast.events_per_sec
                    / chip_legacy.events_per_sec, 3),
            },
            "trace_replay": {
                "description": ("chip_n2_sc4_r6 schedule recorded once, "
                                "20 warm vectorized replays vs fast-path "
                                "re-execution of the same segments"),
                "traced": run_trace_replay_workload(),
            },
        },
    }


def _pinned_view(report: dict) -> dict:
    """Extract the pinned (deterministic) subset of a report."""
    view = {}
    for wname, workload in report.get("workloads", {}).items():
        for ename, engine in workload.items():
            if not isinstance(engine, dict):
                continue
            for field in PINNED_FIELDS:
                if field in engine:
                    view[f"{wname}.{ename}.{field}"] = engine[field]
    return view


def write(path: Path = REPORT_PATH) -> dict:
    report = measure()
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return report


def check(path: Path = REPORT_PATH) -> int:
    if not path.exists():
        print(f"missing baseline {path}; run with --write first",
              file=sys.stderr)
        return 2
    baseline = json.loads(path.read_text())
    if baseline.get("version") != SCHEMA_VERSION:
        print(f"baseline schema {baseline.get('version')} != "
              f"{SCHEMA_VERSION}; regenerate with --write", file=sys.stderr)
        return 2
    expected = _pinned_view(baseline)
    actual = _pinned_view(measure())
    drift = {
        key: (expected.get(key), actual.get(key))
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    }
    if drift:
        print("events-processed drift against BENCH_simulator.json:",
              file=sys.stderr)
        for key, (want, got) in drift.items():
            print(f"  {key}: baseline={want} measured={got}",
                  file=sys.stderr)
        print("(if the change is intentional, regenerate the baseline "
              "with --write)", file=sys.stderr)
        return 1
    print(f"perf smoke OK: {len(expected)} pinned counters match "
          f"{path.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="measure and (re)write the baseline JSON")
    mode.add_argument("--check", action="store_true",
                      help="measure and fail on pinned-counter drift")
    args = parser.parse_args(argv)
    if args.write:
        report = write()
        for wname, workload in report["workloads"].items():
            speed = workload.get("speedup_fast_over_legacy")
            print(f"  {wname}: fast/legacy speedup = {speed}x")
        return 0
    return check()


if __name__ == "__main__":
    raise SystemExit(main())
