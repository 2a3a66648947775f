"""Gateway benchmark report: ``BENCH_gateway.json`` writer/checker.

Runs the quick gateway load campaign (:mod:`repro.gateway.loadgen`) --
six arrival-mix scenarios over a live in-process gateway on an
ephemeral port -- and pins the deterministic outcomes the way
``bench_chaos.py`` pins campaign counters:

* **Pinned** (checked by ``--check`` and the CI gateway drift step):
  the campaign / per-scenario pass verdicts, every scenario's exact
  status-code counts (200/429/503/504 -- the load-shedding contract),
  the typed rejection-code counts (``rate_limited`` /
  ``breaker_open`` / ``deadline_exceeded``), the campaign totals, the
  workload plan fingerprint, and the *presence* of the latency and
  throughput fields.  Any drift means the admission/rate-limit/deadline
  semantics changed and must be acknowledged by regenerating the
  baseline.
* **Informational** (recorded, never asserted): client-side p50/p99
  latency, max latency, and throughput (req/s) per scenario -- wall
  clock is machine-dependent and is never a gate.

Usage (the shared command line of :mod:`repro.harness.regression`)::

    PYTHONPATH=src python benchmarks/bench_gateway.py --write  # baseline
    PYTHONPATH=src python benchmarks/bench_gateway.py --check  # CI gate
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.gateway.loadgen import format_report, run_loadtest  # noqa: E402
from repro.harness.regression import main  # noqa: E402

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_gateway.json"

#: Scenario fields that must exist in every entry (schema guard; their
#: *values* are informational except the ones re-pinned below).
REQUIRED_SCENARIO_FIELDS = (
    "name", "mode", "sent", "statuses", "expected_statuses", "passed",
    "rejections", "latency_ms_p50", "latency_ms_p99", "latency_ms_max",
    "throughput_rps", "elapsed_s",
)


def measure() -> dict:
    campaign = run_loadtest(quick=True)
    print(format_report(campaign))
    if not campaign["passed"]:
        failing = [s["name"] for s in campaign["scenarios"]
                   if not s["passed"]]
        raise AssertionError(
            f"load scenarios missed their deterministic status "
            f"expectations: {failing}"
        )
    return {REPORT_PATH: {
        "note": ("status/rejection counts, verdicts, totals and the "
                 "plan fingerprint are pinned by --check; p50/p99 "
                 "latency and throughput are informational"),
        "campaign": campaign,
    }}


def _pinned_view(report: dict) -> dict:
    campaign = report.get("campaign", {})
    view = {
        "gateway.schema": campaign.get("schema"),
        "gateway.quick": campaign.get("quick"),
        "gateway.passed": campaign.get("passed"),
        "gateway.workload.fingerprint":
            campaign.get("workload", {}).get("fingerprint"),
        "gateway.totals.sent":
            campaign.get("totals", {}).get("sent"),
        "gateway.totals.statuses":
            campaign.get("totals", {}).get("statuses"),
        "gateway.totals.rejections":
            campaign.get("totals", {}).get("rejections"),
    }
    for entry in campaign.get("scenarios", []):
        name = entry.get("name", "?")
        view[f"gateway.{name}.passed"] = entry.get("passed")
        view[f"gateway.{name}.sent"] = entry.get("sent")
        view[f"gateway.{name}.statuses"] = entry.get("statuses")
        view[f"gateway.{name}.rejections"] = entry.get("rejections")
        view[f"gateway.{name}.fields_present"] = sorted(
            field for field in REQUIRED_SCENARIO_FIELDS if field in entry
        )
    return view


VIEWS = {REPORT_PATH: _pinned_view}

if __name__ == "__main__":
    raise SystemExit(main(VIEWS, measure))
