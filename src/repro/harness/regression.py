"""The one drift gate for the committed ``benchmarks/BENCH_*.json`` baselines.

A baseline pins the deterministic outcomes of a benchmark run, so a
change to *what* the library computes (not how fast) fails CI until the
baseline is regenerated on purpose.  Every ``benchmarks/bench_*.py``
script supplies two things and hands them to :func:`main`:

* ``measure()`` -- one run, returning ``{baseline path: report}`` for
  each baseline the script owns (``bench_chaos.py`` fills three from one
  campaign);
* a pinned view per baseline -- the deterministic subset of a report as
  a flat ``{key: value}`` dict.  Wall-clock fields stay in the reports
  as information; no view reads them.

``--write`` measures once and rewrites every baseline; ``--check``
measures once and compares each baseline's view with the measured one
exactly (:func:`drift`).  Exit codes: 0 when every pinned field
matches, 1 on drift (each drifted key printed as ``key: baseline=...
measured=...``), 2 when a baseline is missing or carries another schema
version.

:func:`snapshot_headline_metrics` and
:func:`repro.harness.differential_snapshot` return flat dicts for the
same :func:`drift`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

#: Schema version stamped into, and required of, every baseline.
SCHEMA_VERSION = 1

Report = Dict[str, object]
View = Callable[[Report], Dict[str, object]]
Measure = Callable[[], Mapping[Path, Report]]


def drift(expected: Mapping[str, object],
          actual: Mapping[str, object]) -> Dict[str, Tuple[object, object]]:
    """Every key whose value changed, or that only one side has, in key
    order, as ``key -> (expected, actual)`` (a missing side reads None)."""
    return {
        key: (expected.get(key), actual.get(key))
        for key in sorted(set(expected) | set(actual))
        if key not in expected or key not in actual
        or expected[key] != actual[key]
    }


def write(reports: Mapping[Path, Report]) -> None:
    """Write each report, stamped with :data:`SCHEMA_VERSION`, to its
    baseline path."""
    for path, report in reports.items():
        payload = {**report, "version": SCHEMA_VERSION}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


def _load(path: Path) -> Optional[Report]:
    """The baseline at ``path``, or None once the reason it cannot be
    checked is printed."""
    if not path.exists():
        print(f"missing baseline {path}; run with --write first",
              file=sys.stderr)
        return None
    baseline = json.loads(path.read_text())
    if baseline.get("version") != SCHEMA_VERSION:
        print(f"baseline schema {baseline.get('version')} != "
              f"{SCHEMA_VERSION}; regenerate with --write", file=sys.stderr)
        return None
    return baseline


def check(views: Mapping[Path, View], measure: Measure) -> int:
    """Measure once and compare every baseline's pinned view; returns
    the exit code (0 match, 1 drift, 2 missing or wrong-version
    baseline, in which case nothing is measured)."""
    baselines = {path: _load(path) for path in views}
    if any(baseline is None for baseline in baselines.values()):
        return 2
    reports = measure()
    status = 0
    for path, view in views.items():
        expected = view(baselines[path])
        moved = drift(expected, view(reports[path]))
        if not moved:
            print(f"OK: {len(expected)} pinned fields match {path.name}")
            continue
        status = 1
        print(f"drift against {path.name}:", file=sys.stderr)
        for key, (want, got) in moved.items():
            print(f"  {key}: baseline={want} measured={got}",
                  file=sys.stderr)
    if status:
        print("(if the change is intentional, regenerate the baselines "
              "with --write)", file=sys.stderr)
    return status


def main(views: Mapping[Path, View], measure: Measure,
         argv=None) -> int:
    """The ``--write | --check`` command line of a bench script."""
    names = ", ".join(path.name for path in views)
    parser = argparse.ArgumentParser(
        description=f"Write or check the drift baselines {names}."
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="measure and (re)write the baselines")
    mode.add_argument("--check", action="store_true",
                      help="measure and fail on pinned-field drift")
    args = parser.parse_args(argv)
    if args.write:
        write(measure())
        return 0
    return check(views, measure)


def snapshot_headline_metrics() -> Dict[str, float]:
    """The calibrated hardware-model headline numbers (fast -- no
    training) as a flat dict for :func:`drift`."""
    from repro.resources.estimator import estimate_resources
    from repro.resources.performance import PerformanceModel
    from repro.resources.power import PowerModel

    r4 = estimate_resources(4, with_weights=True, max_strength=4)
    r16 = estimate_resources(16, with_weights=False)
    perf = PerformanceModel(16)
    power = PowerModel(r16).total_mw(perf.peak_sops())
    return {
        "table2_total_jj": float(r4.total_jj),
        "table2_wiring_jj": float(r4.wiring_jj),
        "table2_area_mm2": float(r4.total_area_mm2),
        "peak_total_jj": float(r16.total_jj),
        "peak_area_mm2": float(r16.total_area_mm2),
        "peak_gsops": float(perf.peak_gsops()),
        "peak_power_mw": float(power),
        "peak_gsops_per_w": float(perf.peak_gsops() / (power * 1e-3)),
        "delay_share_16": float(perf.transmission_delay_share()),
        "delay_share_1":
            float(PerformanceModel(1).transmission_delay_share()),
    }
