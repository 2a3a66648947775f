"""Serving-pipeline benchmark report: ``BENCH_serve.json`` writer/checker.

Measures the batch-512 serving workload of :mod:`legacy_runtime` on the
pre-rework fast engine (serial and per-call-executor parallel) and on the
compiled pipeline (serial fused kernel and persistent shared-memory
pool), plus the plan-cache cold/warm path and the micro-batching server.

Two field classes live in the JSON:

* **Pinned** (checked by ``--check`` and the CI perf-smoke step): the
  workload fingerprint, the decisions checksum, the spurious/synops/
  reload totals, the compiled-vs-legacy equality verdicts and the
  cold-miss/warm-hit cache flags.  All are deterministic integer math --
  any semantics drift in the compiled pipeline fails the check on any
  machine.
* **Informational** (recorded, never asserted): wall-clock numbers
  (latencies, samples/sec, speedups).  They document the baseline
  machine; asserting them in CI would be flaky.  The enforced ">= 3x
  pre-PR fast engine at batch 512 with workers" gate lives in
  ``test_serve_speedup.py``, where both engines run back-to-back on the
  same interpreter.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --write   # new baseline
    PYTHONPATH=src python benchmarks/bench_serve.py --check   # CI drift gate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from legacy_runtime import (  # noqa: E402
    legacy_forward_rows,
    legacy_parallel_rows,
    make_serving_workload,
)
from repro.ssnn import (  # noqa: E402
    InferencePool,
    PlanCache,
    compile_network,
    network_fingerprint,
)

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"
SCHEMA_VERSION = 1
CHIP_N = 16
SC_PER_NPE = 10
WORKERS = 2
TRIALS = 3


def _best(fn, trials: int = TRIALS) -> float:
    """Best wall time over a few trials (suppresses scheduler noise)."""
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _checksum(decisions: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(decisions, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def measure(trials: int = TRIALS) -> dict:
    network, rows, steps, batch = make_serving_workload()
    capacity = 1 << SC_PER_NPE
    samples = rows.shape[0] / max(steps, 1)

    # -- functional ground truth (pinned) --------------------------------
    legacy_dec, legacy_spur, legacy_syn = legacy_forward_rows(
        network.layers, rows, capacity
    )
    compiled = compile_network(network, CHIP_N, SC_PER_NPE)
    comp_dec, comp_spur, comp_syn = compiled.forward_rows(rows)
    with InferencePool(compiled, workers=WORKERS) as pool:
        pool_dec, pool_spur, pool_syn = pool.infer_rows(rows)

        # -- wall clock (informational) ----------------------------------
        # The pool arm runs first: right after a serial arm this
        # process's BLAS threads still spin and take CPU from the
        # workers.
        t_compiled_pool = _best(lambda: pool.infer_rows(rows), trials)
        t_legacy_serial = _best(
            lambda: legacy_forward_rows(network.layers, rows, capacity),
            trials,
        )
        t_legacy_parallel = _best(
            lambda: legacy_parallel_rows(
                network.layers, rows, capacity, workers=WORKERS
            ),
            trials,
        )
        t_compiled_serial = _best(
            lambda: compiled.forward_rows(rows), trials
        )

    # -- plan cache cold/warm (hit flags pinned, times informational) ----
    with tempfile.TemporaryDirectory() as root:
        cold_cache = PlanCache(root=root)
        t_cold = _best(
            lambda: cold_cache.get_or_compile(network, CHIP_N, SC_PER_NPE),
            trials=1,
        )
        cold_hit = cold_cache.hits > 0
        warm_cache = PlanCache(root=root)
        t_warm = _best(
            lambda: warm_cache.get_or_compile(network, CHIP_N, SC_PER_NPE),
            trials=1,
        )
        warm_hit = warm_cache.hits > 0 and warm_cache.misses == 0

    equality = {
        "compiled_equals_legacy": bool(
            np.array_equal(comp_dec, legacy_dec)
            and comp_spur == legacy_spur and comp_syn == legacy_syn
        ),
        "pool_equals_serial": bool(
            np.array_equal(pool_dec, comp_dec)
            and pool_spur == comp_spur and pool_syn == comp_syn
        ),
        "spurious": int(comp_spur),
        "synops": int(comp_syn),
        "reload_events": int(compiled.reload_events),
        "decisions_sha256_16": _checksum(comp_dec),
    }

    return {
        "version": SCHEMA_VERSION,
        "note": ("fingerprint/checksums/equality/cache-hit flags are "
                 "pinned by --check; wall-clock numbers are "
                 "informational"),
        "workload": {
            "sizes": list(compiled.layer_shapes[0][:1])
            + [shape[1] for shape in compiled.layer_shapes],
            "steps": steps,
            "batch": batch,
            "rows": int(rows.shape[0]),
            "chip_n": CHIP_N,
            "sc_per_npe": SC_PER_NPE,
            "workers": WORKERS,
            "fingerprint": network_fingerprint(
                network, CHIP_N, SC_PER_NPE, True
            ),
        },
        "equivalence": equality,
        "plan_cache": {
            "cold_hit": bool(cold_hit),
            "warm_hit": bool(warm_hit),
            "cold_ms": round(t_cold * 1000, 2),
            "warm_ms": round(t_warm * 1000, 2),
            "warm_speedup": round(t_cold / max(t_warm, 1e-9), 2),
        },
        "throughput": {
            "legacy_serial_ms": round(t_legacy_serial * 1000, 2),
            "legacy_parallel_ms": round(t_legacy_parallel * 1000, 2),
            "compiled_serial_ms": round(t_compiled_serial * 1000, 2),
            "compiled_pool_ms": round(t_compiled_pool * 1000, 2),
            "legacy_parallel_samples_per_s": round(
                samples / t_legacy_parallel, 1
            ),
            "compiled_pool_samples_per_s": round(
                samples / t_compiled_pool, 1
            ),
            "speedup_compiled_serial_over_legacy_serial": round(
                t_legacy_serial / t_compiled_serial, 3
            ),
            "speedup_pool_over_legacy_parallel": round(
                t_legacy_parallel / t_compiled_pool, 3
            ),
        },
    }


def _pinned_view(report: dict) -> dict:
    """Extract the pinned (deterministic) subset of a report."""
    view = {}
    workload = report.get("workload", {})
    for field in ("sizes", "steps", "batch", "rows", "chip_n",
                  "sc_per_npe", "fingerprint"):
        view[f"workload.{field}"] = workload.get(field)
    for field, value in report.get("equivalence", {}).items():
        view[f"equivalence.{field}"] = value
    cache = report.get("plan_cache", {})
    for field in ("cold_hit", "warm_hit"):
        view[f"plan_cache.{field}"] = cache.get(field)
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
    actual = _pinned_view(measure(trials=1))
    drift = {
        key: (expected.get(key), actual.get(key))
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    }
    if drift:
        print("serving-pipeline drift against BENCH_serve.json:",
              file=sys.stderr)
        for key, (want, got) in drift.items():
            print(f"  {key}: baseline={want} measured={got}",
                  file=sys.stderr)
        print("(if the change is intentional, regenerate the baseline "
              "with --write)", file=sys.stderr)
        return 1
    print(f"serve perf smoke OK: {len(expected)} pinned fields match "
          f"{path.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="measure and (re)write the baseline JSON")
    mode.add_argument("--check", action="store_true",
                      help="measure and fail on pinned-field drift")
    args = parser.parse_args(argv)
    if args.write:
        report = write()
        throughput = report["throughput"]
        print(
            "  pool over pre-PR parallel: "
            f"{throughput['speedup_pool_over_legacy_parallel']}x; "
            "compiled serial over legacy serial: "
            f"{throughput['speedup_compiled_serial_over_legacy_serial']}x; "
            "warm cache: "
            f"{report['plan_cache']['warm_speedup']}x"
        )
        return 0
    return check()


if __name__ == "__main__":
    raise SystemExit(main())
