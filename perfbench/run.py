"""End-to-end benchmark of the SUSHI reproduction on its paper-scale plan.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``http-online`` -- the HTTP gateway as users reach it: open-loop
  windows (Poisson arrivals) for latency alternating with closed-loop
  windows over two keep-alive connections for throughput, against a server
  process of its own serving the 784-512-10 plan (:mod:`http_online`,
  :mod:`serve`).
* ``offline-batch`` -- closed-loop ``SushiRuntime.infer`` on 512-sample
  blocks through the persistent two-worker pool (:mod:`offline_batch`).
* ``gate-montecarlo`` -- closed-loop jittered gate-level trials against a
  replayed ideal arm (:mod:`gate_montecarlo`).

The seed drives only the inputs (spike trains, arrival times, tenants,
jitter seeds, the gate protocol); the network is always the pinned one.
Every answer is checked.  ``latency_tail_ms`` is the p90 on every workload
(a run fails if fewer than ten samples lie beyond it; http-online reports
medians over its windows, see :mod:`http_online`); ``setup_s`` is the
median of several set-ups in the run.  gate-montecarlo reports its times in
reference-host milliseconds, each trial's host time scaled by a calibration
kernel timed right after it (see :mod:`gate_montecarlo`).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` times the calls into each
layer from the benchmark's own files and prints the per-layer metrics
instead (a layer the workload bypasses reads 0).  The line before the
last is an informational record (host-speed probe before and after the
workload, environment, latency sample counts, stage sums, digests); the
last line is the result::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  Each run uses a fresh
plan cache under ``.perfbench-runs/`` (removed afterwards) and fails if it
leaves a child process or a ``/dev/shm`` segment behind; before it exits it
stops and reaps every child, multiprocessing's resource tracker included.
``report.py`` runs two alternated sets of runs and prints their agreement.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys

from common import END_TO_END, PER_LAYER, ROOT, ensure_program_importable, \
    environment, host_probe, leftovers, shm_segments

WORKLOADS = {
    "http-online": "http_online",
    "offline-batch": "offline_batch",
    "gate-montecarlo": "gate_montecarlo",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_program_importable()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = importlib.import_module(WORKLOADS[args.workload])
    shm_before = shm_segments()
    env = environment()
    probe_before = host_probe()
    run_dir = ROOT / ".perfbench-runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        out = workload.run(seed=args.seed, seconds=args.seconds,
                           trace=bool(args.trace), run_dir=run_dir)
    finally:
        # On every way out: no child process, not even multiprocessing's
        # resource tracker, outlives the run.
        left_behind = leftovers(shm_before)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    probe_after = host_probe()
    out.errors.extend(left_behind)

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(END_TO_END) - set(out.metrics)) \
        if not args.trace else []
    out.errors.extend(f"metric {name} not measured" for name in missing)
    if args.trace:
        out.info["bypassed_layers"] = sorted(set(PER_LAYER) - set(out.metrics))
    metrics = {
        name: {"value": out.metrics.get(name, 0.0), "unit": unit}
        for name, unit in wanted.items()
    }
    correct = not out.errors
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "errors": out.errors,
        "host_probe": {"before": probe_before, "after": probe_after},
        "environment": env,
        **out.info,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
