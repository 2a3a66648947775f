"""Steadiness report: do two sets of runs of the same code agree?

Usage (from the root of a checkout)::

    python3 perfbench/report.py --runs 10 [--seconds S] [--workloads a,b]

Runs two sets of ``--runs`` runs per workload, alternating set A and set B
run by run (set A takes seeds ``base .. base+N-1``, set B the next N), each
run a fresh ``run.py`` process.  For every workload and end-to-end metric
it prints each set's median and quartiles, the spread (interquartile range
over the median) and the shift of B's median against A's, each next to the
metric's bound in ``BENCHMARK.json``.  It then makes one traced run per
workload and prints its per-layer table, the stage sums against the op
latency, and the tracing overhead (traced minus untraced ``latency_p50_ms``).

Exits 1 if any run failed or any set disagrees beyond a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} printed no result "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["wall_s"] = wall_s
    result["info"] = info
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in config["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--raw", default=None,
                        help="also write every run's result to this file")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in config["end_to_end"]}

    sets = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            for name, seed in (("A", args.seed_base + i),
                               ("B", args.seed_base + args.runs + i)):
                result = run_once(workload, seed, args.seconds, 0)
                sets[workload][name].append(result)
                print(f"# {workload} set {name} seed {seed}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"wall={result['wall_s']:.1f}s", flush=True)
    traced = {w: run_once(w, args.seed_base, args.seconds, 1)
              for w in workloads}

    ok = True
    for workload in workloads:
        runs = sets[workload]["A"] + sets[workload]["B"]
        bad = [r for r in runs + [traced[workload]]
               if not r["correct"] or r["exit"] or r["failed"]]
        ok &= not bad
        probes = [r["info"]["host_probe"]["before"]["python_loop_ms"]
                  for r in runs]
        lagging = sum(r["info"].get("loadgen_valid") is False for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, {len(bad)} failed, "
              f"{lagging} with load-generator lag; host probe python loop "
              f"{min(probes):.1f}-{max(probes):.1f} ms")
        print(f"{'metric':<18}{'unit':<6}{'A median [q1, q3]':<30}"
              f"{'B median [q1, q3]':<30}{'spread A/B':<14}{'shift':<9}"
              f"{'bound':<7}verdict")
        for name, spec in bounds.items():
            cells, spreads = [], []
            for set_name in ("A", "B"):
                values = [r["metrics"][name]["value"]
                          for r in sets[workload][set_name]]
                q1, mid, q3 = spread(values)
                cells.append(f"{mid:.4g} [{q1:.4g}, {q3:.4g}]")
                spreads.append((q3 - q1) / mid)
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in sets[workload]["A"])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in sets[workload]["B"])
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            bound = spec["bound"]
            agree = worse <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            verdict = "agree" if agree else "DISAGREE"
            if agree and name != "setup_s" and max(spreads) <= bound / 3:
                verdict += ", steady"
            print(f"{name:<18}{spec['unit']:<6}{cells[0]:<30}{cells[1]:<30}"
                  f"{spreads[0]:.3f}/{spreads[1]:.3f}  {worse:+.3f}   "
                  f"{bound:<7}{verdict}")

        result = traced[workload]
        info = result["info"]
        untraced = statistics.median(r["metrics"]["latency_p50_ms"]["value"]
                                     for r in runs)
        overhead = info["traced_latency_p50_ms"] - untraced
        print(f"-- traced run (seed {args.seed_base}): tracing overhead "
              f"{overhead:+.3f} ms ({overhead / untraced:+.1%}) on "
              f"latency_p50_ms")
        for name, metric in result["metrics"].items():
            if name not in info.get("bypassed_layers", ()):
                print(f"   {name:<32}{metric['value']:>14.4f} "
                      f"{metric['unit']}")
        stages = dict(info["stages_mean_ms"])
        op = stages.pop("op")
        total = sum(stages.values())
        within = abs(total - op) <= 0.1 * op
        ok &= within
        print(f"   stage means sum to {total:.3f} ms of a {op:.3f} ms mean "
              f"op ({(total - op) / op:+.1%}; "
              f"{'within' if within else 'OUTSIDE'} 10%): "
              + ", ".join(f"{k} {v:.3f}" for k, v in stages.items()))

    if args.raw:
        Path(args.raw).write_text(json.dumps(
            {"sets": sets, "traced": traced}, indent=1))
    print("\nverdict:", "all sets agree within bounds" if ok
          else "DISAGREEMENT or failed runs (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
