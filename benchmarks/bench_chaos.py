"""Chaos drift gate: one quick campaign checks ``BENCH_chaos.json``,
``BENCH_netchaos.json`` and ``BENCH_cluster.json``.

Runs every scenario of :mod:`repro.harness.chaos` once in quick mode --
worker-level (SIGKILL, freeze, shm unlink, header corruption, poison
batch, breaker cycle), node-level (node kill mid-batch, partition and
heal, the 1 -> 8 -> 1 scale storm) and network-level (the ``net-*``
drills: resilient client -> seeded chaos proxy -> live gateway ->
server) -- and prints the per-scenario report.  Each scenario asserts
answers bit-identical to a fault-free serial run and full worker,
cluster or connection recovery; a failing one aborts the run.  The one
campaign fills three baselines, which pin:

* ``BENCH_chaos.json`` -- every scenario's verdict, the injection counts
  of the single-shot worker scenarios and the breaker-cycle transition
  counters (opens / closes / probes / pool_failures);
* ``BENCH_netchaos.json`` -- the ``net-*`` verdicts, the full client
  retry/hedge/timeout ledgers, the proxy's fire and connection counts,
  the gateway's idempotent-replay counters and the overload-shed ledger;
* ``BENCH_cluster.json`` -- the node scenarios' verdicts, their
  retry/eviction/quarantine/rejoin counters, the autoscaler's size
  trajectory and actions, and a seeded consistent-hash routing and
  ring-balance measurement (pure functions of the seeds).

Any drift means supervision, retry/hedging/shedding or routing
*semantics* changed and must be acknowledged by regenerating the
baselines.  Informational (recorded, never compared): per-scenario wall
times, the proxy byte counters (TCP segmentation makes them racy), the
routing throughput, and the zero-failure supervision overhead against
the pre-supervision pool replica (``legacy_pool.LegacyInferencePool``;
the asserted <5% gate is ``test_supervision_overhead.py``).

Usage (the shared command line of :mod:`repro.harness.regression`)::

    PYTHONPATH=src python benchmarks/bench_chaos.py --write   # new baselines
    PYTHONPATH=src python benchmarks/bench_chaos.py --check   # CI drift gate
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from legacy_pool import LegacyInferencePool  # noqa: E402
from legacy_runtime import make_serving_workload  # noqa: E402
from repro.cluster import ClusterRouter, ConsistentHashRing, PoolNode  # noqa: E402
from repro.gateway.client import CLIENT_COUNTER_FIELDS  # noqa: E402
from repro.harness.chaos import (  # noqa: E402
    NETWORK_SCENARIOS,
    format_report,
    run_chaos,
)
from repro.harness.differential import random_binarized_network  # noqa: E402
from repro.harness.regression import main  # noqa: E402
from repro.ssnn import InferencePool, compile_network  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHAOS_PATH = BENCH_DIR / "BENCH_chaos.json"
NETCHAOS_PATH = BENCH_DIR / "BENCH_netchaos.json"
CLUSTER_PATH = BENCH_DIR / "BENCH_cluster.json"

NODE_SCENARIOS = ("node-kill", "node-partition", "scale-storm")

#: Deterministic detail fields pinned alongside each scenario's verdict
#: in ``BENCH_chaos.json`` (the node scenarios' counters are pinned in
#: ``BENCH_cluster.json``, the ``net-*`` ledgers in ``BENCH_netchaos.json``).
CHAOS_DETAILS = {
    "worker-kill": ("fired",),
    "shm-unlink": ("fired",),
    "shm-corrupt": ("fired",),
    "breaker-cycle": ("opens", "closes", "probes", "pool_failures"),
}

#: The same for the node scenarios in ``BENCH_cluster.json``.
CLUSTER_DETAILS = {
    "node-kill": ("retries", "evictions", "rebalances",
                  "nodes_routable"),
    "node-partition": ("fallbacks", "quarantines", "rejoins",
                       "rebalances"),
    "scale-storm": ("sizes", "scale_ups", "scale_downs", "actions"),
}

#: Routing measurement shape (seeded, fully deterministic).
ROUTING_NODES = 4
ROUTING_BLOCKS = 64


def measure_zero_failure_overhead(repeats: int = 3, calls: int = 4) -> dict:
    """Steady-state supervised-vs-legacy pool timing (informational; the
    asserted <5% gate is ``test_supervision_overhead.py``)."""
    network, rows, _steps, _batch = make_serving_workload(
        sizes=(196, 64, 10), batch=96,
    )
    compiled = compile_network(network, 16, 10)

    def sweep(pool) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            pool.infer_rows(rows)
        return time.perf_counter() - start

    with LegacyInferencePool(compiled, workers=2) as legacy:
        legacy.infer_rows(rows)  # warm-up
        t_legacy = min(sweep(legacy) for _ in range(repeats))
    with InferencePool(compiled, workers=2) as pool:
        pool.infer_rows(rows)  # warm-up
        t_supervised = min(sweep(pool) for _ in range(repeats))
    return {
        "legacy_pool_s": round(t_legacy, 6),
        "supervised_pool_s": round(t_supervised, 6),
        "overhead_ratio": round(t_supervised / t_legacy, 4),
    }


def measure_routing() -> dict:
    """Dispatch a seeded request population through a healthy cluster
    and record the (deterministic) affinity distribution and counters;
    wall-clock throughput rides along as informational."""
    rng = np.random.default_rng(7)
    network = random_binarized_network(rng, sizes=(12, 9, 5), sc_per_npe=8)
    compiled = compile_network(network, 4, 8)
    blocks_rng = np.random.default_rng(11)
    blocks = [
        (blocks_rng.random((6, compiled.in_features)) < 0.4)
        .astype(np.float64)
        for _ in range(ROUTING_BLOCKS)
    ]
    router = ClusterRouter(compiled)
    for i in range(ROUTING_NODES):
        router.join(PoolNode(f"node-{i}", compiled, workers=0))
    try:
        start = time.perf_counter()
        for block in blocks:
            router.dispatch(block)
        elapsed = time.perf_counter() - start
        snap = router.stats()
        shares = {
            node_id: entry["dispatches"]
            for node_id, entry in snap["per_node"].items()
        }
        return {
            "nodes": ROUTING_NODES,
            "blocks": ROUTING_BLOCKS,
            "plan": compiled.fingerprint,
            "counters": snap["counters"],
            "per_node_dispatches": shares,
            "dispatch_throughput_rps": round(
                ROUTING_BLOCKS / elapsed, 1
            ) if elapsed else 0.0,
        }
    finally:
        router.shutdown()


def measure_ring_balance() -> dict:
    """Key-share spread of an 8-node/2000-key population (the balance
    property the hypothesis suite checks in bounds; here the exact
    deterministic shares are pinned)."""
    ring = ConsistentHashRing(
        replicas=64, nodes=[f"node-{i}" for i in range(8)]
    )
    counts = {node: 0 for node in ring.node_ids}
    keys = 2000
    for i in range(keys):
        counts[ring.route(f"key-{i}")] += 1
    fair = keys / len(counts)
    return {
        "nodes": len(counts),
        "keys": keys,
        "replicas": 64,
        "min_share": min(counts.values()),
        "max_share": max(counts.values()),
        "max_over_fair": round(max(counts.values()) / fair, 4),
    }


def _subset(campaign: dict, names) -> dict:
    """The campaign report restricted to ``names``, as if only they ran."""
    scenarios = [s for s in campaign["scenarios"] if s["name"] in names]
    return {**campaign, "scenarios": scenarios,
            "passed": all(s["passed"] for s in scenarios)}


def _elapsed(campaign: dict) -> dict:
    return {s["name"]: s["elapsed_s"] for s in campaign["scenarios"]}


def measure() -> dict:
    campaign = run_chaos(quick=True)
    print(format_report(campaign))
    if not campaign["passed"]:
        failing = [s["name"] for s in campaign["scenarios"]
                   if not s["passed"]]
        raise AssertionError(
            f"chaos scenarios failed their recovery invariants: {failing}"
        )
    network = _subset(campaign, NETWORK_SCENARIOS)
    nodes = _subset(campaign, NODE_SCENARIOS)
    return {
        CHAOS_PATH: {
            "note": ("scenario verdicts, injection counts and breaker "
                     "counters are pinned by --check; recovery latencies "
                     "and the overhead ratio are informational"),
            "campaign": campaign,
            "recovery_latency_s": _elapsed(campaign),
            "zero_failure_overhead": measure_zero_failure_overhead(),
        },
        NETCHAOS_PATH: {
            "note": ("scenario verdicts, client retry/hedge ledgers, proxy "
                     "fire counts, gateway replay counters and the shed "
                     "ledger are pinned by --check; wall times and byte "
                     "counters are informational"),
            "campaign": network,
            "wall_time_s": _elapsed(network),
        },
        CLUSTER_PATH: {
            "note": ("scenario verdicts, router counters, the autoscaler "
                     "trajectory and the routing/ring distributions are "
                     "pinned by --check; recovery latencies and throughput "
                     "are informational"),
            "campaign": nodes,
            "recovery_latency_s": _elapsed(nodes),
            "routing": measure_routing(),
            "ring_balance": measure_ring_balance(),
        },
    }


def _campaign_view(prefix: str, campaign: dict, pinned) -> dict:
    """Each scenario's verdict plus the detail fields ``pinned(name,
    details)`` picks, and the campaign's schema and overall verdict."""
    view = {}
    for entry in campaign.get("scenarios", []):
        name = entry["name"]
        view[f"{prefix}.{name}.passed"] = entry.get("passed")
        for field, value in pinned(name, entry.get("details") or {}):
            view[f"{prefix}.{name}.{field}"] = value
    view[f"{prefix}.schema"] = campaign.get("schema")
    view[f"{prefix}.all_passed"] = campaign.get("passed")
    return view


def _fields_of(table: dict):
    """A detail picker for :func:`_campaign_view`: the fields that
    ``table`` names for each scenario."""
    return lambda name, details: [
        (field, details.get(field)) for field in table.get(name, ())
    ]


def _chaos_view(report: dict) -> dict:
    return _campaign_view("chaos", report.get("campaign", {}),
                          _fields_of(CHAOS_DETAILS))


def _netchaos_fields(name: str, details: dict):
    for ledger in ("client", "shed_client"):
        counters = details.get(ledger)
        if counters is not None:
            for field in CLIENT_COUNTER_FIELDS:
                yield f"{ledger}.{field}", counters.get(field)
    proxy = details.get("proxy")
    if proxy:
        yield "fired", proxy.get("fired")
        yield "connections", proxy.get("connections")
    for key in ("gateway_replays", "sheds", "admitted", "n_trains"):
        if key in details:
            yield key, details[key]


def _netchaos_view(report: dict) -> dict:
    return _campaign_view("netchaos", report.get("campaign", {}),
                          _netchaos_fields)


def _cluster_view(report: dict) -> dict:
    view = _campaign_view("cluster", report.get("campaign", {}),
                          _fields_of(CLUSTER_DETAILS))
    routing = report.get("routing", {})
    for field in ("nodes", "blocks", "plan", "counters",
                  "per_node_dispatches"):
        view[f"routing.{field}"] = routing.get(field)
    balance = report.get("ring_balance", {})
    for field in ("nodes", "keys", "replicas", "min_share",
                  "max_share", "max_over_fair"):
        view[f"ring.{field}"] = balance.get(field)
    return view


VIEWS = {
    CHAOS_PATH: _chaos_view,
    NETCHAOS_PATH: _netchaos_view,
    CLUSTER_PATH: _cluster_view,
}

if __name__ == "__main__":
    raise SystemExit(main(VIEWS, measure))
