"""Golden-schema tests for every committed ``benchmarks/BENCH_*.json``.

The BENCH files are the drift baselines the ``--check`` scripts diff
against (through :mod:`repro.harness.regression`); a hand edit that
drops a key would silently weaken every future check.  This registry
pins the shape of each file and how many pinned fields its script's
view reads from it -- and the registry itself is pinned: a new BENCH
file on disk without an entry here fails the suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

# name -> {top-level key -> required subkeys (or None for scalars)}
REGISTRY = {
    "BENCH_simulator.json": {
        "note": None,
        "version": None,
        "workloads": {"chain_300x150", "chip_n2_sc4_r6", "trace_replay"},
    },
    "BENCH_faults.json": {
        "note": None,
        "version": None,
        "campaign": {"description", "points", "wall_time_s"},
        "self_healing": {"attempts", "degraded", "description",
                         "fault_injections", "recovery_lines"},
        "zero_fault_overhead": {"baseline_s", "inactive_model_s",
                                "overhead_ratio"},
    },
    "BENCH_serve.json": {
        "note": None,
        "version": None,
        "equivalence": {"compiled_equals_legacy", "decisions_sha256_16",
                        "pool_equals_serial", "reload_events",
                        "spurious", "synops"},
        "plan_cache": {"cold_hit", "cold_ms", "warm_hit", "warm_ms",
                       "warm_speedup"},
        "throughput": {"compiled_pool_ms", "compiled_serial_ms",
                       "legacy_parallel_ms", "legacy_serial_ms"},
        "workload": {"batch", "chip_n", "fingerprint", "rows",
                     "sc_per_npe", "sizes", "steps", "workers"},
    },
    "BENCH_chaos.json": {
        "note": None,
        "version": None,
        "recovery_latency_s": None,
        "zero_failure_overhead": None,
        "campaign": {"passed", "quick", "scenarios", "schema",
                     "workers"},
    },
    "BENCH_gateway.json": {
        "note": None,
        "version": None,
        "campaign": {"passed", "quick", "scenarios", "schema",
                     "totals", "workload"},
    },
    "BENCH_cluster.json": {
        "note": None,
        "version": None,
        "recovery_latency_s": None,
        "campaign": {"passed", "quick", "scenarios", "schema",
                     "workers"},
        "routing": {"nodes", "blocks", "plan", "counters",
                    "per_node_dispatches", "dispatch_throughput_rps"},
        "ring_balance": {"nodes", "keys", "replicas", "min_share",
                         "max_share", "max_over_fair"},
    },
    "BENCH_netchaos.json": {
        "note": None,
        "version": None,
        "wall_time_s": None,
        "campaign": {"passed", "quick", "scenarios", "schema",
                     "workers"},
    },
    "BENCH_explore.json": {
        "note": None,
        "version": None,
        "sweep": {"schema", "points_total", "points_feasible",
                  "points_infeasible", "pareto",
                  "workload_fingerprint", "pinned_digest",
                  "trace_probe_fallbacks"},
        "memoization": {"warm_hit_rate", "warm_points_evaluated",
                        "serial_equals_parallel", "parallel_workers"},
        "timing": {"cold_serial_s", "warm_parallel_s",
                   "cold_parallel_s", "warm_speedup"},
    },
}

# name -> pinned fields its script's view reads from the committed file
# (308 in all).  A view that stops reading a field fails here without a
# re-measure.
PINNED_FIELDS = {
    "BENCH_simulator.json": 13,
    "BENCH_faults.json": 75,
    "BENCH_serve.json": 15,
    "BENCH_chaos.json": 24,
    "BENCH_gateway.json": 42,
    "BENCH_cluster.json": 28,
    "BENCH_explore.json": 11,
    "BENCH_netchaos.json": 100,
}

SCENARIO_FIELDS = {
    "name", "mode", "sent", "statuses", "expected_statuses", "passed",
    "rejections", "latency_ms_p50", "latency_ms_p99", "latency_ms_max",
    "throughput_rps", "elapsed_s",
}


def load(name):
    return json.loads((BENCH_DIR / name).read_text())


@pytest.fixture(scope="module")
def views():
    """Every bench script's pinned views, keyed by baseline file name."""
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH_DIR))  # the scripts' legacy_* imports
    try:
        found = {}
        for script in sorted(BENCH_DIR.glob("bench_*.py")):
            spec = importlib.util.spec_from_file_location(
                f"_schema_{script.stem}", script
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            for path, view in module.VIEWS.items():
                assert path.name not in found, path.name
                found[path.name] = view
        return found
    finally:
        sys.path[:] = saved


def test_every_bench_file_on_disk_is_registered():
    on_disk = {p.name for p in BENCH_DIR.glob("BENCH_*.json")}
    assert on_disk == set(REGISTRY) == set(PINNED_FIELDS), (
        "BENCH files and the schema registry diverged; register new "
        "baselines here so their shape is pinned"
    )


def test_every_baseline_is_checked_by_one_script(views):
    assert set(views) == set(REGISTRY)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_pinned_field_count(name, views):
    view = views[name](load(name))
    assert len(view) == PINNED_FIELDS[name]
    unread = sorted(key for key, value in view.items() if value is None)
    assert not unread, f"{name} lacks pinned fields {unread}"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_bench_schema(name):
    payload = load(name)
    spec = REGISTRY[name]
    missing = set(spec) - set(payload)
    assert not missing, f"{name} lost top-level keys: {missing}"
    for key, subkeys in spec.items():
        if subkeys is None:
            continue
        lost = subkeys - set(payload[key])
        assert not lost, f"{name}[{key}] lost keys: {lost}"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_bench_version_is_one(name):
    assert load(name)["version"] == 1


def test_gateway_baseline_internal_consistency():
    campaign = load("BENCH_gateway.json")["campaign"]
    assert campaign["schema"] == "repro.gateway.loadtest/v1"
    assert campaign["passed"] is True
    assert campaign["quick"] is True
    scenarios = campaign["scenarios"]
    assert [s["name"] for s in scenarios] == [
        "steady-closed", "poisson-open", "flash-crowd", "tenant-skew",
        "deadline-storm", "breaker-open", "node-failure",
    ]
    for entry in scenarios:
        missing = SCENARIO_FIELDS - set(entry)
        assert not missing, f"{entry['name']} missing {missing}"
        assert entry["statuses"] == entry["expected_statuses"]
        assert entry["passed"] is True
    # Totals really are the sum of the scenario counts.
    want_sent = sum(s["sent"] for s in scenarios)
    assert campaign["totals"]["sent"] == want_sent
    rejected = {}
    for entry in scenarios:
        for code, count in entry["rejections"].items():
            rejected[code] = rejected.get(code, 0) + count
    assert campaign["totals"]["rejections"] == rejected


def test_chaos_baseline_scenarios_all_passed():
    campaign = load("BENCH_chaos.json")["campaign"]
    assert campaign["passed"] is True
    for entry in campaign["scenarios"]:
        assert entry["passed"] is True, entry["name"]
        assert entry["error"] is None


def test_chaos_baseline_covers_node_scenarios():
    campaign = load("BENCH_chaos.json")["campaign"]
    names = {entry["name"] for entry in campaign["scenarios"]}
    assert {"node-kill", "node-partition", "scale-storm"} <= names


def test_netchaos_baseline_internal_consistency():
    campaign = load("BENCH_netchaos.json")["campaign"]
    assert campaign["schema"] == "repro.chaos/v1"
    assert campaign["passed"] is True
    assert [s["name"] for s in campaign["scenarios"]] == [
        "net-reset-storm", "net-latency-spike", "net-black-hole",
        "net-slow-client", "net-hedge-race", "net-overload-shed",
    ]
    for entry in campaign["scenarios"]:
        assert entry["passed"] is True, entry["name"]
        assert entry["error"] is None
    # The fault-specific ledgers really fired: a baseline where every
    # counter is zero would pin a campaign that injected nothing.
    by_name = {s["name"]: s["details"] for s in campaign["scenarios"]}
    assert by_name["net-reset-storm"]["client"]["conn_errors"] > 0
    assert by_name["net-latency-spike"]["client"]["timeouts"] > 0
    assert by_name["net-black-hole"]["client"]["replays"] == 0
    assert by_name["net-slow-client"]["client"]["retries"] == 0
    assert by_name["net-hedge-race"]["client"]["hedge_wins"] == 1
    assert by_name["net-overload-shed"]["sheds"] == {"overloaded:p2": 3}


def test_cluster_baseline_internal_consistency():
    payload = load("BENCH_cluster.json")
    campaign = payload["campaign"]
    assert campaign["passed"] is True
    assert [s["name"] for s in campaign["scenarios"]] == [
        "node-kill", "node-partition", "scale-storm",
    ]
    for entry in campaign["scenarios"]:
        assert entry["passed"] is True, entry["name"]
        assert entry["error"] is None
    storm = campaign["scenarios"][2]["details"]
    assert storm["sizes"][:8] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert storm["sizes"][-1] == 1
    # Routing is affine and complete: every dispatch landed somewhere.
    routing = payload["routing"]
    assert sum(routing["per_node_dispatches"].values()) == \
        routing["blocks"]
    assert routing["counters"]["serial_fallbacks"] == 0
    balance = payload["ring_balance"]
    assert balance["max_over_fair"] <= 2.5


def test_explore_baseline_internal_consistency():
    payload = load("BENCH_explore.json")
    sweep = payload["sweep"]
    assert sweep["schema"] == "repro.explore/v1"
    assert sweep["points_total"] == \
        sweep["points_feasible"] + sweep["points_infeasible"]
    assert sweep["points_feasible"] > 0
    # The realizability axis bites: some grid points must be rejected
    # by the capacity check (else the axis is untested).
    assert sweep["points_infeasible"] > 0
    # Every frontier key names a swept point, and the 32-NPE (16x16
    # mesh, the paper's chip) region is represented.
    assert sweep["pareto"]
    assert any(key.startswith("npe32-") for key in sweep["pareto"])
    assert sweep["trace_probe_fallbacks"] == 0
    memo = payload["memoization"]
    # Repeating the identical sweep is 100% point-cache hits ...
    assert memo["warm_hit_rate"] == 1.0
    assert memo["warm_points_evaluated"] == 0
    # ... and serial vs process-pool sweeps are bit-identical.
    assert memo["serial_equals_parallel"] is True
