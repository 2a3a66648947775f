"""Tests for the serving chaos harness (:mod:`repro.harness.chaos`).

The heavy lifting -- that every injected failure recovers bit-identical
to serial -- is asserted *inside* each scenario; these tests check the
harness machinery (hook budgets, scenario registry, report schema, CLI)
and run the cheap scenarios end-to-end.  The full quick campaign runs
once in CI, in ``benchmarks/bench_chaos.py --check``.
"""

import json
import os

import pytest

from repro.harness import chaos
from repro.harness.chaos import (
    CHAOS_SCHEMA,
    ChaosHook,
    CorruptHeaderHook,
    KillHook,
    SCENARIOS,
    run_chaos,
    run_scenario,
)


class _CountingHook(ChaosHook):
    def __init__(self, marker_dir, budget):
        super().__init__(marker_dir, budget)
        self.fires = 0

    def fire(self, *args):
        self.fires += 1


class TestHookBudget:
    def test_budget_is_exact(self, tmp_path):
        hook = _CountingHook(str(tmp_path), budget=3)
        for _ in range(10):
            hook(0, 0, 0, 0, "in", "out")
        assert hook.fires == 3
        assert hook.fired() == 3

    def test_budget_is_shared_across_instances(self, tmp_path):
        """Respawned workers unpickle a fresh hook object over the same
        marker dir: the permit pool must be shared."""
        a = _CountingHook(str(tmp_path), budget=2)
        b = _CountingHook(str(tmp_path), budget=2)
        a(0, 0, 0, 0, "i", "o")
        b(1, 0, 0, 1, "i", "o")
        b(1, 0, 0, 2, "i", "o")
        assert a.fires + b.fires == 2

    def test_zero_budget_never_fires(self, tmp_path):
        hook = _CountingHook(str(tmp_path), budget=0)
        hook(0, 0, 0, 0, "i", "o")
        assert hook.fires == 0

    def test_corrupt_hook_tolerates_missing_segment(self, tmp_path):
        hook = CorruptHeaderHook(str(tmp_path), budget=1)
        hook(0, 0, 0, 0, "no-such-segment-name", "out")  # must not raise

    def test_base_hook_fire_is_abstract(self, tmp_path):
        with pytest.raises(NotImplementedError):
            ChaosHook(str(tmp_path), budget=1)(0, 0, 0, 0, "i", "o")


class TestRunner:
    def test_registry_covers_the_issue_scenarios(self):
        assert set(SCENARIOS) == {
            "worker-kill", "worker-freeze", "shm-unlink",
            "shm-corrupt", "poison-batch", "breaker-cycle",
            "node-kill", "node-partition", "scale-storm",
            "net-reset-storm", "net-latency-spike", "net-black-hole",
            "net-slow-client", "net-hedge-race", "net-overload-shed",
        }

    def test_network_scenarios_are_registered_in_order(self):
        from repro.harness.chaos import NETWORK_SCENARIOS

        assert NETWORK_SCENARIOS == (
            "net-reset-storm", "net-latency-spike", "net-black-hole",
            "net-slow-client", "net-hedge-race", "net-overload-shed",
        )
        assert all(name in SCENARIOS for name in NETWORK_SCENARIOS)

    def test_node_scenarios_run_quick(self):
        """The node-level scenarios (cluster layer) pass end-to-end;
        scale-storm is pure routing (serial nodes in quick mode) so it
        is cheap enough to pin here alongside the registry."""
        entry = run_scenario("scale-storm", quick=True)
        assert entry["passed"], entry["error"]
        assert entry["details"]["sizes"][:8] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert entry["details"]["sizes"][-1] == 1

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(KeyError):
            run_chaos(names=["no-such-scenario"])

    def test_single_scenario_report_entry(self):
        entry = run_scenario("shm-corrupt", quick=True)
        assert entry["name"] == "shm-corrupt"
        assert entry["passed"], entry["error"]
        assert entry["error"] is None
        assert entry["elapsed_s"] >= 0.0

    def test_scenario_failure_is_reported_not_raised(self, monkeypatch):
        def boom(quick, marker_dir):
            raise chaos.ChaosAssertionError("injected harness failure")

        monkeypatch.setitem(SCENARIOS, "worker-kill", boom)
        entry = run_scenario("worker-kill", quick=True)
        assert not entry["passed"]
        assert "injected harness failure" in entry["error"]

    def test_report_schema_and_verdict(self):
        report = run_chaos(quick=True, names=["shm-unlink", "shm-corrupt"])
        assert report["schema"] == CHAOS_SCHEMA == "repro.chaos/v1"
        assert report["quick"] is True
        assert [s["name"] for s in report["scenarios"]] == [
            "shm-unlink", "shm-corrupt",
        ]
        assert report["passed"] is all(
            s["passed"] for s in report["scenarios"]
        )
        text = chaos.format_report(report)
        assert "shm-unlink" in text


class TestCli:
    def test_main_writes_json_report(self, tmp_path):
        out = tmp_path / "chaos.json"
        code = chaos.main([
            "--quick", "--scenario", "shm-corrupt", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.chaos/v1"
        assert report["passed"] is True

    def test_failing_campaign_exits_nonzero(self, monkeypatch, tmp_path):
        def boom(quick, marker_dir):
            raise RuntimeError("scenario exploded")

        monkeypatch.setitem(SCENARIOS, "shm-corrupt", boom)
        code = chaos.main(["--quick", "--scenario", "shm-corrupt"])
        assert code == 1

    def test_module_entry_point_dispatches(self):
        from repro.__main__ import main

        # `python -m repro chaos --help`-style dispatch must not fall
        # through to the experiments parser; main returns argparse's
        # exit code instead of raising (tests/test_cli.py).
        assert main(["chaos", "--help"]) == 0
