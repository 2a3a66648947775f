"""Campaign driver: memoization, determinism, counters, reporting."""

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.explore import (
    EXPLORE_KIND,
    GLOBAL_EXPLORE_COUNTERS,
    ExploreConfig,
    build_workload,
    evaluate_point,
    pinned_digest,
    pinned_view,
    render_report,
    run_explore,
)
from repro.explore.grid import ExploreGrid, ExplorePoint, point_fingerprint
from repro.ssnn import PlanCache


@pytest.fixture()
def quick():
    return ExploreConfig.quick()


@pytest.fixture()
def cache(tmp_path):
    return PlanCache(root=tmp_path / "cache")


def canonical(report):
    return json.dumps(pinned_view(report), sort_keys=True)


class TestReportShape:
    def test_schema_and_point_order(self, quick):
        report = run_explore(quick, plan_cache=None)
        assert report["schema"] == "repro.explore/v1"
        keys = [row["key"] for row in report["points"]]
        assert keys == [p.key for p in quick.grid.points()]
        assert report["counters"]["points_total"] == len(keys)

    def test_feasible_points_carry_the_full_metric_set(self, quick):
        report = run_explore(quick, plan_cache=None)
        feasible = [r for r in report["points"] if r["feasible"]]
        assert feasible
        for row in feasible:
            for key in ("accuracy", "fps", "total_jj_effective",
                        "power_mw_effective", "synops_per_frame",
                        "probe_latency_ps", "spurious"):
                assert key in row["metrics"], (row["key"], key)

    def test_infeasible_points_keep_estimates_not_measurements(
            self, quick):
        report = run_explore(quick, plan_cache=None)
        infeasible = [r for r in report["points"] if not r["feasible"]]
        assert infeasible  # sc=4 cannot hold the quick workload
        for row in infeasible:
            assert "membrane states" in row["error"]
            assert row["metrics"]["total_jj"] > 0
            assert "accuracy" not in row["metrics"]
            assert row["key"] not in report["pareto"]
        assert report["counters"]["infeasible_points"] == \
            len(infeasible)

    def test_reordered_dominates_naive_on_accuracy(self, quick):
        report = run_explore(quick, plan_cache=None)
        by_key = {r["key"]: r for r in report["points"]}
        reordered = by_key["npe8-sc8-w4-reordered"]["metrics"]
        naive = by_key["npe8-sc8-w4-naive"]["metrics"]
        assert reordered["accuracy"] > naive["accuracy"]
        assert reordered["spurious"] < naive["spurious"]
        # ... which is why only reordered points reach the frontier.
        assert all(key.endswith("-reordered")
                   for key in report["pareto"])

    def test_render_report_mentions_everything(self, quick):
        report = run_explore(quick, plan_cache=None)
        text = render_report(report)
        for row in report["points"]:
            assert row["key"] in text
        assert "Pareto frontier" in text
        assert "infeasible" in text


class TestMemoization:
    def test_warm_rerun_is_all_hits_and_bit_identical(
            self, quick, cache):
        counters = GLOBAL_EXPLORE_COUNTERS.fresh()
        cold = run_explore(quick, plan_cache=cache, counters=counters)
        assert counters.snapshot()["point_cache_hits"] == 0
        warm_counters = GLOBAL_EXPLORE_COUNTERS.fresh()
        warm = run_explore(quick, plan_cache=cache,
                           counters=warm_counters)
        snap = warm_counters.snapshot()
        assert snap["point_cache_hits"] == \
            cold["counters"]["points_total"]
        assert snap["points_evaluated"] == 0
        assert canonical(cold) == canonical(warm)
        assert pinned_digest(cold) == pinned_digest(warm)

    def test_config_change_invalidates_points(self, quick, cache):
        run_explore(quick, plan_cache=cache)
        counters = GLOBAL_EXPLORE_COUNTERS.fresh()
        other = replace(quick, memory_technology="vt-ram")
        run_explore(other, plan_cache=cache, counters=counters)
        # Different memory technology -> different content addresses.
        assert counters.snapshot()["point_cache_hits"] == 0

    def test_corrupt_entry_is_dropped_and_repaired(self, quick, cache):
        run_explore(quick, plan_cache=cache)
        workload = build_workload(quick)
        point = quick.grid.points()[0]
        path = cache.path_for(
            point_fingerprint(point, workload.fingerprint,
                              quick.memory_technology,
                              quick.estimators),
            kind=EXPLORE_KIND,
        )
        assert path.exists()
        path.write_bytes(b"not an npz")
        counters = GLOBAL_EXPLORE_COUNTERS.fresh()
        report = run_explore(quick, plan_cache=cache,
                             counters=counters)
        snap = counters.snapshot()
        assert snap["points_evaluated"] == 1  # only the broken one
        assert snap["point_cache_hits"] == \
            report["counters"]["points_total"] - 1
        # ... and the repaired entry serves the next sweep.
        again = GLOBAL_EXPLORE_COUNTERS.fresh()
        run_explore(quick, plan_cache=cache, counters=again)
        assert again.snapshot()["points_evaluated"] == 0

    def test_uncached_sweep_counts_no_cache_traffic(self, quick):
        counters = GLOBAL_EXPLORE_COUNTERS.fresh()
        run_explore(quick, plan_cache=None, counters=counters)
        snap = counters.snapshot()
        assert snap["point_cache_hits"] == 0
        assert snap["point_cache_misses"] == 0
        assert snap["points_evaluated"] == snap["points_requested"]


class TestDeterminism:
    def test_serial_and_parallel_sweeps_are_bit_identical(
            self, quick, tmp_path):
        serial = run_explore(quick,
                             plan_cache=PlanCache(root=tmp_path / "a"))
        parallel = run_explore(
            replace(quick, workers=2),
            plan_cache=PlanCache(root=tmp_path / "b"),
        )
        assert canonical(serial) == canonical(parallel)
        assert serial["pareto"] == parallel["pareto"]

    def test_evaluate_point_is_pure(self, quick):
        workload = build_workload(quick)
        point = ExplorePoint(8, 8, 4, "reordered")
        a = evaluate_point(point, workload, quick)
        b = evaluate_point(point, workload, quick)
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)

    def test_workload_fingerprint_tracks_the_seed(self, quick):
        assert build_workload(quick).fingerprint != \
            build_workload(replace(quick, seed=7)).fingerprint

    def test_pinned_view_excludes_timing(self, quick):
        report = run_explore(quick, plan_cache=None)
        view = pinned_view(report)
        assert "timing" not in view
        assert view["points"] == report["points"]


class TestMemoryTechnologies:
    def test_vt_ram_shifts_the_effective_totals(self, quick):
        base = run_explore(quick, plan_cache=None)
        vt = run_explore(replace(quick, memory_technology="vt-ram"),
                         plan_cache=None)
        key = "npe8-sc8-w4-reordered"
        base_row = next(r for r in base["points"] if r["key"] == key)
        vt_row = next(r for r in vt["points"] if r["key"] == key)
        # Fewer JJs per bit than NDRO -> cheaper effective chip ...
        assert vt_row["metrics"]["total_jj_effective"] < \
            base_row["metrics"]["total_jj_effective"]
        # ... and the faster reload raises FPS.
        assert vt_row["metrics"]["fps"] >= base_row["metrics"]["fps"]
        # The NDRO baseline is the identity adjustment.
        assert base_row["metrics"]["total_jj_effective"] == \
            base_row["metrics"]["total_jj"]


class TestCountersAndConfig:
    def test_counter_families_shape(self):
        counters = GLOBAL_EXPLORE_COUNTERS.fresh()
        counters.inc("sweeps")
        counters.inc("points_evaluated", 5)
        families = counters.families()
        by_name = {name: samples for name, kind, help_, samples
                   in families}
        assert by_name["sushi_explore_sweeps_total"] == [(None, 1)]
        assert by_name["sushi_explore_points_evaluated_total"] == \
            [(None, 5)]
        for name, kind, help_, _ in families:
            assert name.startswith("sushi_explore_")
            assert kind == "counter"
            assert help_

    def test_counters_render_through_prometheus(self):
        from repro.obs import render_prometheus

        text = render_prometheus(GLOBAL_EXPLORE_COUNTERS.fresh().families())
        assert "# TYPE sushi_explore_sweeps_total counter" in text

    @pytest.mark.parametrize("bad", [
        dict(steps=0),
        dict(frames=0),
        dict(sizes=(8,)),
        dict(memory_technology="core-rope"),
        dict(estimators=("resources", "nope")),
        dict(workers=-1),
        dict(probe_pulses=0),
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ConfigurationError):
            ExploreConfig(**bad)

    def test_quick_config_is_small(self, quick):
        assert len(quick.grid.points()) <= 12


class TestCli:
    def test_quick_no_cache(self, capsys):
        from repro.explore.cli import main

        assert main(["--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "pinned digest" in out

    def test_json_to_stdout_is_valid(self, capsys):
        from repro.explore.cli import main

        assert main(["--quick", "--no-cache", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.explore/v1"

    def test_memory_flag_reaches_the_sweep(self, capsys):
        from repro.explore.cli import main

        assert main(["--quick", "--no-cache", "--memory", "vt-ram",
                     "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["memory_technology"] == "vt-ram"

    def test_registered_as_repro_subcommand(self):
        from repro.__main__ import SUBCOMMANDS

        assert "explore" in SUBCOMMANDS
