"""Tests for the drift gate that checks every ``benchmarks/BENCH_*.json``.

A fake ``measure`` stands in for a benchmark run, so no campaign runs.
"""

import json

import pytest

from repro.harness.regression import (
    SCHEMA_VERSION,
    drift,
    main,
    snapshot_headline_metrics,
    write,
)


def pinned(report):
    """The fake's pinned view: every field under ``pinned``."""
    return {f"pinned.{key}": value
            for key, value in report["pinned"].items()}


class FakeBench:
    """One baseline path, its view, and a ``measure`` that counts calls
    and returns whatever ``pinned`` currently holds."""

    def __init__(self, tmp_path, name="BENCH_fake.json"):
        self.path = tmp_path / name
        self.pinned = {"a": 1, "b": [2, 3]}
        self.wall_s = 0.0
        self.calls = 0

    def measure(self):
        self.calls += 1
        self.wall_s += 1.5  # informational: moves on every run
        return {self.path: {"note": "fake", "wall_s": self.wall_s,
                            "pinned": dict(self.pinned)}}

    def run(self, *argv):
        return main({self.path: pinned}, self.measure, list(argv))

    def drifted(self, capsys, change):
        """Write a baseline, apply ``change`` to the pinned fields, and
        return ``--check``'s exit code and stderr."""
        self.run("--write")
        change(self.pinned)
        capsys.readouterr()
        status = self.run("--check")
        return status, capsys.readouterr().err


@pytest.fixture()
def bench(tmp_path):
    return FakeBench(tmp_path)


class TestSnapshot:
    """The baseline files: what ``--write`` puts down and ``--check``
    accepts."""

    def test_record_and_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        report = {"pinned": {"gsops": 1355.0, "ok": True}, "wall_s": 0.1}
        write({path: report})
        assert json.loads(path.read_text()) == {
            **report, "version": SCHEMA_VERSION,
        }

    def test_saved_json_is_sorted_and_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        report = {"zeta": 1.0, "alpha": {"y": 2, "x": 3}}
        write({a: report, b: report})
        text = a.read_text()
        assert text == b.read_text()
        assert text.endswith("}\n")
        assert text.index('"alpha"') < text.index('"version"') \
            < text.index('"zeta"')
        assert text.index('"x"') < text.index('"y"')

    def test_missing_file_rejected(self, bench, capsys):
        assert bench.run("--check") == 2
        assert bench.calls == 0  # nothing is measured
        assert "missing baseline" in capsys.readouterr().err

    def test_malformed_snapshot_rejected(self, bench, capsys):
        bench.run("--write")
        payload = json.loads(bench.path.read_text())
        for version in (SCHEMA_VERSION + 1, None):
            payload["version"] = version
            bench.path.write_text(json.dumps(payload))
            assert bench.run("--check") == 2
            assert "regenerate with --write" in capsys.readouterr().err
        assert bench.calls == 1  # the --write only


class TestCompare:
    """``drift`` and the exit code and report of ``--check``."""

    def test_identical_snapshots_pass(self):
        assert drift({"a": 1, "b": [1]}, {"b": [1], "a": 1}) == {}

    def test_round_trip_then_compare(self, bench, capsys):
        assert bench.run("--write") == 0
        assert bench.run("--check") == 0  # wall_s moved, still a match
        assert bench.calls == 2
        assert "OK: 2 pinned fields match BENCH_fake.json" in \
            capsys.readouterr().out

    def test_excess_drift_detected(self, bench, capsys):
        status, err = bench.drifted(capsys, lambda p: p.update(a=7))
        assert status == 1
        assert "drift against BENCH_fake.json:\n" in err
        assert "  pinned.a: baseline=1 measured=7\n" in err
        assert "pinned.b" not in err

    def test_tolerance_miss_reports_both_values(self):
        assert drift({"x": 10.0, "y": 1}, {"x": 12.0, "y": 1}) == {
            "x": (10.0, 12.0)
        }

    def test_added_and_removed_metrics_flagged(self, bench, capsys):
        status, err = bench.drifted(capsys, lambda p: p.update(c=4))
        assert status == 1
        assert "  pinned.c: baseline=None measured=4\n" in err
        status, err = bench.drifted(capsys, lambda p: p.pop("b"))
        assert status == 1
        assert "  pinned.b: baseline=[2, 3] measured=None\n" in err

    def test_drift_lists_keys_in_order(self):
        moved = drift({"c": 1, "a": 1, "gone": 0},
                      {"c": 2, "a": 1, "new": None})
        assert moved == {"c": (1, 2), "gone": (0, None),
                         "new": (None, None)}
        assert list(moved) == ["c", "gone", "new"]

    def test_zero_baseline(self):
        assert drift({"x": 0.0}, {"x": 0.0}) == {}
        assert drift({"x": 0.0}, {"x": 1.0}) == {"x": (0.0, 1.0)}
        assert drift({"x": 0}, {}) == {"x": (0, None)}

    def test_zero_tolerance_is_exact_gate(self):
        assert drift({"x": 1.0}, {"x": 1.0 + 1e-12}) == {
            "x": (1.0, 1.0 + 1e-12)
        }

    def test_one_measure_checks_every_baseline(self, tmp_path, capsys):
        first, second = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
        runs = []

        def measure():
            runs.append(len(runs))
            return {first: {"pinned": {"x": 1}},
                    second: {"pinned": {"y": len(runs)}}}

        views = {first: pinned, second: pinned}
        assert main(views, measure, ["--write"]) == 0
        assert main(views, measure, ["--check"]) == 1
        assert runs == [0, 1]
        captured = capsys.readouterr()
        assert "OK: 1 pinned fields match BENCH_a.json" in captured.out
        assert "pinned.y: baseline=1 measured=2" in captured.err

    def test_mode_is_required(self, bench):
        with pytest.raises(SystemExit) as exc:
            bench.run()
        assert exc.value.code == 2
        assert bench.calls == 0


class TestHeadlineSnapshot:
    def test_headline_values_match_calibration(self):
        snap = snapshot_headline_metrics()
        assert snap["peak_gsops"] == pytest.approx(1355, rel=0.01)
        assert snap["peak_power_mw"] == pytest.approx(41.87, rel=0.02)
        assert snap["table2_total_jj"] == pytest.approx(45_542, rel=0.05)

    def test_snapshot_is_stable_across_calls(self):
        assert drift(snapshot_headline_metrics(),
                     snapshot_headline_metrics()) == {}
