"""Tests for the cheap (model-only) experiment runners and the artifact
cache.  Training-heavy runners are exercised by the benchmark harness."""

import numpy as np
import pytest

from repro.harness.artifacts import get_trained_bundle
from repro.harness.experiments import (
    run_delay_fraction,
    run_fig13,
    run_fig19,
    run_fig20,
    run_fig21,
    run_fps,
    run_table1,
    run_table2,
    run_table4,
)


class TestModelOnlyExperiments:
    def test_table1_structure(self):
        result = run_table1()
        assert len(result["rows"]) >= 10
        assert all(c["violation_detected"] for c in result["checks"])
        assert "Table 1" in result["report"]

    def test_table2_within_five_percent(self):
        measured = run_table2()["measured"]
        assert abs(measured.total_jj - 45_542) / 45_542 < 0.05

    def test_fig13_rows_cover_sweep(self):
        rows = run_fig13()["rows"]
        assert [row["npes"] for row in rows] == [2, 4, 8, 16, 32]

    def test_table4_headline(self):
        result = run_table4()
        assert result["gsops"] == pytest.approx(1355, rel=0.02)
        assert result["efficiency"] == pytest.approx(32_366, rel=0.02)

    def test_fig19_20_21_consistent(self):
        gsops = [r["gsops"] for r in run_fig19()["rows"]]
        power = [r["power_mw"] for r in run_fig20()["rows"]]
        eff = [r["gsops_per_w"] for r in run_fig21()["rows"]]
        for g, p, e in zip(gsops, power, eff):
            assert e == pytest.approx(g / (p * 1e-3), rel=0.02)

    def test_fps_and_delay(self):
        assert run_fps()["fps"] == pytest.approx(2.61e5, rel=0.02)
        rows = run_delay_fraction()["rows"]
        assert rows[0]["model_share_pct"] < rows[-1]["model_share_pct"]


class TestArtifactCache:
    def test_cache_round_trip(self, tmp_path, monkeypatch):
        import repro.harness.artifacts as artifacts

        monkeypatch.setattr(artifacts, "CACHE_DIR", str(tmp_path))
        kwargs = dict(dataset="digits", hidden=8, epochs=1, train_size=60,
                      test_size=20, time_steps=2)
        first = artifacts.get_trained_bundle(**kwargs)
        second = artifacts.get_trained_bundle(**kwargs)
        np.testing.assert_array_equal(
            first.model.linear_layers()[0].weight.numpy(),
            second.model.linear_layers()[0].weight.numpy(),
        )
        assert second.train_accuracy == first.train_accuracy

    def test_cache_bypass(self, tmp_path, monkeypatch):
        import repro.harness.artifacts as artifacts

        monkeypatch.setattr(artifacts, "CACHE_DIR", str(tmp_path))
        bundle = artifacts.get_trained_bundle(
            dataset="digits", hidden=8, epochs=1, train_size=60,
            test_size=20, time_steps=2, use_cache=False,
        )
        assert 0.0 <= bundle.train_accuracy <= 1.0
        assert not list(tmp_path.iterdir())

    def test_unreadable_bundle_is_retrained_and_overwritten(
        self, tmp_path, monkeypatch
    ):
        import repro.harness.artifacts as artifacts

        monkeypatch.setattr(artifacts, "CACHE_DIR", str(tmp_path))
        kwargs = dict(dataset="digits", hidden=8, epochs=1, train_size=60,
                      test_size=20, time_steps=2)
        fresh = artifacts.get_trained_bundle(**kwargs, use_cache=False)
        expected = fresh.model.linear_layers()[0].weight.numpy()
        path = tmp_path / f"{fresh.config_key}.npz"
        path.write_bytes(b"PK\x03\x04 not a zip archive")

        bundle = artifacts.get_trained_bundle(**kwargs)
        np.testing.assert_array_equal(
            bundle.model.linear_layers()[0].weight.numpy(), expected
        )
        with np.load(path) as data:
            np.testing.assert_array_equal(data["w0"], expected)
        # The atomic save left no temporary file behind.
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_downsample_changes_input_size(self, tmp_path, monkeypatch):
        import repro.harness.artifacts as artifacts

        monkeypatch.setattr(artifacts, "CACHE_DIR", str(tmp_path))
        bundle = artifacts.get_trained_bundle(
            dataset="digits", hidden=8, epochs=1, train_size=60,
            test_size=20, time_steps=2, downsample=4,
        )
        assert bundle.model.linear_layers()[0].in_features == 49


class TestResilienceExperiment:
    def test_resilience_runner_structure(self):
        from repro.harness.experiments import run_resilience

        result = run_resilience(
            kinds=("pulse_drop",), probabilities=(0.0, 0.2),
            jitter_sigmas=(0.0,), trials=1,
        )
        assert result["ber_monotone"] is True
        assert result["zero_probability_clean"] is True
        assert result["campaign"]["schema"] == "repro.campaign/v1"
        assert result["healed_attempts"] >= 1
        report = result["report"]
        assert "resilience campaign" in report
        assert "Self-healing runtime" in report
