"""Tests for the differential-equivalence harness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    differential_snapshot,
    random_binarized_network,
    random_spike_trains,
    run_differential,
    run_gate_level_differential,
)
from repro.harness.differential import ENGINES, EngineComparison, _compare
from repro.harness.regression import MetricSnapshot, compare
from repro.rsfq.faults import FaultModel
from repro.ssnn.bucketing import required_capacity
from repro.ssnn.runtime import RuntimeResult


def make_workload(seed, sizes=(8, 6, 4), steps=3, batch=5, sc_per_npe=8):
    rng = np.random.default_rng(seed)
    network = random_binarized_network(rng, sizes=sizes, sc_per_npe=sc_per_npe)
    trains = random_spike_trains(rng, steps, batch, sizes[0])
    return network, trains


class TestWorkloadGenerators:
    @pytest.mark.parametrize("seed", range(5))
    def test_networks_are_capacity_safe(self, seed):
        rng = np.random.default_rng(seed)
        network = random_binarized_network(rng, sc_per_npe=8)
        for layer in network.layers:
            assert required_capacity(layer) <= 1 << 8
            # No dead neurons, thresholds reachable.
            assert (np.abs(layer.signed_weights).sum(axis=0) > 0).all()
            excitation = np.maximum(layer.signed_weights, 0).sum(axis=0)
            assert (layer.thresholds >= 1).all()
            assert (layer.thresholds <= np.maximum(excitation, 1)).all()

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            random_binarized_network(np.random.default_rng(0), sizes=(4,))

    def test_spike_trains_are_binary(self):
        trains = random_spike_trains(np.random.default_rng(0), 5, 3, 7)
        assert trains.shape == (5, 3, 7)
        assert set(np.unique(trains)) <= {0.0, 1.0}

    def test_spike_rate_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            random_spike_trains(rng, 2, 2, 2, rate=1.5)
        assert random_spike_trains(rng, 4, 4, 4, rate=0.0).sum() == 0
        assert random_spike_trains(rng, 4, 4, 4, rate=1.0).sum() == 64


class TestRunDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_engines_equivalent(self, seed):
        network, trains = make_workload(seed, sizes=(7, 5, 3), batch=4)
        report = run_differential(network, trains)
        assert report.passed
        assert report.software_agreement is True
        assert report.samples == 4 and report.steps == 3
        assert set(report.results) == set(ENGINES)
        assert all(c.equivalent for c in report.comparisons)
        assert "EQUIVALENT" in report.summary()
        # Empty blocks (no samples, no steps), clean and self-healing.
        faults = FaultModel.single("pulse_drop", 0.3, seed=seed)
        for empty in (trains[:, :0], trains[:0]):
            for model in (None, faults):
                report = run_differential(network, empty, faults=model)
                assert report.passed, report.summary()
                for result in report.results.values():
                    assert result.output_raster.shape == empty.shape[:2] + (3,)

    def test_naive_order_differential(self):
        """reorder=False still batches exactly (fast vs per-sample)."""
        network, trains = make_workload(1)
        report = run_differential(
            network, trains, engines=("fast", "per-sample"),
            reorder=False, check_software=False,
        )
        assert report.passed
        assert report.software_agreement is None

    def test_behavioral_requires_reorder(self):
        network, trains = make_workload(0)
        with pytest.raises(ConfigurationError):
            run_differential(network, trains, reorder=False)

    def test_unknown_engine_rejected(self):
        network, trains = make_workload(0)
        with pytest.raises(ConfigurationError) as exc:
            run_differential(network, trains, engines=("fast", "quantum"))
        assert "quantum" in str(exc.value)

    def test_empty_engines_rejected(self):
        network, trains = make_workload(0)
        with pytest.raises(ConfigurationError):
            run_differential(network, trains, engines=())

    def test_workload_actually_spikes(self):
        """The generators must produce non-degenerate workloads, otherwise
        the differential proves nothing."""
        network, trains = make_workload(2, batch=8)
        report = run_differential(network, trains, engines=("fast",))
        assert report.results["fast"].output_raster.sum() > 0


class TestComparison:
    def result(self, raster):
        raster = np.asarray(raster, dtype=np.float64)
        rates = raster.mean(axis=0)
        return RuntimeResult(
            rates=rates,
            predictions=rates.argmax(axis=1),
            output_raster=raster,
            spurious_decisions=0,
            synaptic_ops=0,
            reload_events=0,
        )

    def test_identical_results_equivalent(self):
        raster = np.ones((2, 3, 2))
        c = _compare("a", self.result(raster), "b", self.result(raster))
        assert c.equivalent
        assert c.mismatched_samples == ()

    def test_mismatch_names_offending_samples(self):
        raster = np.zeros((2, 3, 2))
        other = raster.copy()
        other[1, 2, 0] = 1.0  # sample 2 differs
        c = _compare("a", self.result(raster), "b", self.result(other))
        assert not c.equivalent
        assert not c.raster_equal
        assert c.mismatched_samples == (2,)

    def test_equivalent_property(self):
        c = EngineComparison("a", "b", True, True, False)
        assert not c.equivalent


class TestSnapshotIntegration:
    def test_report_to_snapshot_metrics(self):
        network, trains = make_workload(0, batch=6)
        report = run_differential(network, trains)
        snap = report.to_snapshot("diff")
        assert snap.name == "diff"
        assert snap.metrics["mismatched_comparisons"] == 0.0
        assert snap.metrics["software_agrees"] == 1.0
        assert snap.metrics["samples"] == 6.0
        assert snap.metrics["engines"] == 3.0
        assert snap.metrics["total_output_spikes"] > 0

    def test_snapshot_round_trip_and_zero_tolerance_gate(self, tmp_path):
        """The CI pattern: save a baseline once, re-run, compare exactly."""
        baseline = differential_snapshot(seed=1)
        path = str(tmp_path / "baseline.json")
        baseline.save(path)
        rerun = differential_snapshot(seed=1)
        assert compare(MetricSnapshot.load(path), rerun, tolerance=0.0) == []

    def test_snapshot_gate_trips_on_workload_drift(self, tmp_path):
        baseline = differential_snapshot(seed=1)
        drifted = differential_snapshot(seed=2)
        failures = compare(baseline, drifted, tolerance=0.0)
        assert failures  # different workload: totals move, gate trips


class TestGateLevelDifferential:
    @pytest.mark.parametrize("seed", range(3))
    def test_gate_level_matches_all_paths(self, seed):
        outcome = run_gate_level_differential(seed=seed)
        assert outcome["equivalent"]
        assert outcome["fast"] == outcome["gate_level"]
        assert outcome["behavioral"] == outcome["software"]
        assert len(outcome["fast"]) == 3

    def test_gate_level_workload_fires_somewhere(self):
        fired = sum(
            sum(run_gate_level_differential(seed=s)["gate_level"])
            for s in range(3)
        )
        assert fired > 0


class TestCompiledDifferential:
    """The compiled-path acceptance sweep (engines x reorder x faults)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_passes(self, seed):
        from repro.harness import run_compiled_differential

        outcome = run_compiled_differential(seed=seed)
        assert outcome["passed"]
        assert set(outcome["reports"]) == {
            "reorder", "naive-order", "faulted"
        }
        assert all(outcome["counters_equal"].values())
        for report in outcome["reports"].values():
            assert report.passed
            assert "legacy-fast" in report.results

    def test_legacy_fast_engine_in_run_differential(self):
        from repro.harness.differential import EXTENDED_ENGINES

        assert set(ENGINES) < set(EXTENDED_ENGINES)
        network, trains = make_workload(seed=11)
        report = run_differential(
            network, trains, engines=("legacy-fast", "fast")
        )
        assert report.passed
        assert report.baseline == "legacy-fast"

    def test_unknown_engine_message_lists_extended_set(self):
        network, trains = make_workload(seed=12)
        with pytest.raises(ConfigurationError, match="legacy-fast"):
            run_differential(network, trains, engines=("warp",))


class TestTracedGateDifferential:
    """The traced replay engine folded into the gate-level differential
    (issue 7 acceptance: bit-identical, fallback allowed, wrong answers
    not)."""

    def test_ideal_workload_replays_bit_identical(self):
        from repro.harness.differential import run_parallel_gate_differential

        verdict = run_parallel_gate_differential(
            seed=0, engines=("sequential", "parallel", "traced")
        )
        assert verdict["equivalent"], verdict
        assert verdict["traced_equal"]
        assert verdict["traced_mode"] == "replay"
        assert verdict["traced_channels_equal"]
        assert verdict["traced_events_equal"]

    def test_wire_jitter_replays_bit_identical(self):
        from repro.harness.differential import run_parallel_gate_differential

        verdict = run_parallel_gate_differential(
            seed=1, jitter_ps=0.3,
            engines=("sequential", "parallel", "traced"),
        )
        assert verdict["equivalent"], verdict
        assert verdict["traced_mode"] == "replay"

    def test_faulted_workload_falls_back_bit_identical(self):
        from repro.harness.differential import run_parallel_gate_differential
        from repro.rsfq import FaultModel

        model = FaultModel.single("pulse_drop", probability=1.0, seed=9)
        verdict = run_parallel_gate_differential(
            seed=3, faults=model,
            engines=("sequential", "parallel", "traced"),
        )
        assert verdict["equivalent"], verdict
        assert verdict["traced_mode"] == "fallback"
        assert verdict["injections"] > 0
        assert verdict["traced_injection_log_equal"]

    def test_traced_without_parallel_leg(self):
        from repro.harness.differential import run_parallel_gate_differential

        verdict = run_parallel_gate_differential(
            seed=0, engines=("sequential", "traced")
        )
        assert verdict["equivalent"]
        assert "partitions" not in verdict

    def test_sequential_baseline_is_mandatory(self):
        from repro.harness.differential import run_parallel_gate_differential

        with pytest.raises(ConfigurationError, match="baseline"):
            run_parallel_gate_differential(engines=("traced",))
        with pytest.raises(ConfigurationError, match="unknown engines"):
            run_parallel_gate_differential(engines=("sequential", "warp"))
