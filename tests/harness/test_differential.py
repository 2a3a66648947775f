"""Tests for the differential-equivalence harness."""

import json

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
from repro.harness.differential import (
    ENGINES,
    EngineComparison,
    _compare,
    run_traced_gate_differential,
)
from repro.harness.regression import drift
from repro.rsfq.faults import FAULT_KINDS, FaultModel
from repro.ssnn import compile_network
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

    def test_every_fitting_draw_compiles(self):
        # 400 seeded shapes: 2-4 layers, widths 1-39, 3-11 SCs.  The
        # generator refuses a shape it cannot fit with ConfigurationError;
        # every draw it returns must pass compile's CapacityError check.
        compiled = 0
        for seed in range(400):
            pick = np.random.default_rng(seed)
            sizes = pick.integers(1, 40, size=pick.integers(3, 6)).tolist()
            sc_per_npe = int(pick.integers(3, 12))
            try:
                network = random_binarized_network(
                    np.random.default_rng(seed), sizes=sizes,
                    sc_per_npe=sc_per_npe,
                )
            except ConfigurationError:
                continue
            compile_network(network, 4, sc_per_npe)
            compiled += 1
        assert compiled == 337

    def test_layer_bound_pairs_largest_threshold_and_inhibition(self):
        # Every threshold fitted its own neuron's inhibition, yet the
        # largest threshold plus the largest inhibition needed 18 states
        # where 4 SCs hold 16: compile raised CapacityError.
        network = random_binarized_network(
            np.random.default_rng(277), sizes=(21, 31, 10), sc_per_npe=4
        )
        assert max(required_capacity(l) for l in network.layers) <= 16
        compile_network(network, 4, 4)

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
        snap = report.to_snapshot()
        assert snap["mismatched_comparisons"] == 0.0
        assert snap["software_agrees"] == 1.0
        assert snap["samples"] == 6.0
        assert snap["engines"] == 3.0
        assert snap["total_output_spikes"] > 0

    def test_snapshot_round_trip_and_zero_tolerance_gate(self, tmp_path):
        """The baseline pattern: keep a snapshot as JSON, re-run, compare
        exactly."""
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(differential_snapshot(seed=1)))
        rerun = differential_snapshot(seed=1)
        assert drift(json.loads(path.read_text()), rerun) == {}

    def test_snapshot_gate_trips_on_workload_drift(self):
        moved = drift(differential_snapshot(seed=1),
                      differential_snapshot(seed=2))
        assert moved  # different workload: totals move
        assert all(want != got for want, got in moved.values())


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
    """The trace engine cross-checks the gate-level event engine:
    bit-identical physics, fallback allowed, wrong answers not."""

    def test_ideal_workload_replays_bit_identical(self):
        verdict = run_traced_gate_differential(seed=0)
        assert verdict["equivalent"], verdict
        assert verdict["traced_mode"] == "replay"
        assert verdict["traced_channels_equal"]
        assert verdict["traced_events_equal"]
        assert verdict["traced_events"] == verdict["events"] > 0

    def test_wire_jitter_replays_bit_identical(self):
        verdict = run_traced_gate_differential(seed=1, jitter_ps=0.3)
        assert verdict["equivalent"], verdict
        assert verdict["traced_mode"] == "replay"

    def test_violating_jitter_replays_bit_identical(self):
        # 3 ps is the gate-montecarlo sigma; over 16 passes it breaks a
        # timing window, and the replay must report the same violation.
        verdict = run_traced_gate_differential(
            seed=0, jitter_ps=3.0, passes=16
        )
        assert verdict["equivalent"], verdict
        assert verdict["traced_mode"] == "replay"
        assert verdict["violations"] > 0

    def test_faulted_workload_falls_back_bit_identical(self):
        model = FaultModel.single("pulse_drop", probability=1.0, seed=9)
        verdict = run_traced_gate_differential(seed=3, faults=model)
        assert verdict["equivalent"], verdict
        assert verdict["traced_mode"] == "fallback"
        assert verdict["injections"] > 0
        assert verdict["traced_injection_log_equal"]

    @pytest.mark.parametrize("jitter_ps", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_equivalent_across_seeds(self, seed, jitter_ps):
        verdict = run_traced_gate_differential(seed=seed, jitter_ps=jitter_ps)
        assert verdict["equivalent"], verdict
        if jitter_ps == 0.0:
            assert verdict["traced_mode"] == "replay"

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_equivalent_under_every_fault_kind(self, seed, kind):
        model = FaultModel.single(kind, probability=0.1, seed=seed)
        verdict = run_traced_gate_differential(
            seed=seed, jitter_ps=0.4, faults=model
        )
        assert verdict["equivalent"], verdict
        assert verdict["injections"] > 0
