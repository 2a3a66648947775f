"""Property-based equivalence tests between the execution engines.

The batched fast engine, the per-sample reference loop and the behavioural
chip model must produce *bit-identical* spike rasters, predictions and
statistics on any valid workload -- batching and chip reuse are pure
performance transforms.  Random binarized networks and spike trains are
drawn per example (Hypothesis supplies the seeds) and every result field
is compared exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.harness import random_binarized_network, random_spike_trains
from repro.ssnn import SushiRuntime
from tests.ssnn.test_compile import BAD_SPIKES

SC_PER_NPE = 8


def workload(seed, sizes=(9, 7, 4), steps=4, batch=6, max_magnitude=2):
    rng = np.random.default_rng(seed)
    network = random_binarized_network(
        rng, sizes=sizes, max_magnitude=max_magnitude, sc_per_npe=SC_PER_NPE
    )
    spikes = random_spike_trains(rng, steps, batch, network.in_features)
    return network, spikes


def assert_results_identical(a, b, check_stats=True):
    assert np.array_equal(a.output_raster, b.output_raster)
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.rates, b.rates)
    if check_stats:
        assert a.spurious_decisions == b.spurious_decisions
        assert a.synaptic_ops == b.synaptic_ops
        assert a.reload_events == b.reload_events


class TestFastVsPerSample:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batched_equals_per_sample_reordered(self, seed):
        network, spikes = workload(seed)
        runtime = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        assert_results_identical(
            runtime.infer(network, spikes),
            runtime.infer_per_sample(network, spikes),
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batched_equals_per_sample_naive_order(self, seed):
        """The ablation path (interleaved polarities) must batch exactly
        too, including its spurious-decision count."""
        network, spikes = workload(seed)
        runtime = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE, reorder=False)
        assert_results_identical(
            runtime.infer(network, spikes),
            runtime.infer_per_sample(network, spikes),
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 5),
        batch=st.integers(1, 8),
    )
    def test_equivalence_over_shapes(self, seed, steps, batch):
        network, spikes = workload(seed, steps=steps, batch=batch)
        runtime = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        assert_results_identical(
            runtime.infer(network, spikes),
            runtime.infer_per_sample(network, spikes),
        )


class TestFastVsBehavioral:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rasters_and_predictions_agree(self, seed):
        network, spikes = workload(seed, sizes=(6, 5, 3), steps=3, batch=4)
        fast = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        behavioral = SushiRuntime(
            chip_n=4, sc_per_npe=SC_PER_NPE, engine="behavioral"
        )
        a = fast.infer(network, spikes)
        b = behavioral.infer(network, spikes)
        # Stats differ by construction (the chip counts protocol events,
        # the fast engine counts mathematical ones) but the computation --
        # raster, rates, predictions -- must match bit for bit.
        assert_results_identical(a, b, check_stats=False)
        assert a.spurious_decisions == b.spurious_decisions == 0

    def test_behavioral_chip_reuse_matches_per_sample(self):
        """One power-on-reset chip across the batch equals a fresh chip
        per sample, including protocol statistics."""
        network, spikes = workload(3, sizes=(6, 5, 3), steps=3, batch=4)
        runtime = SushiRuntime(
            chip_n=4, sc_per_npe=SC_PER_NPE, engine="behavioral"
        )
        assert_results_identical(
            runtime.infer(network, spikes),
            runtime.infer_per_sample(network, spikes),
        )


class TestProcessPool:
    def test_max_workers_does_not_change_results(self):
        network, spikes = workload(11, steps=5, batch=16)
        serial = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        pooled = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE, max_workers=2)
        assert_results_identical(
            serial.infer(network, spikes),
            pooled.infer(network, spikes),
        )

    def test_small_batches_stay_serial(self):
        """Fewer rows than 2x workers must not attempt a pool (and must
        still be exact)."""
        network, spikes = workload(12, steps=1, batch=2)
        serial = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        pooled = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE, max_workers=8)
        assert_results_identical(
            serial.infer(network, spikes),
            pooled.infer(network, spikes),
        )


class TestConfigurationErrors:
    def test_behavioral_rejects_naive_order(self):
        network, spikes = workload(0, sizes=(6, 5, 3))
        runtime = SushiRuntime(
            chip_n=4, sc_per_npe=SC_PER_NPE, engine="behavioral",
            reorder=False,
        )
        with pytest.raises(ConfigurationError):
            runtime.infer(network, spikes)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            SushiRuntime(engine="quantum")

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SushiRuntime(max_workers=-1)

    @pytest.mark.parametrize("engine", ["fast", "behavioral"])
    @pytest.mark.parametrize("value", BAD_SPIKES)
    def test_values_other_than_0_or_1_rejected(self, value, engine):
        network, spikes = workload(0)
        bad = spikes.copy()
        bad[1, 0, 2] = value
        runtime = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE,
                               engine=engine)
        with pytest.raises(ConfigurationError, match="0 or 1"):
            runtime.infer(network, bad)
        with pytest.raises(ConfigurationError, match="0 or 1"):
            runtime.infer_per_sample(network, bad)

    def test_bad_spike_shapes_rejected(self):
        network, spikes = workload(0)
        runtime = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        with pytest.raises(ConfigurationError):
            runtime.infer(network, spikes[0])  # 2-D
        with pytest.raises(ConfigurationError):
            runtime.infer(network, spikes[:, :, :-1])  # wrong width


class TestPlanMemoisation:
    def test_plan_cached_per_network_object(self):
        network, spikes = workload(5)
        runtime = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        runtime.infer(network, spikes)
        plan_a = runtime._plan_for(network)
        runtime.infer(network, spikes)
        assert runtime._plan_for(network) is plan_a

    def test_distinct_networks_get_distinct_plans(self):
        net_a, _ = workload(6)
        net_b, _ = workload(7)
        runtime = SushiRuntime(chip_n=4, sc_per_npe=SC_PER_NPE)
        assert runtime._plan_for(net_a) is not runtime._plan_for(net_b)
