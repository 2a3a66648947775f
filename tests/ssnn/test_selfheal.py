"""Tests for the self-healing runtime retry/fallback loop.

Contract (see ``docs/FAULTS.md``): with an active fault model every
``infer`` corrupts its inputs per a deterministic per-attempt seed,
detects corruption by disagreement with the clean software reference,
retries with fresh seeds, and finally either degrades gracefully to
fault-free semantics (``degraded=True`` with a recovery trail) or raises
:class:`~repro.errors.FaultInjectionError` -- per :class:`RetryPolicy`.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FaultInjectionError
from repro.harness.differential import (
    random_binarized_network,
    random_spike_trains,
)
from repro.rsfq.faults import FaultModel
from repro.ssnn import RetryPolicy, SushiRuntime, perturb_spike_trains


@pytest.fixture(scope="module")
def workload():
    sizes = (8, 6, 4)
    network = random_binarized_network(
        np.random.default_rng(0), sizes, sc_per_npe=8
    )
    trains = random_spike_trains(
        np.random.default_rng(1), 6, 8, sizes[0], rate=0.5
    )
    return network, trains


def runtime_with(faults, policy=None, **kwargs):
    kwargs.setdefault("chip_n", 8)
    kwargs.setdefault("sc_per_npe", 8)
    return SushiRuntime(faults=faults, retry_policy=policy, **kwargs)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 3
        assert policy.fallback is True
        assert policy.fallback_engine is None

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_unknown_fallback_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="fallback_engine"):
            RetryPolicy(fallback_engine="quantum")


class TestPerturbation:
    def test_deterministic_per_attempt(self, workload):
        _, trains = workload
        model = FaultModel.single("pulse_drop", 0.2, seed=9)
        a1, n1 = perturb_spike_trains(trains, model, attempt=0)
        a2, n2 = perturb_spike_trains(trains, model, attempt=0)
        assert n1 == n2 and np.array_equal(a1, a2)
        b1, m1 = perturb_spike_trains(trains, model, attempt=1)
        assert not np.array_equal(a1, b1)

    def test_input_is_not_mutated(self, workload):
        _, trains = workload
        before = trains.copy()
        perturb_spike_trains(
            trains, FaultModel.single("flux_trap", 0.5), attempt=0
        )
        assert np.array_equal(trains, before)

    def test_drop_only_clears_spikes(self, workload):
        _, trains = workload
        out, injected = perturb_spike_trains(
            trains, FaultModel.single("pulse_drop", 1.0), attempt=0
        )
        assert injected == int((trains > 0).sum())
        assert out.sum() == 0

    def test_duplicate_only_raises_spikes(self, workload):
        _, trains = workload
        out, injected = perturb_spike_trains(
            trains, FaultModel.single("pulse_duplicate", 1.0), attempt=0
        )
        assert injected == int((trains == 0).sum())
        assert out.min() == 1.0

    def test_stuck_cell_silences_whole_features(self, workload):
        _, trains = workload
        out, injected = perturb_spike_trains(
            trains, FaultModel.single("stuck_cell", 1.0), attempt=0
        )
        assert injected == trains.shape[2]
        assert out.sum() == 0

    def test_zero_probability_is_identity(self, workload):
        _, trains = workload
        out, injected = perturb_spike_trains(
            trains, FaultModel.single("flux_trap", 0.0), attempt=0
        )
        assert injected == 0
        assert np.array_equal(out, trains)


class TestSelfHealing:
    def test_no_faults_is_single_clean_attempt(self, workload):
        network, trains = workload
        result = runtime_with(None).infer(network, trains)
        assert result.attempts == 1
        assert result.degraded is False
        assert result.fault_injections == 0
        assert result.recovery == ()

    def test_zero_probability_model_heals_first_attempt(self, workload):
        network, trains = workload
        runtime = runtime_with(FaultModel.single("pulse_drop", 0.0, seed=1))
        result = runtime.infer(network, trains)
        assert result.attempts == 1
        assert result.degraded is False
        assert result.recovery == ()

    def test_persistent_faults_degrade_gracefully(self, workload):
        network, trains = workload
        runtime = runtime_with(
            FaultModel.single("pulse_drop", 0.05, seed=3),
            RetryPolicy(max_retries=2),
        )
        result = runtime.infer(network, trains)
        clean = runtime_with(None).infer(network, trains)
        # The acceptance scenario: p=0.05 drop, inference completes with
        # the degradation recorded and fault-free final semantics.
        assert result.degraded is True
        assert result.attempts == 4  # 1 + 2 retries + fallback
        assert result.fault_injections > 0
        assert len(result.recovery) == 4
        assert "fallback: degraded" in result.recovery[-1]
        assert np.array_equal(result.output_raster, clean.output_raster)
        assert np.array_equal(result.predictions, clean.predictions)

    def test_raise_policy_surfaces_fault_injection_error(self, workload):
        network, trains = workload
        runtime = runtime_with(
            FaultModel.single("pulse_drop", 0.05, seed=3),
            RetryPolicy(max_retries=1, fallback=False),
        )
        with pytest.raises(FaultInjectionError, match="stayed corrupted"):
            runtime.infer(network, trains)

    def test_behavioral_fallback_engine(self, workload):
        network, trains = workload
        runtime = runtime_with(
            FaultModel.single("pulse_drop", 0.05, seed=3),
            RetryPolicy(max_retries=0, fallback_engine="behavioral"),
        )
        result = runtime.infer(network, trains)
        assert result.degraded is True
        assert "behavioral" in result.recovery[-1]
        clean = runtime_with(None, engine="behavioral").infer(
            network, trains
        )
        assert np.array_equal(result.output_raster, clean.output_raster)

    def test_healing_is_deterministic(self, workload):
        network, trains = workload
        make = lambda: runtime_with(
            FaultModel.single("flux_trap", 0.03, seed=11),
            RetryPolicy(max_retries=3),
        )
        r1 = make().infer(network, trains)
        r2 = make().infer(network, trains)
        assert r1.attempts == r2.attempts
        assert r1.fault_injections == r2.fault_injections
        assert r1.recovery == r2.recovery
        assert np.array_equal(r1.output_raster, r2.output_raster)

    def test_per_sample_keeps_the_healing_record(self):
        rng = np.random.default_rng(5)
        network = random_binarized_network(rng, (9, 7, 4), sc_per_npe=8)
        trains = random_spike_trains(rng, 3, 6, 9)
        runtime = runtime_with(
            FaultModel.single("pulse_drop", 0.3, seed=3),
            chip_n=4, plan_cache=None,
        )
        singles = [
            runtime.infer(network, trains[:, b:b + 1]) for b in range(6)
        ]
        result = runtime.infer_per_sample(network, trains)
        assert result.attempts == sum(s.attempts for s in singles)
        assert result.fault_injections == sum(
            s.fault_injections for s in singles
        )
        assert result.fault_injections > 0
        assert result.degraded is True
        assert result.recovery == tuple(
            f"sample {b}: {line}"
            for b, single in enumerate(singles)
            for line in single.recovery
        )
        batched = runtime.infer(network, trains)
        assert np.array_equal(result.output_raster, batched.output_raster)
