"""Tests for the compile-once plan layer (:mod:`repro.ssnn.compile`).

Covers the cache-key scheme (fingerprint sensitivity), the one-matmul
compiled kernel's bit-identity against the differential harness's pre-compile
reference kernel, the folded static
statistics, the disk round trip, and the content-addressed
:class:`PlanCache` (hit/miss accounting, corruption recovery, clearing,
degrade on unwritable roots).  ``tests/ssnn/test_artifact_store.py``
covers the store's repair rules for every artifact kind.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.harness import random_binarized_network, random_spike_trains
from repro.harness.differential import _ReferenceRuntime
from repro.snn.binarize import BinarizedLayer, BinarizedNetwork
from repro.ssnn import (
    PLAN_KIND,
    CompiledNetwork,
    PlanCache,
    SushiRuntime,
    compile_network,
    network_fingerprint,
    plan_network,
    resolve_plan_cache,
)
from repro.ssnn.compile import _materialize_layer, spike_rows

CHIP_N = 4
SC = 8

#: Values outside the 0/1 spike contract every row entry point refuses.
BAD_SPIKES = (0.5, 2.0, -1.0, float("nan"))


def make_workload(
    seed=0, sizes=(10, 8, 5), steps=3, batch=6, sc_per_npe=SC
):
    rng = np.random.default_rng(seed)
    network = random_binarized_network(
        rng, sizes=sizes, sc_per_npe=sc_per_npe
    )
    trains = random_spike_trains(rng, steps, batch, sizes[0])
    return network, trains


class TestFingerprint:
    def test_equal_valued_networks_share_a_key(self):
        net_a, _ = make_workload(seed=1)
        net_b = BinarizedNetwork([
            BinarizedLayer(l.signed_weights.copy(), l.thresholds.copy())
            for l in net_a.layers
        ])
        assert (network_fingerprint(net_a, CHIP_N, SC)
                == network_fingerprint(net_b, CHIP_N, SC))

    def test_any_parameter_change_changes_the_key(self):
        network, _ = make_workload(seed=2)
        base = network_fingerprint(network, CHIP_N, SC, reorder=True)
        keys = {
            base,
            network_fingerprint(network, CHIP_N + 1, SC),
            network_fingerprint(network, CHIP_N, SC + 1),
            network_fingerprint(network, CHIP_N, SC, reorder=False),
        }
        assert len(keys) == 4

        weights = network.layers[0].signed_weights.copy()
        weights[0, 0] += 1
        bumped_w = BinarizedNetwork(
            [BinarizedLayer(weights, network.layers[0].thresholds)]
            + list(network.layers[1:])
        )
        thresholds = network.layers[0].thresholds.copy()
        thresholds[0] += 1
        bumped_t = BinarizedNetwork(
            [BinarizedLayer(network.layers[0].signed_weights, thresholds)]
            + list(network.layers[1:])
        )
        assert network_fingerprint(bumped_w, CHIP_N, SC) != base
        assert network_fingerprint(bumped_t, CHIP_N, SC) != base


class TestCompiledKernel:
    @pytest.mark.parametrize("reorder", [True, False])
    @pytest.mark.parametrize("sc_per_npe", [3, SC, 24])
    def test_bit_identical_to_legacy_runtime(self, sc_per_npe, reorder):
        # 3 and 8 SCs compute in float32, 24 in float64; capacity 8 puts
        # counters on exact multiples of the capacity often.
        network, trains = make_workload(seed=3, sc_per_npe=sc_per_npe)
        want_dtype = np.float64 if sc_per_npe == 24 else np.float32
        assert all(
            l.compute_dtype == want_dtype for l in
            compile_network(network, CHIP_N, sc_per_npe, reorder).layers
        )
        compiled = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=sc_per_npe, reorder=reorder,
            plan_cache=None,
        ).infer(network, trains)
        legacy = _ReferenceRuntime(
            chip_n=CHIP_N, sc_per_npe=sc_per_npe, reorder=reorder,
            plan_cache=None,
        ).infer(network, trains)
        assert np.array_equal(compiled.output_raster, legacy.output_raster)
        assert np.array_equal(compiled.predictions, legacy.predictions)
        assert compiled.spurious_decisions == legacy.spurious_decisions
        assert compiled.synaptic_ops == legacy.synaptic_ops
        assert compiled.reload_events == legacy.reload_events

    def test_static_stats_match_the_planner(self):
        network, _ = make_workload(seed=4)
        compiled = compile_network(network, CHIP_N, SC)
        plan = plan_network(network, CHIP_N, SC)
        assert compiled.pass_count == plan.pass_count
        assert compiled.max_strength == plan.max_strength
        assert compiled.reload_events == plan.reload_events()
        assert compiled.reload_passes == plan.reload_passes()
        assert compiled.slice_counts == tuple(
            tuple(sc) for sc in plan.slice_counts()
        )
        assert compiled.capacity == 1 << SC
        assert compiled.in_features == network.in_features
        assert compiled.out_features == network.out_features

    def test_rejects_bad_row_shapes(self):
        network, _ = make_workload(seed=5)
        compiled = compile_network(network, CHIP_N, SC)
        with pytest.raises(ConfigurationError):
            compiled.forward_rows(np.zeros((3, network.in_features + 1)))

    @pytest.mark.parametrize("reorder", [True, False])
    @pytest.mark.parametrize("value", BAD_SPIKES)
    def test_rejects_values_other_than_0_or_1(self, value, reorder):
        network, trains = make_workload(seed=5)
        compiled = compile_network(network, CHIP_N, SC, reorder)
        rows = trains.reshape(-1, network.in_features).copy()
        rows[2, 1] = value
        with pytest.raises(ConfigurationError, match="0 or 1"):
            compiled.forward_rows(rows)

    def test_spike_rows_contract(self):
        rows = np.array([[0.0, 1.0, -0.0], [1.0, 0.0, 1.0]])
        spikes = spike_rows(rows)
        assert spikes.dtype == np.bool_
        assert np.array_equal(spikes, rows)
        # Integer 0/1 blocks pass too; a bool block passes unscanned.
        assert np.array_equal(spike_rows(rows.astype(np.int8)), spikes)
        assert spike_rows(spikes) is spikes
        out = np.empty(rows.shape, dtype=np.bool_)
        assert spike_rows(rows, out=out) is out
        assert np.array_equal(out, spikes)
        with pytest.raises(ConfigurationError):
            spike_rows(np.array([["0", "1"]]))

    def test_capacity_error_surfaces_at_compile_time(self):
        # Inhibition + threshold exceed the SC chain: the planner's
        # CapacityError must fire during compile, not at inference.
        weights = np.full((4, 2), -3, dtype=np.int64)
        thresholds = np.array([3, 3])
        network = BinarizedNetwork([BinarizedLayer(weights, thresholds)])
        with pytest.raises(CapacityError):
            compile_network(network, CHIP_N, sc_per_npe=3)

    def test_compute_dtype_selection(self):
        # Small trajectories run in float32 ...
        network, _ = make_workload(seed=6)
        compiled = compile_network(network, CHIP_N, SC)
        assert all(
            l.compute_dtype == np.float32 for l in compiled.layers
        )
        # ... and a trajectory bound beyond 2**24 forces float64.
        big = _materialize_layer(
            np.array([[1 << 24]], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([0, 0], dtype=np.int32),
            np.array([0, 1], dtype=np.int8),
            capacity=1 << SC,
        )
        assert big.compute_dtype == np.float64

    def test_weights_pack_into_the_tightest_dtype(self):
        network, _ = make_workload(seed=7)
        compiled = compile_network(network, CHIP_N, SC)
        for layer in compiled.layers:
            assert layer.signed_weights.dtype == np.int8

    def test_serving_plan_pickles_small(self):
        # Every pool worker receives the plan pickled.  The 784-512-10
        # serving plan is its float32 compute matrix plus the int8 packed
        # one (about 2.06 MB); an int64 copy of the weights would add
        # 3.26 MB.
        network = random_binarized_network(
            np.random.default_rng(2024), sizes=(784, 512, 10),
            sc_per_npe=10,
        )
        plan = compile_network(network, 16, 10)
        assert len(pickle.dumps(plan)) < 2_100_000


def tamper(cache, fingerprint, kind=PLAN_KIND, edit=None, **changes):
    """Re-store an existing entry with some ``meta`` fields changed;
    ``edit(arrays)`` may change its arrays in place first."""
    with np.load(cache.path_for(fingerprint, kind)) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {k: data[k] for k in data.files if k != "meta"}
    if edit is not None:
        edit(arrays)
    assert cache.store(fingerprint, kind, {**meta, **changes}, arrays)


class TestDiskRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        network, trains = make_workload(seed=8)
        compiled = PlanCache(root=tmp_path).get_or_compile(
            network, CHIP_N, SC
        )
        warm = PlanCache(root=tmp_path)
        loaded = warm.get_or_compile(network, CHIP_N, SC)
        assert warm.hits == 1 and warm.misses == 0
        assert loaded is not compiled
        assert loaded.fingerprint == compiled.fingerprint
        assert loaded.slice_counts == compiled.slice_counts
        assert loaded.reload_events == compiled.reload_events
        for a, b in zip(loaded.layers, compiled.layers):
            assert np.array_equal(a.signed_weights, b.signed_weights)
            assert np.array_equal(a.thresholds, b.thresholds)
            assert np.array_equal(a.stream_order, b.stream_order)
            assert np.array_equal(a.stream_polarity, b.stream_polarity)
            assert a.compute_dtype == b.compute_dtype
        rows = trains.reshape(-1, network.in_features)
        assert all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(loaded.forward_rows(rows),
                            compiled.forward_rows(rows))
        )

    def test_load_rejects_garbage(self, tmp_path):
        cache = PlanCache(root=tmp_path)
        path = cache.path_for("ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a zip at all")
        assert cache.load("ab" * 32, PLAN_KIND,
                          CompiledNetwork.decode) is None
        assert not path.exists()

    def test_load_rejects_tampered_capacity(self, tmp_path):
        # A plan's capacity is 2 ** sc_per_npe, the bound check_capacity
        # and the naive path count with: an artifact claiming any other
        # capacity is refused, and the cache recompiles over it.
        network, _ = make_workload(seed=16)
        cache = PlanCache(root=tmp_path)
        compiled = cache.get_or_compile(network, CHIP_N, SC)
        tamper(cache, compiled.fingerprint, capacity=compiled.capacity + 1)
        again = cache.get_or_compile(network, CHIP_N, SC)
        assert cache.misses == 2 and cache.hits == 0
        assert again.capacity == 1 << SC
        assert cache.load(compiled.fingerprint, PLAN_KIND,
                          CompiledNetwork.decode).capacity == 1 << SC

    def test_load_rejects_tampered_threshold(self, tmp_path):
        # The kernel's answers rest on check_capacity's bound: an entry
        # whose stored threshold breaks it is refused at load, and the
        # cache recompiles over it.
        network, trains = make_workload(seed=17)
        cache = PlanCache(root=tmp_path)
        compiled = cache.get_or_compile(network, CHIP_N, SC)

        def past_capacity(arrays):
            arrays["t0"] = arrays["t0"].copy()
            arrays["t0"][0] = compiled.capacity + 1

        tamper(cache, compiled.fingerprint, edit=past_capacity)
        again = cache.get_or_compile(network, CHIP_N, SC)
        assert cache.misses == 2 and cache.hits == 0
        rows = trains.reshape(-1, network.in_features)
        fresh = compile_network(network, CHIP_N, SC)
        for got, want in zip(again.forward_rows(rows),
                             fresh.forward_rows(rows)):
            assert np.array_equal(got, want)
        assert np.array_equal(again.layers[0].thresholds,
                              fresh.layers[0].thresholds)

    def test_load_rejects_stale_schema(self, tmp_path):
        network, _ = make_workload(seed=9)
        cache = PlanCache(root=tmp_path)
        compiled = cache.get_or_compile(network, CHIP_N, SC)
        tamper(cache, compiled.fingerprint, schema=999)
        assert cache.load(compiled.fingerprint, PLAN_KIND,
                          CompiledNetwork.decode) is None
        assert not cache.path_for(compiled.fingerprint).exists()


class TestPlanCache:
    def test_miss_then_hit(self, tmp_path):
        network, _ = make_workload(seed=10)
        cache = PlanCache(root=tmp_path)
        first = cache.get_or_compile(network, CHIP_N, SC)
        second = cache.get_or_compile(network, CHIP_N, SC)
        assert cache.misses == 1 and cache.hits == 1
        assert first.fingerprint == second.fingerprint
        stats = cache.stats()
        assert stats.entries == 1 and stats.bytes > 0
        assert stats.hits == 1 and stats.misses == 1

    def test_distinct_configs_get_distinct_entries(self, tmp_path):
        network, _ = make_workload(seed=11)
        cache = PlanCache(root=tmp_path)
        cache.get_or_compile(network, CHIP_N, SC, reorder=True)
        cache.get_or_compile(network, CHIP_N, SC, reorder=False)
        assert cache.stats().entries == 2

    def test_corrupt_entry_recompiles(self, tmp_path):
        network, _ = make_workload(seed=12)
        cache = PlanCache(root=tmp_path)
        compiled = cache.get_or_compile(network, CHIP_N, SC)
        cache.path_for(compiled.fingerprint).write_bytes(b"garbage")
        again = cache.get_or_compile(network, CHIP_N, SC)
        assert cache.misses == 2 and cache.hits == 0
        assert again.fingerprint == compiled.fingerprint
        # The rewritten entry is healthy again.
        assert cache.load(
            compiled.fingerprint, PLAN_KIND, CompiledNetwork.decode
        ).fingerprint == compiled.fingerprint

    def test_clear_removes_entries(self, tmp_path):
        network, _ = make_workload(seed=13)
        cache = PlanCache(root=tmp_path)
        cache.get_or_compile(network, CHIP_N, SC)
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_unwritable_root_degrades_to_memory(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        root = tmp_path / "ro"
        root.mkdir()
        root.chmod(0o500)
        try:
            network, _ = make_workload(seed=14)
            cache = PlanCache(root=root)
            compiled = cache.get_or_compile(network, CHIP_N, SC)
            assert compiled.out_features == network.out_features
            assert cache.stats().entries == 0
        finally:
            root.chmod(0o700)

    def test_resolve_plan_cache(self, tmp_path):
        cache = PlanCache(root=tmp_path)
        assert resolve_plan_cache(None) is None
        assert resolve_plan_cache(cache) is cache
        assert resolve_plan_cache("default") is not None
        with pytest.raises(ConfigurationError):
            resolve_plan_cache("never")

    def test_env_var_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path / "plans"))
        from repro.ssnn.compile import default_cache, default_cache_dir

        assert default_cache_dir() == tmp_path / "plans"
        assert default_cache().root == tmp_path / "plans"


class TestRuntimeCacheIntegration:
    def test_runtime_uses_the_cache_across_instances(self, tmp_path):
        network, trains = make_workload(seed=15)
        cache = PlanCache(root=tmp_path)
        cold = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, plan_cache=cache
        ).infer(network, trains)
        assert cache.misses == 1
        warm = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, plan_cache=cache
        ).infer(network, trains)
        assert cache.hits == 1
        assert np.array_equal(cold.output_raster, warm.output_raster)
        assert cold.synaptic_ops == warm.synaptic_ops


class TestKindNamespacing:
    """Artifact-kind subdirectories; plan files written at the root by
    caches older than the kind namespaces are no longer read."""

    def test_plans_live_under_the_kind_subdirectory(self, tmp_path):
        network, _ = make_workload(seed=30)
        cache = PlanCache(root=tmp_path)
        plan = cache.get_or_compile(network, CHIP_N, SC)
        expected = tmp_path / PLAN_KIND / f"{plan.fingerprint}.npz"
        assert expected.exists()
        assert cache.stats().entries == 1

    def test_pre_namespacing_plan_is_a_miss(self, tmp_path):
        network, _ = make_workload(seed=31)
        cache = PlanCache(root=tmp_path)
        plan = cache.get_or_compile(network, CHIP_N, SC)
        namespaced = tmp_path / PLAN_KIND / f"{plan.fingerprint}.npz"
        legacy = tmp_path / f"{plan.fingerprint}.npz"
        namespaced.rename(legacy)  # the layout before kind namespaces

        warm = PlanCache(root=tmp_path)
        again = warm.get_or_compile(network, CHIP_N, SC)
        assert warm.hits == 0 and warm.misses == 1
        assert again.fingerprint == plan.fingerprint
        assert namespaced.exists()  # recompiled into the kind namespace

    def test_resolve_plan_cache_error_names_the_type(self):
        with pytest.raises(ConfigurationError, match="int: 17"):
            resolve_plan_cache(17)
