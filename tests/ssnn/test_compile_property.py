"""Property test: compiled plans survive the on-disk cache bit-for-bit.

For any random workload, chip reorder flag and execution engine -- with a
:class:`~repro.rsfq.faults.FaultModel` attached so the self-healing loop
runs over the compiled kernel too -- inference through a
:class:`~repro.ssnn.compile.PlanCache` entry that was *loaded from disk*
must equal inference through the freshly-compiled in-memory artifact and
the differential harness's pre-compile reference kernel: identical
decisions (rasters, predictions), spurious-decision counts and
synaptic-operation totals.  This is the satellite acceptance property of
the compile-once pipeline (see docs/SERVING.md).

A second property draws the network shape itself -- 2 to 4 layers of
random widths from 1, the SC count, the reorder flag, the row count (0
and 1 included) and whether an all-zero and an all-one row join the
block -- and holds the plan loaded through a fresh cache, the in-memory
plan (fed float64 and ``bool`` rows), the pre-compile reference kernel
and the guarded 2-worker pool to the same rows.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.harness import random_binarized_network, random_spike_trains
from repro.harness.differential import (
    _ReferenceRuntime,
    reference_forward_rows,
)
from repro.rsfq.faults import FaultModel
from repro.ssnn import PlanCache, SushiRuntime, compile_network
from repro.ssnn.pool import GuardedPool

CHIP_N = 4
SC = 8


def workload(seed, steps=3, batch=4):
    rng = np.random.default_rng(seed)
    network = random_binarized_network(
        rng, sizes=(9, 7, 4), sc_per_npe=SC
    )
    trains = random_spike_trains(rng, steps, batch, 9)
    return network, trains


def assert_identical(a, b):
    assert np.array_equal(a.output_raster, b.output_raster)
    assert np.array_equal(a.predictions, b.predictions)
    assert a.spurious_decisions == b.spurious_decisions
    assert a.synaptic_ops == b.synaptic_ops
    assert a.reload_events == b.reload_events


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    reorder=st.booleans(),
    engine=st.sampled_from(["fast", "per-sample", "behavioral"]),
    faulted=st.booleans(),
)
def test_cache_round_trip_is_bit_identical(seed, reorder, engine, faulted):
    # The behavioural chip model implements the paper's reordered
    # protocol only.
    assume(not (engine == "behavioral" and not reorder))
    network, trains = workload(seed)
    faults = (
        FaultModel.single("pulse_drop", 0.04, seed=seed + 1)
        if faulted else None
    )

    def run(runtime):
        if engine == "per-sample":
            return runtime.infer_per_sample(network, trains)
        return runtime.infer(network, trains)

    engine_kw = "fast" if engine == "per-sample" else engine
    with tempfile.TemporaryDirectory() as root:
        # Cold: compile + persist.  Warm: a *fresh* cache object over the
        # same root, so the artifact genuinely comes off disk.
        cold_cache = PlanCache(root=root)
        cold = run(SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, engine=engine_kw,
            reorder=reorder, plan_cache=cold_cache, faults=faults,
        ))
        warm_cache = PlanCache(root=root)
        warm = run(SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, engine=engine_kw,
            reorder=reorder, plan_cache=warm_cache, faults=faults,
        ))
        if engine_kw == "fast":
            assert cold_cache.misses >= 1
            assert warm_cache.hits >= 1 and warm_cache.misses == 0
    legacy = run(_ReferenceRuntime(
        chip_n=CHIP_N, sc_per_npe=SC, engine=engine_kw, reorder=reorder,
        plan_cache=None, faults=faults,
    ))
    assert_identical(warm, cold)
    assert_identical(warm, legacy)


@settings(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(st.integers(min_value=1, max_value=12),
                   min_size=3, max_size=5),
    sc_per_npe=st.integers(min_value=4, max_value=12),
    reorder=st.booleans(),
    n_rows=st.integers(min_value=0, max_value=24),
    edge_rows=st.booleans(),
)
@example(seed=0, sizes=[5, 3, 2], sc_per_npe=4, reorder=True, n_rows=0,
         edge_rows=False)
@example(seed=1, sizes=[5, 3, 2], sc_per_npe=4, reorder=False, n_rows=1,
         edge_rows=False)
# A 1-wide layer feeding an 8-wide one: redrawing whole layers until no
# neuron was dead ran out of tries here.
@example(seed=10, sizes=[1, 1, 8], sc_per_npe=4, reorder=True, n_rows=3,
         edge_rows=True)
def test_random_shapes_agree_on_every_path(seed, sizes, sc_per_npe,
                                           reorder, n_rows, edge_rows):
    rng = np.random.default_rng(seed)
    network = random_binarized_network(rng, sizes=sizes,
                                       sc_per_npe=sc_per_npe)
    rows = (rng.random((n_rows, sizes[0])) < 0.4).astype(np.float64)
    if edge_rows:
        # An all-one row drives every neuron to its full inhibition: the
        # edge of the capacity bound the compiled kernel's proof uses.
        rows = np.vstack([rows, np.zeros((1, sizes[0])),
                          np.ones((1, sizes[0]))])
    plan = compile_network(network, CHIP_N, sc_per_npe, reorder)
    with tempfile.TemporaryDirectory() as root:
        PlanCache(root=root).get_or_compile(
            network, CHIP_N, sc_per_npe, reorder
        )
        warm = PlanCache(root=root)
        loaded = warm.get_or_compile(network, CHIP_N, sc_per_npe, reorder)
        assert warm.hits == 1 and warm.misses == 0
    guard = GuardedPool(plan, 2)
    try:
        pooled = guard.forward(rows)
    finally:
        guard.close()
    want = plan.forward_rows(rows)
    for got in (loaded.forward_rows(rows),
                plan.forward_rows(rows.astype(bool)),
                reference_forward_rows(network.layers, rows,
                                       1 << sc_per_npe, reorder),
                pooled):
        assert np.array_equal(got[0], want[0])
        assert (got[1], got[2]) == (want[1], want[2])
