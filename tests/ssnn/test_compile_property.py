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
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.harness import random_binarized_network, random_spike_trains
from repro.harness.differential import _ReferenceRuntime
from repro.rsfq.faults import FaultModel
from repro.ssnn import PlanCache, SushiRuntime

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
