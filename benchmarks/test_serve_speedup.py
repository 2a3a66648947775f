"""Benchmark: compiled serving pipeline vs the pre-rework fast engine.

Asserts the serving PR's headline claims on this interpreter, back to
back:

* at batch 512 with workers, the persistent shared-memory pool over the
  compiled plan delivers >= 3x the throughput of the pre-PR fast engine
  with its per-call executor (same row block, same machine, same
  interpreter);
* a warm plan-cache hit (load off disk) beats a cold compile;
* every path -- legacy serial, legacy parallel, compiled serial,
  compiled pool -- computes identical decisions, spurious counts and
  synops totals.

The committed ``BENCH_serve.json`` pinned fields are checked by
``bench_serve.py --check``, a CI step of its own.
"""

import tempfile
import time

import numpy as np

from conftest import emit
from legacy_runtime import (
    legacy_forward_rows,
    legacy_parallel_rows,
    make_serving_workload,
)
from repro.ssnn import InferencePool, PlanCache, compile_network

POOL_SPEEDUP_FLOOR = 3.0
CACHE_SPEEDUP_FLOOR = 1.5
CHIP_N = 16
SC_PER_NPE = 10
WORKERS = 2
TRIALS = 3


def best_time(fn, trials=TRIALS):
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


class TestServingSpeedup:
    def test_pool_beats_pre_pr_parallel_engine_by_3x(self):
        network, rows, steps, batch = make_serving_workload()
        capacity = 1 << SC_PER_NPE
        compiled = compile_network(network, CHIP_N, SC_PER_NPE)
        with InferencePool(compiled, workers=WORKERS) as pool:
            pool.infer_rows(rows)  # spawn + buffer warmup outside timing
            t_pool = best_time(lambda: pool.infer_rows(rows))
            t_legacy = best_time(lambda: legacy_parallel_rows(
                network.layers, rows, capacity, workers=WORKERS
            ))
        speedup = t_legacy / t_pool
        emit(
            f"batch-{batch} serving (workers={WORKERS}): "
            f"pre-PR parallel {t_legacy * 1000:.1f} ms, "
            f"compiled pool {t_pool * 1000:.1f} ms, "
            f"speedup {speedup:.2f}x (floor {POOL_SPEEDUP_FLOOR}x)"
        )
        assert speedup >= POOL_SPEEDUP_FLOOR

    def test_warm_cache_hit_beats_cold_compile(self):
        network, _, _, _ = make_serving_workload()
        with tempfile.TemporaryDirectory() as root:
            cold_cache = PlanCache(root=root)
            start = time.perf_counter()
            cold = cold_cache.get_or_compile(network, CHIP_N, SC_PER_NPE)
            t_cold = time.perf_counter() - start
            assert cold_cache.misses == 1 and cold_cache.hits == 0

            warm_cache = PlanCache(root=root)
            start = time.perf_counter()
            warm = warm_cache.get_or_compile(network, CHIP_N, SC_PER_NPE)
            t_warm = time.perf_counter() - start
            assert warm_cache.hits == 1 and warm_cache.misses == 0
        assert warm.fingerprint == cold.fingerprint
        speedup = t_cold / t_warm
        emit(
            f"plan cache: cold compile {t_cold * 1000:.1f} ms, "
            f"warm hit {t_warm * 1000:.1f} ms, "
            f"speedup {speedup:.2f}x (floor {CACHE_SPEEDUP_FLOOR}x)"
        )
        assert speedup >= CACHE_SPEEDUP_FLOOR


class TestServingEquivalence:
    def test_all_paths_agree_bit_for_bit(self):
        network, rows, _, _ = make_serving_workload()
        capacity = 1 << SC_PER_NPE
        compiled = compile_network(network, CHIP_N, SC_PER_NPE)
        serial = legacy_forward_rows(network.layers, rows, capacity)
        parallel = legacy_parallel_rows(
            network.layers, rows, capacity, workers=WORKERS
        )
        fused = compiled.forward_rows(rows)
        with InferencePool(compiled, workers=WORKERS) as pool:
            pooled = pool.infer_rows(rows)
        for name, (dec, spur, syn) in {
            "legacy-parallel": parallel,
            "compiled-serial": fused,
            "compiled-pool": pooled,
        }.items():
            assert np.array_equal(dec, serial[0]), name
            assert (spur, syn) == serial[1:], name
