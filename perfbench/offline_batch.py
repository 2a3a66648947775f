"""offline-batch: batch evaluation at paper scale (closed loop, one caller).

One op is one ``SushiRuntime(chip_n=16, sc_per_npe=10, max_workers=2)
.infer(network, trains)`` call on a (T=2, 512, 784) block, served by the
runtime's persistent two-worker ``InferencePool``.  The gateway and serve
layers are bypassed; the kernel runs on 512-sample blocks.  Every call's
decisions, spurious count and synops must equal a serial ``forward_rows``
reference computed during set-up.  The run is cut into equal parts, each
served by a runtime and pool of its own whose set-up starts the part.

BLAS threads are left as the host configures them: the pool's oversubscribed
OpenBLAS threads are part of what this workload measures (the run records
the library and its thread count).
"""

from __future__ import annotations

import multiprocessing
import time

from common import CHIP_N, SC_PER_NPE, SETUP_REPEATS, TAIL_PERCENTILE, \
    Outcome, build_network, mean, median, peak_rss_mb, self_peak_rss_mb

STEPS = 2
BLOCK_SAMPLES = 512
DISTINCT_BLOCKS = 4
WORKERS = 2
#: Share of a traced run spent timing the serial kernel after the pool.
SERIAL_SHARE = 0.25


def run(seed: int, seconds: float, trace: bool, run_dir) -> Outcome:
    import numpy as np
    from repro.harness.differential import random_spike_trains
    from repro.ssnn import PlanCache, SushiRuntime, compile_network
    from repro.ssnn.pool import InferencePool

    out = Outcome()
    network = build_network()
    rng = np.random.default_rng(seed)
    blocks = [random_spike_trains(rng, STEPS, BLOCK_SAMPLES,
                                  network.in_features)
              for _ in range(DISTINCT_BLOCKS)]
    serial = compile_network(network, CHIP_N, SC_PER_NPE)
    rows = [b.reshape(STEPS * BLOCK_SAMPLES, -1) for b in blocks]
    expected = [serial.forward_rows(r) for r in rows]

    def matches(result, index: int) -> bool:
        decisions, spurious, synops = expected[index]
        return (np.array_equal(result.output_raster,
                               decisions.reshape(result.output_raster.shape))
                and result.spurious_decisions == spurious
                and result.synaptic_ops == synops)

    pool_ms, pools = [], set()
    original_infer_rows = InferencePool.infer_rows
    if trace:
        def timed_infer_rows(self, block_rows):
            start = time.perf_counter()
            try:
                return original_infer_rows(self, block_rows)
            finally:
                pool_ms.append((time.perf_counter() - start) * 1e3)
                pools.add(self)

        InferencePool.infer_rows = timed_infer_rows

    runtime = None
    try:
        setups, latencies = [], []
        elapsed = 0.0
        # As in gate-montecarlo, the run is cut into SETUP_REPEATS equal
        # parts, each started by a set-up of its own (a fresh runtime, pool
        # and plan cache, timed to its first answer), so their median
        # samples the host over the whole run, not only at its start.
        for k in range(SETUP_REPEATS):
            if runtime is not None:
                runtime.close()
            start = time.perf_counter()
            runtime = SushiRuntime(
                chip_n=CHIP_N, sc_per_npe=SC_PER_NPE, max_workers=WORKERS,
                plan_cache=PlanCache(root=run_dir / f"plans-{k}"),
            )
            first = runtime.infer(network, blocks[0])
            setups.append(time.perf_counter() - start)
            if not matches(first, 0):
                out.errors.append(f"set-up call {k} differs from the "
                                  f"serial reference")
            del pool_ms[len(latencies):]  # the set-up call's pool time

            start = time.perf_counter()
            stop = start + (seconds * (1 - SERIAL_SHARE if trace else 1)
                            / SETUP_REPEATS)
            while time.perf_counter() < stop:
                index = out.attempted % DISTINCT_BLOCKS
                t0 = time.perf_counter()
                result = runtime.infer(network, blocks[index])
                latencies.append((time.perf_counter() - t0) * 1e3)
                out.attempted += 1
                if not matches(result, index):
                    out.wrong(f"call {out.attempted}: block {index} "
                              f"differs from the serial reference")
            elapsed += time.perf_counter() - start
        rss = self_peak_rss_mb() + sum(
            peak_rss_mb(child.pid)
            for child in multiprocessing.active_children()
        )
        workers_seen = len(multiprocessing.active_children())
    finally:
        InferencePool.infer_rows = original_infer_rows
        if runtime is not None:
            runtime.close()
    serial_ms = []
    if trace:
        # The serial kernel on the same blocks, after the pool is gone so
        # its workers' BLAS threads cannot slow it.
        stop = time.perf_counter() + seconds * SERIAL_SHARE
        while time.perf_counter() < stop:
            t0 = time.perf_counter()
            serial.forward_rows(rows[len(serial_ms) % DISTINCT_BLOCKS])
            serial_ms.append((time.perf_counter() - t0) * 1e3)

    out.info.update({
        "loop": "closed, 1 caller",
        "op": f"SushiRuntime.infer on a ({STEPS}, {BLOCK_SAMPLES}, "
              f"{network.in_features}) block, max_workers={WORKERS}",
        "pool_processes_at_end": workers_seen,
        "setup_s_samples": setups,
    })
    latency = out.latency(latencies, TAIL_PERCENTILE)
    if not trace:
        good = out.attempted - out.failed
        out.metrics = {
            "throughput_per_s": good * BLOCK_SAMPLES / elapsed,
            **latency,
            "peak_rss_mb": rss,
            "setup_s": median(setups),
        }
        return out
    if len(pool_ms) != len(latencies):
        out.errors.append(f"{len(pool_ms)} pool calls for "
                          f"{len(latencies)} infer calls")
        return out
    overhead_ms = [t - p for t, p in zip(latencies, pool_ms)]
    out.metrics = {
        "ssnn.compile.forward_rows_ms": median(serial_ms),
        "ssnn.pool.infer_rows_ms": median(pool_ms),
        "ssnn.pool.speedup": median(serial_ms) / median(pool_ms),
        "ssnn.pool.restarts": sum(pool.restarts for pool in pools),
        "ssnn.runtime.overhead_ms": median(overhead_ms),
    }
    out.info["traced_latency_p50_ms"] = latency["latency_p50_ms"]
    out.info["stages_mean_ms"] = {
        "op": mean(latencies),
        "ssnn.pool.infer_rows": mean(pool_ms),
        "ssnn.runtime.overhead": mean(overhead_ms),
    }
    return out
