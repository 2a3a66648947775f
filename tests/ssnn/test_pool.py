"""Tests for the supervised shared-memory pool (:mod:`repro.ssnn.pool`).

The pool is a pure performance transform: every test here pins
``InferencePool.infer_rows`` bit-for-bit against the serial
``CompiledNetwork.forward_rows``, across shard counts, row-block sizes
and buffer growth -- including under supervision events (worker death,
freezes, poison quarantine), which must never change an answer, only
the wall-clock and the ``restarts`` counter.  The same holds for the
guarded pool-or-serial step (:class:`GuardedPool`) that the runtime,
the server and the cluster nodes share.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.harness import random_binarized_network, random_spike_trains
from repro.harness.chaos import FreezeHook, KillHook
from repro.serve import CircuitBreaker
from repro.ssnn import (
    InferencePool,
    InferencePoolError,
    PoisonBatchError,
    SushiRuntime,
    compile_network,
    pool as pool_module,
)
from repro.ssnn.pool import GuardedPool, _blas_threads
from tests.serve.test_server import _StubPool
from tests.ssnn.test_compile import BAD_SPIKES

CHIP_N = 4
SC = 8
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(21)
    network = random_binarized_network(rng, sizes=(12, 9, 5), sc_per_npe=SC)
    return compile_network(network, CHIP_N, SC)


def rows_for(compiled, n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, compiled.in_features)) < 0.4).astype(np.float64)


def spawn_stubs(monkeypatch, *script):
    """Make every pool a :class:`GuardedPool` spawns a 2-worker
    ``_StubPool`` running ``script``; returns the list of those spawned."""
    spawned = []

    def build(compiled, workers):
        assert workers == 2
        spawned.append(_StubPool(compiled, script))
        return spawned[-1]

    monkeypatch.setattr(pool_module, "InferencePool", build)
    return spawned


def assert_forward_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def runtime_workload(seed):
    """A small network, its spike trains and the serial runtime result."""
    rng = np.random.default_rng(seed)
    network = random_binarized_network(rng, sizes=(10, 7, 4), sc_per_npe=SC)
    trains = random_spike_trains(rng, 3, 8, 10)
    serial = SushiRuntime(
        chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
    ).infer(network, trains)
    return network, trains, serial


class BlasThreadsHook:
    """Chaos hook writing the BLAS threads in force in each worker to
    ``<directory>/slot-<slot>``."""

    def __init__(self, directory: str):
        self.directory = directory

    def __call__(self, slot, job, epoch, shard, in_name, out_name):
        Path(self.directory, f"slot-{slot}").write_text(
            str(_blas_threads())
        )


class TaskLog:
    """Chaos hook recording every task a worker starts as an empty file
    ``<directory>/job-<job>-shard-<shard>``."""

    def __init__(self, directory: str):
        self.directory = directory

    def __call__(self, slot, job, epoch, shard, in_name, out_name):
        Path(self.directory, f"job-{job}-shard-{shard}").touch()


class TestShards:
    def test_shards_cover_and_balance(self):
        for n_rows in (0, 1, 2, 7, 16):
            for parts in (1, 2, 5):
                shards = InferencePool._shards(n_rows, parts)
                flat = [i for s, e in shards for i in range(s, e)]
                assert flat == list(range(n_rows))
                sizes = [e - s for s, e in shards]
                if sizes:
                    assert max(sizes) - min(sizes) <= 1


class TestPoolEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_serial(self, compiled, workers):
        rows = rows_for(compiled, 17, seed=workers)
        want_dec, want_spur, want_syn = compiled.forward_rows(rows)
        with InferencePool(compiled, workers=workers) as pool:
            got_dec, got_spur, got_syn = pool.infer_rows(rows)
        assert np.array_equal(got_dec, want_dec)
        assert got_spur == want_spur
        assert got_syn == want_syn

    def test_empty_and_single_row_blocks(self, compiled):
        with InferencePool(compiled, workers=2) as pool:
            dec, spur, syn = pool.infer_rows(rows_for(compiled, 0))
            assert dec.shape == (0, compiled.out_features)
            assert (spur, syn) == (0, 0)
            rows = rows_for(compiled, 1, seed=5)
            want = compiled.forward_rows(rows)
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    def test_buffers_grow_and_results_stay_exact(self, compiled):
        with InferencePool(compiled, workers=2) as pool:
            for n in (2, 8, 64, 3, 128):
                rows = rows_for(compiled, n, seed=n)
                want = compiled.forward_rows(rows)
                got = pool.infer_rows(rows)
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]

    @pytest.mark.parametrize("value", BAD_SPIKES)
    def test_refuses_values_other_than_0_or_1(self, compiled, value,
                                              tmp_path):
        """A bad value is found while the rows are packed, before any
        task is dispatched: no worker sees the block, nothing is left
        stale, and the next block is answered as before."""
        good = rows_for(compiled, 16, seed=7)
        bad = good.copy()
        bad[5, 2] = value
        with InferencePool(compiled, workers=2,
                           chaos_hook=TaskLog(str(tmp_path))) as pool:
            assert_forward_equal(pool.infer_rows(good),
                                 compiled.forward_rows(good))
            with pytest.raises(ConfigurationError, match="0 or 1"):
                pool.infer_rows(bad)
            assert pool.restarts == 0
            assert pool._stale_tasks == 0
            after = rows_for(compiled, 16, seed=8)
            assert_forward_equal(pool.infer_rows(after),
                                 compiled.forward_rows(after))
        jobs = {path.name.split("-")[1] for path in tmp_path.iterdir()}
        assert jobs == {"0", "2"}  # job 1, the bad block, never ran

    def test_rejects_bad_row_shapes(self, compiled):
        with InferencePool(compiled, workers=1) as pool:
            with pytest.raises(ConfigurationError):
                pool.infer_rows(
                    np.zeros((3, compiled.in_features + 2))
                )


class TestPoolLifecycle:
    def test_close_is_idempotent_and_rejects_work(self, compiled):
        pool = InferencePool(compiled, workers=1)
        pool.close()
        pool.close()
        assert pool.closed
        assert pool.alive_workers() == 0
        with pytest.raises(InferencePoolError):
            pool.infer_rows(rows_for(compiled, 2))

    def test_dead_worker_is_resurrected(self, compiled):
        """A worker that died while idle is respawned at call start and
        the call answers bit-identically (the old pool failed here)."""
        rows = rows_for(compiled, 6, seed=3)
        want = compiled.forward_rows(rows)
        pool = InferencePool(
            compiled, workers=2, result_timeout_s=30.0
        )
        try:
            pool._procs[0].terminate()
            pool._procs[0].join(timeout=5.0)
            assert pool.alive_workers() == 1
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.alive_workers() == 2
            assert pool.restarts >= 1
        finally:
            pool.close()

    def test_dead_idle_workers_heal_at_next_call(self, compiled):
        """Both workers dying between calls are respawned by the next
        call, which still answers bit-identically."""
        rows = rows_for(compiled, 12, seed=4)
        want = compiled.forward_rows(rows)
        pool = InferencePool(compiled, workers=2)
        try:
            for proc in pool._procs:
                proc.terminate()
                proc.join(timeout=5.0)
            assert pool.alive_workers() == 0
            assert_forward_equal(pool.infer_rows(rows), want)
            assert pool.restarts == 2
            assert pool.alive_workers() == 2
        finally:
            pool.close()
        assert pool.alive_workers() == 0  # closed pool stays down

    def test_close_races_in_flight_infer(self, compiled):
        """close() concurrent with an in-flight infer_rows: the call
        completes (bit-identically) and the pool ends up closed."""
        rows = rows_for(compiled, 96, seed=9)
        want = compiled.forward_rows(rows)
        pool = InferencePool(compiled, workers=2)
        results = {}

        def work():
            try:
                results["got"] = pool.infer_rows(rows)
            except InferencePoolError as exc:
                results["error"] = exc

        thread = threading.Thread(target=work)
        thread.start()
        pool.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert pool.closed
        if "got" in results:  # the call won the race
            assert np.array_equal(results["got"][0], want[0])
            assert results["got"][1:] == want[1:]
        else:  # close() won: the call failed loudly, never silently
            assert isinstance(results["error"], InferencePoolError)

    def test_failed_construction_reaps_started_workers(
        self, compiled, monkeypatch
    ):
        """A spawn failing part-way through construction must not leave
        the workers already started running (a caller that cannot build
        its pool serves serially, and would never reap them)."""
        spawn = InferencePool._spawn

        def spawn_fails_for_slot_1(pool, slot):
            if slot == 1:
                raise OSError("chaos: cannot start worker 1")
            return spawn(pool, slot)

        monkeypatch.setattr(InferencePool, "_spawn", spawn_fails_for_slot_1)
        before = set(multiprocessing.active_children())
        with pytest.raises(OSError):
            InferencePool(compiled, workers=2)
        started = [proc for proc in multiprocessing.active_children()
                   if proc not in before]
        try:
            for proc in started:
                proc.join(timeout=5.0)
            assert [proc.name for proc in started if proc.is_alive()] == []
        finally:
            for proc in started:
                proc.kill()
                proc.join(timeout=5.0)

    def test_validates_construction(self, compiled):
        with pytest.raises(ConfigurationError):
            InferencePool(compiled, workers=0)
        with pytest.raises(ConfigurationError):
            InferencePool(compiled, workers=1, result_timeout_s=0)

    def test_repr_mentions_plan(self, compiled):
        with InferencePool(compiled, workers=1) as pool:
            assert compiled.fingerprint[:12] in repr(pool)
        assert "closed" in repr(pool)


class TestPoolBlasThreads:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_run_with_the_blas_cap(
        self, compiled, tmp_path, workers
    ):
        """Each worker caps OpenBLAS so the workers share the usable
        cores; the parent's own BLAS threads stay as they were."""
        parent_threads = _blas_threads()
        if parent_threads is None:
            pytest.skip("no OpenBLAS with a thread-count API is loaded")
        hook = BlasThreadsHook(str(tmp_path))
        with InferencePool(compiled, workers=workers, chaos_hook=hook) as pool:
            pool.infer_rows(rows_for(compiled, 3 * workers))
        want = max(1, len(os.sched_getaffinity(0)) // workers)
        seen = {path.name: int(path.read_text())
                for path in tmp_path.iterdir()}
        assert seen == {f"slot-{slot}": want for slot in range(workers)}
        assert _blas_threads() == parent_threads


class TestPoolSupervision:
    """Mid-batch chaos: supervision may only change wall-clock and the
    restart counter, never an answer (see repro.harness.chaos for the
    full campaign; these are the fast in-suite checks)."""

    def test_kill_mid_batch_recovers_bit_identical(
        self, compiled, tmp_path
    ):
        rows = rows_for(compiled, 24, seed=41)
        want = compiled.forward_rows(rows)
        hook = KillHook(str(tmp_path), budget=1)
        with InferencePool(
            compiled, workers=2, chaos_hook=hook, result_timeout_s=30.0
        ) as pool:
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert hook.fired() == 1
            assert pool.restarts >= 1
            assert pool.alive_workers() == 2

    def test_frozen_worker_is_force_killed(self, compiled, tmp_path):
        rows = rows_for(compiled, 12, seed=42)
        want = compiled.forward_rows(rows)
        hook = FreezeHook(str(tmp_path), budget=1, sleep_s=30.0)
        with InferencePool(
            compiled, workers=2, chaos_hook=hook, result_timeout_s=0.5
        ) as pool:
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.restarts >= 1
            assert pool.alive_workers() == 2

    def test_poison_batch_quarantined_and_pool_survives(
        self, compiled, tmp_path
    ):
        rows = rows_for(compiled, 10, seed=43)
        want = compiled.forward_rows(rows)
        hook = KillHook(str(tmp_path), budget=4)
        with InferencePool(
            compiled, workers=2, chaos_hook=hook, result_timeout_s=30.0
        ) as pool:
            with pytest.raises(PoisonBatchError):
                pool.infer_rows(rows)
            # Quarantine healed the pool before raising.
            assert pool.alive_workers() == 2
            # PoisonBatchError is an InferencePoolError: every existing
            # degrade path already catches it.
            assert issubclass(PoisonBatchError, InferencePoolError)
            # Once the chaos budget is spent the same block serves fine
            # (at most one stray permit survives the quarantined call).
            for _ in range(3):
                try:
                    got = pool.infer_rows(rows)
                    break
                except PoisonBatchError:
                    continue
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.alive_workers() == 2

    def test_workers_killed_after_replying_never_wedge_the_pool(
        self, compiled
    ):
        """Stress: SIGKILL every worker right after each call.  A worker
        may die before it has released what carried its reply; with a
        result channel per worker that blocks no other worker, so every
        next call respawns the workers and answers bit-identically
        instead of waiting out two progress deadlines and ending as
        PoisonBatchError."""
        rows = rows_for(compiled, 8, seed=44)
        want = compiled.forward_rows(rows)
        with InferencePool(
            compiled, workers=2, result_timeout_s=5.0
        ) as pool:
            for _ in range(25):
                got = pool.infer_rows(rows)
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]
                for proc in pool._procs:
                    proc.kill()
                for proc in pool._procs:
                    proc.join(timeout=5.0)
            assert pool.restarts == 2 * 24  # both, before calls 2..25

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_rows=st.integers(min_value=1, max_value=40),
        workers=st.integers(min_value=1, max_value=3),
        kills=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_shard_retry_recovery_is_bit_identical(
        self, compiled, tmp_path_factory, n_rows, workers, kills, seed
    ):
        """Property: for random batch shapes and kill points, recovery
        returns exactly the serial answer."""
        rows = rows_for(compiled, n_rows, seed=seed)
        want = compiled.forward_rows(rows)
        marker_dir = tmp_path_factory.mktemp("chaos")
        hook = KillHook(str(marker_dir), budget=kills)
        with InferencePool(
            compiled, workers=workers, chaos_hook=hook,
            result_timeout_s=30.0,
        ) as pool:
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.alive_workers() == workers


class TestRuntimeIntegration:
    def test_persistent_pool_runtime_matches_serial(self):
        rng = np.random.default_rng(31)
        network = random_binarized_network(
            rng, sizes=(10, 7, 4), sc_per_npe=SC
        )
        trains = random_spike_trains(rng, 3, 8, 10)
        serial = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        ).infer(network, trains)
        with SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, max_workers=2, plan_cache=None,
        ) as runtime:
            pooled = runtime.infer(network, trains)
            # The pool persists across calls on the same runtime.
            again = runtime.infer(network, trains)
        assert np.array_equal(pooled.output_raster, serial.output_raster)
        assert pooled.spurious_decisions == serial.spurious_decisions
        assert pooled.synaptic_ops == serial.synaptic_ops
        assert pooled.reload_events == serial.reload_events
        assert np.array_equal(again.output_raster, serial.output_raster)

    def test_runtime_keeps_pool_on_poison_batch(self, monkeypatch):
        """PoisonBatchError routes the block serially *without* tearing
        the pool down, and counts as a breaker success."""
        network, trains, serial = runtime_workload(33)
        spawned = spawn_stubs(monkeypatch, "poison", "poison")
        runtime = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, max_workers=2, plan_cache=None,
        )
        try:
            poisoned = runtime.infer(network, trains)
            guard = runtime._guard
            assert guard.pool is spawned[0]  # the pool was NOT dropped
            assert guard.breaker.state == "closed"
            assert guard.stats()["poison_batches"] == 1
            runtime.infer(network, trains)
            assert len(spawned) == 1 and guard.pool is spawned[0]
        finally:
            runtime.close()
        assert spawned[0].calls >= 1
        assert np.array_equal(
            poisoned.output_raster, serial.output_raster
        )
        assert poisoned.synaptic_ops == serial.synaptic_ops

    def test_runtime_keeps_pool_on_pool_failure(self, monkeypatch):
        """A pool error runs the block serially, counts against the
        runtime's breaker and keeps the same pool."""
        network, trains, serial = runtime_workload(34)
        spawned = spawn_stubs(monkeypatch, "fail")
        runtime = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, max_workers=2, plan_cache=None,
        )
        try:
            failed = runtime.infer(network, trains)
            guard = runtime._guard
            assert len(spawned) == 1 and guard.pool is spawned[0]
            assert guard.breaker.snapshot().consecutive_failures == 1
            assert guard.stats()["pool_failures"] == 1
            again = runtime.infer(network, trains)
            assert len(spawned) == 1 and spawned[0].calls == 2
            assert guard.breaker.snapshot().consecutive_failures == 0
        finally:
            runtime.close()
        for result in (failed, again):
            assert np.array_equal(result.output_raster, serial.output_raster)
            assert result.spurious_decisions == serial.spurious_decisions
            assert result.synaptic_ops == serial.synaptic_ops

    def test_runtime_degrades_to_serial_when_pool_dies(self):
        rng = np.random.default_rng(32)
        network = random_binarized_network(
            rng, sizes=(10, 7, 4), sc_per_npe=SC
        )
        trains = random_spike_trains(rng, 3, 8, 10)
        serial = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        ).infer(network, trains)
        with SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, max_workers=2, plan_cache=None,
        ) as runtime:
            first = runtime.infer(network, trains)
            # Kill the pool workers behind the runtime's back.
            for proc in runtime._guard.pool._procs:
                proc.terminate()
                proc.join(timeout=5.0)
            healed = runtime.infer(network, trains)
        assert np.array_equal(first.output_raster, serial.output_raster)
        assert np.array_equal(healed.output_raster, serial.output_raster)
        assert healed.synaptic_ops == serial.synaptic_ops


class TestGuardedPool:
    def test_row_rule_boundary(self, compiled):
        """A block of ``2 x workers - 1`` rows never reaches the pool; a
        block of ``2 x workers`` rows does."""
        guard = GuardedPool(compiled, workers=2)
        stub = guard.pool = _StubPool(compiled, [])
        small = rows_for(compiled, 3, seed=1)
        assert_forward_equal(guard.forward(small),
                             compiled.forward_rows(small))
        assert stub.calls == 0
        large = rows_for(compiled, 4, seed=2)
        assert_forward_equal(guard.forward(large),
                             compiled.forward_rows(large))
        assert stub.calls == 1

    @pytest.mark.parametrize("value", BAD_SPIKES)
    def test_bad_values_never_reach_a_worker_or_fail_the_pool(
        self, compiled, value, tmp_path
    ):
        """The pool refuses a bad block before dispatching it; the guard
        counts that as the block's fault, so a closed breaker stays
        closed and a half-open one resolves its probe instead of
        waiting on it forever."""
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: now[0])
        guard = GuardedPool(compiled, workers=2, breaker=breaker)
        guard.pool = InferencePool(compiled, workers=2,
                                   chaos_hook=TaskLog(str(tmp_path)))
        try:
            bad = rows_for(compiled, 6, seed=9)
            bad[4, 1] = value
            with pytest.raises(ConfigurationError, match="0 or 1"):
                guard.forward(bad)
            assert breaker.state == "closed"
            breaker.record_failure()  # open; half-open after the cool-down
            now[0] += 6.0
            with pytest.raises(ConfigurationError, match="0 or 1"):
                guard.forward(bad)
            assert breaker.state == "closed"
            assert breaker.snapshot().probes == 1
            good = rows_for(compiled, 6, seed=10)
            assert_forward_equal(guard.forward(good),
                                 compiled.forward_rows(good))
            assert guard.stats()["pool_failures"] == 0
            assert guard.pool.restarts == 0
        finally:
            guard.close()
        jobs = {path.name.split("-")[1] for path in tmp_path.iterdir()}
        assert jobs == {"2"}  # jobs 0 and 1, the bad blocks, never ran

    def test_small_block_leaves_the_half_open_probe(self, compiled):
        """The row rule is checked before ``allow()``: a small block in
        half-open runs serially without taking the probe, so the next
        large block still probes the pool and closes the breaker."""
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: now[0])
        guard = GuardedPool(compiled, workers=2, breaker=breaker)
        stub = guard.pool = _StubPool(compiled, ["fail"])
        tripping = rows_for(compiled, 6, seed=3)
        assert_forward_equal(guard.forward(tripping),
                             compiled.forward_rows(tripping))
        assert breaker.state == "open"
        now[0] += 6.0
        probes = breaker.snapshot().probes
        one = rows_for(compiled, 1, seed=4)
        assert_forward_equal(guard.forward(one), compiled.forward_rows(one))
        assert breaker.state == "half-open"
        assert breaker.snapshot().probes == probes
        assert stub.calls == 1
        six = rows_for(compiled, 6, seed=5)
        assert_forward_equal(guard.forward(six), compiled.forward_rows(six))
        assert stub.calls == 2
        assert breaker.snapshot().probes == probes + 1
        assert breaker.state == "closed"
        assert guard.stats()["pool_failures"] == 1


#: Builds a 2-worker pool and SIGINTs both workers straight away, ten
#: times; prints the total worker restarts.
SIGINT_PROBE = """
import os, signal
import numpy as np
from repro.harness.differential import random_binarized_network
from repro.ssnn import InferencePool, compile_network

network = random_binarized_network(
    np.random.default_rng(21), sizes=(12, 9, 5), sc_per_npe=8)
compiled = compile_network(network, 4, 8)
rows = (np.random.default_rng(0).random((8, compiled.in_features))
        < 0.4).astype(np.float64)
restarts = 0
for _ in range(10):
    with InferencePool(compiled, workers=2) as pool:
        for proc in pool._procs:
            os.kill(proc.pid, signal.SIGINT)
        pool.infer_rows(rows)
        restarts += pool.restarts
print(restarts)
"""


def test_sigint_during_worker_start_is_ignored():
    """A Ctrl-C that lands while a worker is still starting up neither
    raises KeyboardInterrupt in it nor costs a respawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", SIGINT_PROBE], capture_output=True,
        text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "KeyboardInterrupt" not in done.stderr
    assert done.stdout.strip() == "0"
