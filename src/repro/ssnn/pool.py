"""Supervised persistent shared-memory inference pool (serving tier 2).

The interim multi-core path spawned a ``ProcessPoolExecutor`` *per
``infer()`` call* and pickled the full layer list once per row chunk --
for a serving workload that is pure overhead on the hot path.
:class:`InferencePool` inverts the lifecycle:

* **Workers spawn once.**  Each worker receives the pickled
  :class:`~repro.ssnn.compile.CompiledNetwork` exactly once, at start-up
  (the compile-once artifact is the only thing that ever crosses the
  process boundary by value).
* **Row blocks travel by shared memory.**  Every call writes the input
  rows into a reusable ``multiprocessing.shared_memory`` segment, one
  ``bool`` per spike, and the workers write their decision shards into
  a shared output segment; the per-call queue traffic is a handful of
  tuples of ints -- zero pickling of weights or row data.
* **Scratch buffers persist.**  The input/output segments are
  preallocated and grown geometrically, so steady-state serving does no
  segment creation at all.
* **Workers share the cores.**  numpy's bundled OpenBLAS starts one
  thread per core in every process, so W workers would run W x cores
  BLAS threads and spin against each other.  Each worker caps its
  OpenBLAS at ``max(1, usable cores // W)`` threads before its first
  task (measured effect: ``docs/SERVING.md``, "Workers and BLAS
  threads").  Where no OpenBLAS with a thread API is loaded, workers
  run as the BLAS configures itself.

Row shards are independent, so worker count never changes results --
:meth:`InferencePool.infer_rows` is bit-identical to
:meth:`CompiledNetwork.forward_rows` (asserted by
``tests/ssnn/test_pool.py``).

Supervision (see ``docs/SERVING.md`` -- "Failure semantics")
------------------------------------------------------------

SUSHI's own evaluation leans on surviving physical failure modes (JJ
yield, flux trapping); the serving layer extends that discipline to
*process-level* chaos.  Each worker owns a private task queue, so the
parent always knows which shards a worker holds, and a private result
pipe, so a worker killed mid-write breaks only its own channel (which
its respawn replaces) and never a lock the other workers need:

* **Resurrection.**  A dead worker (crash, OOM-kill, SIGKILL) is
  detected by liveness polling during the result wait; the parent
  respawns it into the same slot (fresh queue and pipe, same pickled
  plan) and re-dispatches *only the missing shards* to the
  surviving/respawned workers.  Shard accounting is exactly-once per
  row block per epoch (a ``completed`` map keyed by shard index), so
  recovered results -- and their spurious/synops counters -- are
  provably bit-identical to a serial
  :meth:`CompiledNetwork.forward_rows` run.
* **Frozen workers.**  ``result_timeout_s`` is a *progress* deadline:
  if no shard lands within it, the workers still holding shards are
  force-killed (``SIGKILL`` -- a frozen/SIGSTOPped process ignores
  SIGTERM), respawned and their shards re-dispatched.
* **Poison quarantine.**  A row block whose execution kills workers in
  two separate recovery rounds is quarantined: the pool (already
  restored to full worker count) raises :class:`PoisonBatchError` and
  the caller routes that block to serial execution, keeping the pool
  for subsequent blocks.
* **Segment epoch guard.**  The input segment carries a 16-byte
  ``(job, epoch)`` header; workers validate it before computing and
  re-validate immediately before the only externally visible write.  A
  task surviving from an aborted job (a *zombie*) therefore cannot
  scribble into a successor's buffers.  Vanished/corrupted segments
  surface as retryable shard failures: the parent retires both
  segments, republishes the rows under a bumped epoch, and re-runs the
  whole block.
* **Stale-task drain.**  When a call aborts mid-flight, its
  unaccounted tasks are drained from the worker queues (and the result
  pipes) before the next call reuses the segments; anything still
  unaccounted after a short grace forces fresh segment names, so a
  recycled name can never be written by a zombie.

Zero-failure overhead of all of the above is a 16-byte header write per
call plus per-shard dict bookkeeping -- gated below 5% against the
pre-supervision pool replica by ``benchmarks/test_supervision_overhead.py``.

The runtime, the serving layer and the cluster nodes reach the pool
through one :class:`GuardedPool`, which holds their shared policy: the
row rule, the circuit breaker and the serial fallback.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import pickle
import signal
import struct
import threading
import time
import weakref
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import Counters
from repro.ssnn.compile import CompiledNetwork, spike_rows

#: Bytes reserved at the head of the input segment for the packed
#: ``(job, epoch)`` guard workers validate before computing/writing.
_HEADER = 16

#: Worker-death recovery rounds tolerated per row block before the block
#: is quarantined as poison ("kills workers twice" -> quarantine).
_MAX_KILL_ROUNDS = 2

#: Segment republish rounds tolerated per row block (vanished/corrupted
#: shared memory) before the call fails.
_MAX_SEGMENT_ROUNDS = 3


class InferencePoolError(RuntimeError):
    """The pool cannot serve (worker died, closed pool, bad shard).

    Derives from :class:`RuntimeError`, so :data:`POOL_ERRORS` covers
    it.
    """


class PoisonBatchError(InferencePoolError):
    """A row block killed pool workers in two recovery rounds.

    The pool has already been restored to its full worker count when
    this is raised; the *block* is the suspect, not the pool.
    :meth:`GuardedPool.forward` runs the quarantined block serially --
    bit-identical, only slower -- and keeps using the pool for
    subsequent blocks.
    """


#: Pool errors that send a block to serial execution: a missing or
#: forbidden multiprocessing stack, and mid-run pool failures
#: (:class:`InferencePoolError` is a RuntimeError).
POOL_ERRORS = (ImportError, OSError, PermissionError, RuntimeError)


def _attach_shm(name: str):
    """Attach to an existing shared-memory segment without letting the
    resource tracker adopt it (the creator owns the unlink; a tracked
    attachment in a worker would trigger spurious leak warnings and
    double unlinks at interpreter shutdown)."""
    from multiprocessing import shared_memory

    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Older interpreters: suppress the tracker registration during
        # attach.  (Unregistering *after* the fact would clobber the
        # creator's registration too -- fork-context workers share the
        # tracker daemon with the parent.)
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        try:
            resource_tracker.register = lambda *a, **k: None
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _pack_guard(job: int, epoch: int) -> bytes:
    return struct.pack("<QQ", job & 0xFFFFFFFFFFFFFFFF, epoch)


def _worker_blas_threads(workers: int) -> int:
    """BLAS threads per worker so ``workers`` workers share the usable
    cores (this process's CPU affinity) instead of each starting one
    thread per core."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // workers)


def _openblas_thread_api(path: str):
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS build at
    ``path`` with their C signatures declared, or ``None``."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for pattern in ("scipy_openblas_{}64_", "scipy_openblas_{}",
                    "openblas_{}64_", "openblas_{}"):
        getter = getattr(lib, pattern.format("get_num_threads"), None)
        setter = getattr(lib, pattern.format("set_num_threads"), None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


def _blas_threads(cap: Optional[int] = None) -> Optional[int]:
    """Threads in force in the OpenBLAS libraries this process has
    loaded, after capping every one of them at ``cap`` when given.

    numpy's wheels bundle OpenBLAS (as ``scipy_openblas``), which runs
    one thread per host core by default; ``/proc/self/maps`` names the
    loaded libraries on Linux.  Returns the largest count in force, or
    ``None`` -- having changed nothing -- when no OpenBLAS with a
    thread-count API is loaded or the maps cannot be read.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    in_force = None
    for path in paths:
        api = _openblas_thread_api(path)
        if api is None:
            continue
        getter, setter = api
        if cap is not None:
            setter(cap)
        in_force = max(in_force or 0, getter())
    return in_force


def _worker_main(slot, payload, tasks, results, blas_threads,
                 chaos_hook=None) -> None:
    """Worker loop: cap this process's BLAS threads at ``blas_threads``,
    deserialize the compiled plan once, then serve row shards from this
    slot's private queue until the ``None`` sentinel.

    Results go to the parent over this worker's private pipe ``results``
    as ``(job, epoch, shard, spurious, synops, status, msg)``
    with ``status`` one of ``"ok"`` (shard done), ``"shm"`` (segment
    vanished -- retryable), ``"stale"`` (epoch guard mismatch -- the
    task outlived its job) or ``"error"`` (execution failed).

    Workers ignore SIGINT: a terminal's Ctrl-C reaches the whole
    process group, and only the parent decides when the pool closes.
    The worker starts with SIGINT blocked (see
    :meth:`InferencePool._spawn`), so one that lands during start-up
    stays pending and is discarded here, when the handler becomes
    ``SIG_IGN``, before SIGINT is unblocked.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    _blas_threads(cap=blas_threads)
    compiled: CompiledNetwork = pickle.loads(payload)
    while True:
        task = tasks.get()
        if task is None:
            return
        (job, epoch, shard, in_name, shape, out_name, start, end) = task
        guard = _pack_guard(job, epoch)
        try:
            if chaos_hook is not None:
                chaos_hook(slot, job, epoch, shard, in_name, out_name)
            try:
                shm_in = _attach_shm(in_name)
            except FileNotFoundError:
                results.send((job, epoch, shard, 0, 0, "shm",
                              f"input segment {in_name} vanished"))
                continue
            try:
                if bytes(shm_in.buf[:_HEADER]) != guard:
                    results.send((job, epoch, shard, 0, 0, "stale",
                                  "input epoch guard mismatch"))
                    continue
                rows = np.ndarray(
                    tuple(shape), dtype=np.bool_,
                    buffer=shm_in.buf, offset=_HEADER,
                )
                decisions, spurious, synops = compiled.forward_rows(
                    rows[start:end]
                )
                del rows
                try:
                    shm_out = _attach_shm(out_name)
                except FileNotFoundError:
                    results.send((job, epoch, shard, 0, 0, "shm",
                                  f"output segment {out_name} vanished"))
                    continue
                try:
                    # Re-validate immediately before the only externally
                    # visible write: a zombie task of an aborted job must
                    # never scribble into a successor's buffers.
                    if bytes(shm_in.buf[:_HEADER]) != guard:
                        results.send((job, epoch, shard, 0, 0, "stale",
                                      "input epoch guard changed mid-task"))
                        continue
                    out = np.ndarray(
                        (shape[0], compiled.out_features),
                        dtype=np.float64,
                        buffer=shm_out.buf,
                    )
                    out[start:end] = decisions
                    del out
                finally:
                    shm_out.close()
            finally:
                shm_in.close()
            results.send((job, epoch, shard, spurious, synops, "ok", None))
        except Exception as exc:  # surface the traceback to the parent
            import traceback

            results.send((job, epoch, shard, 0, 0, "error",
                          f"{exc}\n{traceback.format_exc()}"))


def _shutdown(procs, task_queues, result_readers, segments) -> None:
    """Finalizer-safe teardown: sentinel the workers, reap them, close
    their result pipes, unlink any surviving shared-memory segments.
    ``procs`` / ``task_queues`` / ``result_readers`` are mutated in place
    by respawns, so the finalizer always sees the current generation."""
    for tasks in list(task_queues):
        try:
            tasks.put_nowait(None)
        except Exception:
            pass
    deadline = time.monotonic() + 2.0
    for proc in list(procs):
        try:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()  # SIGKILL: reaps frozen (SIGSTOPped) workers too
                proc.join(timeout=1.0)
        except Exception:
            pass
    for tasks in list(task_queues):
        try:
            tasks.close()
            tasks.cancel_join_thread()
        except Exception:
            pass
    for reader in list(result_readers):
        if reader is not None:
            reader.close()
    for shm in list(segments):
        if shm is None:
            continue
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
    segments.clear()


class InferencePool:
    """A supervised, persistent worker pool executing one compiled plan.

    Args:
        compiled: The :class:`~repro.ssnn.compile.CompiledNetwork` every
            worker executes (shipped once, at spawn).
        workers: Worker process count (>= 1).
        result_timeout_s: Progress deadline: maximum wait without any
            shard landing before the workers still holding shards are
            presumed frozen, force-killed and respawned.
        chaos_hook: Optional picklable callable
            ``(slot, job, epoch, shard, in_name, out_name)`` executed in
            the worker before each task -- fault-injection
            instrumentation for the chaos harness
            (:mod:`repro.harness.chaos`); leave ``None`` in production.

    Thread safety: one in-flight :meth:`infer_rows` at a time (guarded
    by an internal lock) -- the serving layer funnels batches through a
    single dispatcher thread anyway.

    Supervision surface: :meth:`alive_workers`, :attr:`restarts` (dead
    workers are respawned at the start of the next call) and
    :class:`PoisonBatchError` for quarantined row blocks.
    """

    def __init__(
        self,
        compiled: CompiledNetwork,
        workers: int = 2,
        result_timeout_s: float = 60.0,
        chaos_hook: Optional[Callable] = None,
    ):
        import multiprocessing as mp

        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if result_timeout_s <= 0:
            raise ConfigurationError("result_timeout_s must be > 0")
        self.compiled = compiled
        self.workers = workers
        self.result_timeout_s = result_timeout_s
        self._ctx = mp.get_context()
        self._lock = threading.Lock()
        self._jobs = itertools.count()
        self._segments: List = []  # [input shm, output shm] when allocated
        self._segment_gen = itertools.count()
        self._closed = False
        self._restarts = 0
        self._stale_tasks = 0
        self._rr = 0  # round-robin dispatch cursor
        self._chaos_hook = chaos_hook
        self._blas_threads = _worker_blas_threads(workers)
        self._payload = pickle.dumps(
            compiled, protocol=pickle.HIGHEST_PROTOCOL
        )
        self._procs: List = []
        self._task_queues: List = []
        self._result_readers: List = []  # None once a worker's pipe hit EOF
        # GC / interpreter-exit safety net; explicit close() is preferred.
        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._task_queues,
            self._result_readers, self._segments,
        )
        try:
            for slot in range(workers):
                proc, tasks, reader = self._spawn(slot)
                self._procs.append(proc)
                self._task_queues.append(tasks)
                self._result_readers.append(reader)
        except BaseException:
            self._finalizer()  # reap the workers already started
            raise

    # -- workers -------------------------------------------------------------

    def _spawn(self, slot: int):
        """Start one worker into ``slot`` with a fresh private task queue
        and result pipe; returns ``(process, tasks, result reader)``."""
        tasks = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, self._payload, tasks, writer,
                  self._blas_threads, self._chaos_hook),
            daemon=True,
            name=f"sushi-infer-{slot}",
        )
        # The child inherits this thread's signal mask: with SIGINT
        # blocked across the fork, a Ctrl-C during the worker's start-up
        # stays pending until _worker_main ignores it.
        old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
        # The worker now holds the only write end, so its death reads as
        # EOF and can never leave a lock held that other workers need.
        writer.close()
        return proc, tasks, reader

    def _respawn_locked(self, slot: int, force_kill: bool = False) -> List:
        """Replace the worker in ``slot`` (dead or presumed frozen) with
        a fresh process + queue.  Returns the tasks drained out of the
        old queue so the caller can account/re-dispatch them.  A killed
        pool respawns nothing: the call in flight fails instead."""
        if self._closed:
            raise InferencePoolError("inference pool is closed")
        old_proc = self._procs[slot]
        try:
            if force_kill and old_proc.is_alive():
                old_proc.kill()  # SIGKILL beats SIGSTOP; terminate() doesn't
            old_proc.join(timeout=1.0)
        except Exception:
            pass
        old_queue = self._task_queues[slot]
        drained = []
        while True:
            try:
                task = old_queue.get_nowait()
            except Exception:
                break
            if task is not None:
                drained.append(task)
        try:
            old_queue.close()
            old_queue.cancel_join_thread()
        except Exception:
            pass
        # Results the old worker sent but nobody read are dropped with its
        # pipe; their shards are still missing, so they are re-dispatched.
        if self._result_readers[slot] is not None:
            self._result_readers[slot].close()
        proc, tasks, reader = self._spawn(slot)
        self._procs[slot] = proc
        self._task_queues[slot] = tasks
        self._result_readers[slot] = reader
        self._restarts += 1
        return drained

    def _supervise_locked(self) -> None:
        """Between calls: resurrect any worker that died while idle."""
        for slot, proc in enumerate(self._procs):
            if not proc.is_alive():
                for _task in self._respawn_locked(slot):
                    self._stale_tasks = max(0, self._stale_tasks - 1)

    # -- buffers -------------------------------------------------------------

    def _segment(self, index: int, nbytes: int):
        """Reusable shared segment ``index`` (0 = input, 1 = output),
        grown geometrically when too small.  Names embed a generation
        counter, so a retired name is never reissued."""
        from multiprocessing import shared_memory

        while len(self._segments) <= index:
            self._segments.append(None)
        current = self._segments[index]
        if current is not None and current.size >= nbytes:
            return current
        if current is not None:
            current.close()
            current.unlink()
        size = max(nbytes, 1)
        if current is not None:
            size = max(size, 2 * current.size)
        name = (f"sushi-pool-{os.getpid()}-{id(self) & 0xFFFFFF:x}-"
                f"{index}-{next(self._segment_gen)}")
        self._segments[index] = shared_memory.SharedMemory(
            name=name, create=True, size=size
        )
        return self._segments[index]

    def _retire_segments_locked(self) -> None:
        """Unlink both segments so the next call publishes under fresh
        names.  The input header is zeroed first, so any zombie task
        still attached fails its pre-write guard re-validation instead
        of scribbling."""
        for index, shm in enumerate(self._segments):
            if shm is None:
                continue
            try:
                if index == 0 and shm.size >= _HEADER:
                    shm.buf[:_HEADER] = b"\x00" * _HEADER
            except Exception:
                pass
            try:
                shm.close()
                shm.unlink()
            except Exception:
                pass
            self._segments[index] = None

    def _drain_stale_locked(self) -> None:
        """Resolve tasks left over from an aborted call before the
        segments are reused (see module docstring)."""
        if self._stale_tasks <= 0:
            return
        # 1. Pull never-started tasks straight back out of the queues.
        for tasks in self._task_queues:
            while self._stale_tasks > 0:
                try:
                    task = tasks.get_nowait()
                except Exception:
                    break
                if task is not None:
                    self._stale_tasks -= 1
        # 2. Give in-flight zombies a short grace to report.
        deadline = time.monotonic() + 0.25
        while self._stale_tasks > 0 and time.monotonic() < deadline:
            if self._next_result(0.05) is not None:
                self._stale_tasks -= 1
        # 3. Anything still unaccounted for may be executing against the
        # current segments: retire them, so a zombie write can only land
        # in memory nothing will ever read again.
        if self._stale_tasks > 0:
            self._retire_segments_locked()
            self._stale_tasks = 0

    @staticmethod
    def _shards(n_rows: int, parts: int) -> List[Tuple[int, int]]:
        """Balanced contiguous row ranges (like ``np.array_split``)."""
        parts = max(1, min(parts, n_rows))
        base, extra = divmod(n_rows, parts)
        ranges = []
        start = 0
        for i in range(parts):
            end = start + base + (1 if i < extra else 0)
            ranges.append((start, end))
            start = end
        return ranges

    def _next_result(self, timeout: float):
        """The next result any worker sent, or ``None`` when none arrives
        within ``timeout``.  A pipe at EOF (its worker died) is closed and
        skipped until the liveness checks respawn that slot; the wait
        goes on, so workers dying together are found in one check."""
        deadline = time.monotonic() + timeout
        while True:
            readers = [r for r in self._result_readers if r is not None]
            remaining = max(0.0, deadline - time.monotonic())
            ready = connection_wait(readers, remaining)
            for reader in ready:
                try:
                    return reader.recv()
                except (EOFError, OSError):
                    slot = self._result_readers.index(reader)
                    self._result_readers[slot] = None
                    reader.close()
            if not ready or time.monotonic() >= deadline:
                return None

    def _next_slot(self) -> int:
        slot = self._rr
        self._rr = (self._rr + 1) % self.workers
        return slot

    # -- execution -----------------------------------------------------------

    def infer_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Run a row block through the pool.

        Returns ``(decisions, spurious, synops)`` bit-identical to
        ``self.compiled.forward_rows(rows)`` -- including across worker
        deaths, freezes and segment loss, which are recovered
        transparently.  Raises :class:`ConfigurationError` for a value
        other than 0 or 1 before dispatching, :class:`PoisonBatchError`
        when the block itself keeps killing workers (run it serially) and
        :class:`InferencePoolError` for unrecoverable failures.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.compiled.in_features:
            raise ConfigurationError(
                f"expected (batch, {self.compiled.in_features}) rows, "
                f"got {rows.shape}"
            )
        if rows.shape[0] == 0:
            return (
                np.zeros((0, self.compiled.out_features)), 0, 0,
            )
        with self._lock:
            if self._closed:
                raise InferencePoolError("inference pool is closed")
            self._supervise_locked()
            self._drain_stale_locked()
            return self._run_block_locked(rows)

    def _run_block_locked(self, rows: np.ndarray):
        n_rows = rows.shape[0]
        out_shape = (n_rows, self.compiled.out_features)
        job = next(self._jobs)
        epoch = 0
        shards = self._shards(n_rows, self.workers)
        state: Dict[str, object] = {"in": None, "out": None}
        assignment: Dict[int, int] = {}  # shard -> worker slot
        completed: Dict[int, Tuple[int, int]] = {}  # exactly-once ledger
        kill_rounds = 0
        segment_rounds = 0

        def publish() -> None:
            """(Re)write rows as checked ``bool`` spikes + ``(job, epoch)``
            guard into the current segments (allocating/regrowing)."""
            shm_in = self._segment(0, _HEADER + rows.size)
            shm_out = self._segment(1, int(np.prod(out_shape)) * 8)
            spike_rows(rows, out=np.ndarray(
                rows.shape, np.bool_, buffer=shm_in.buf, offset=_HEADER
            ))
            shm_in.buf[:_HEADER] = _pack_guard(job, epoch)
            state["in"], state["out"] = shm_in, shm_out

        def dispatch(indices: Sequence[int]) -> None:
            for shard in indices:
                slot = self._next_slot()
                assignment[shard] = slot
                start, end = shards[shard]
                self._task_queues[slot].put((
                    job, epoch, shard, state["in"].name, tuple(rows.shape),
                    state["out"].name, start, end,
                ))

        def recover_workers(slots: Sequence[int], force_kill: bool) -> None:
            """Respawn the given slots, re-dispatching only the missing
            shards they held.  Second recovery round -> poison."""
            nonlocal kill_rounds
            kill_rounds += 1
            suspects = set(slots)
            for slot in sorted(suspects):
                for task in self._respawn_locked(slot, force_kill=force_kill):
                    if task[0] != job:
                        self._stale_tasks = max(0, self._stale_tasks - 1)
            if kill_rounds >= _MAX_KILL_ROUNDS:
                # The pool is whole again; the block is the suspect.
                raise PoisonBatchError(
                    f"row block ({n_rows} rows) killed pool workers in "
                    f"{kill_rounds} recovery rounds; quarantined -- run "
                    "this block serially"
                )
            missing = [
                shard for shard in range(len(shards))
                if shard not in completed and assignment[shard] in suspects
            ]
            dispatch(missing)

        def republish(reason: str) -> None:
            """Segment vanished/corrupted: fresh names, bumped epoch,
            rerun the whole block (the ledger restarts with it)."""
            nonlocal epoch, segment_rounds
            segment_rounds += 1
            if segment_rounds >= _MAX_SEGMENT_ROUNDS:
                raise InferencePoolError(
                    f"shared-memory segments failed {segment_rounds} "
                    f"times for one row block:\n{reason}"
                )
            epoch += 1
            completed.clear()
            assignment.clear()
            self._retire_segments_locked()
            publish()
            dispatch(range(len(shards)))

        publish()
        dispatch(range(len(shards)))
        progress_deadline = time.monotonic() + self.result_timeout_s
        try:
            while len(completed) < len(shards):
                result = self._next_result(0.05)
                if result is None:
                    dead = [slot for slot, proc in enumerate(self._procs)
                            if not proc.is_alive()]
                    if dead:
                        recover_workers(dead, force_kill=False)
                    elif time.monotonic() > progress_deadline:
                        frozen = {
                            assignment[shard]
                            for shard in range(len(shards))
                            if shard not in completed
                        }
                        recover_workers(sorted(frozen), force_kill=True)
                    else:
                        continue
                    progress_deadline = (
                        time.monotonic() + self.result_timeout_s
                    )
                    continue
                (rjob, repoch, shard, spurious, synops, status,
                 message) = result
                if rjob != job:
                    # Leftover of an aborted earlier call.
                    self._stale_tasks = max(0, self._stale_tasks - 1)
                    continue
                if repoch != epoch or shard in completed:
                    continue  # superseded epoch / duplicate delivery
                if status == "ok":
                    completed[shard] = (spurious, synops)
                    progress_deadline = (
                        time.monotonic() + self.result_timeout_s
                    )
                elif status in ("shm", "stale"):
                    republish(str(message))
                    progress_deadline = (
                        time.monotonic() + self.result_timeout_s
                    )
                else:
                    raise InferencePoolError(
                        f"inference pool worker failed:\n{message}"
                    )
        except BaseException:
            # Whatever was dispatched in the current epoch and never
            # resolved is now stale; the next call drains it before the
            # segments are reused.
            self._stale_tasks += len(shards) - len(completed)
            raise
        decisions = np.array(
            np.ndarray(out_shape, np.float64, buffer=state["out"].buf),
            copy=True,
        )
        total_spurious = sum(entry[0] for entry in completed.values())
        total_synops = sum(entry[1] for entry in completed.values())
        return decisions, total_spurious, total_synops

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def restarts(self) -> int:
        """Workers respawned over the pool's lifetime (0 = no failures)."""
        return self._restarts

    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def close(self) -> None:
        """Shut the workers down and release the shared segments.
        Idempotent, safe to call from ``finally`` blocks, and safe to
        race an in-flight :meth:`infer_rows` (it finishes first)."""
        with self._lock:
            self._closed = True
        self._finalizer()  # runs once, however often close() is called

    def kill(self) -> None:
        """SIGKILL every worker now, without waiting for a call in
        flight (a node's host dying).  The pool is closed from here on,
        so that call fails instead of respawning the workers; call
        :meth:`close` to release what is left."""
        self._closed = True
        for proc in list(self._procs):
            try:
                proc.kill()
            except Exception:
                pass

    def __enter__(self) -> "InferencePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.alive_workers()} alive"
        return (f"<InferencePool workers={self.workers} ({state}) "
                f"restarts={self._restarts} "
                f"plan={self.compiled.fingerprint[:12]}>")


class GuardedPool:
    """The one pool-or-serial step.  :class:`~repro.ssnn.runtime
    .SushiRuntime`, :class:`~repro.serve.server.InferenceServer` and
    :class:`~repro.cluster.node.PoolNode` all run row blocks through it,
    so they share one policy:

    * **Row rule.**  A block goes to the pool only when it has at least
      ``2 x workers`` rows; smaller blocks run serially.
    * **Breaker.**  Such a block then needs ``breaker.allow()``, asked
      after the row rule because a granted half-open ``allow()`` uses
      up the probe.  A pool success is recorded as one.  So is a
      :class:`PoisonBatchError` (the pool healed and fingered the
      block), and that block runs serially; and so is a block the pool
      refuses for a value other than 0 or 1, which is then raised.  Any
      other of :data:`POOL_ERRORS` is recorded as a failure, and that
      block runs serially.  The pool is kept either way.
    * **Spawn or degrade.**  :meth:`open`, or else the first block that
      meets the row rule, spawns the pool; one that cannot be built
      leaves the guard serial (``pool`` stays ``None``).

    Every path is bit-identical to ``compiled.forward_rows``.

    Args:
        compiled: The plan every row block runs through.
        workers: Pool worker processes; ``0``/``1`` keep the guard
            serial.
        breaker: The :class:`~repro.serve.breaker.CircuitBreaker`
            guarding the pool; a default one when omitted.
    """

    def __init__(self, compiled: CompiledNetwork, workers: int,
                 breaker=None):
        if breaker is None:
            # Imported here: repro.serve imports this module.
            from repro.serve.breaker import CircuitBreaker

            breaker = CircuitBreaker()
        self.compiled = compiled
        self.workers = workers
        self.breaker = breaker
        self.pool: Optional[InferencePool] = None
        self._may_spawn = True
        self._counts = Counters("sushi_pool", {
            "pool_failures": "Blocks run serially after a pool error",
            "poison_batches": "Blocks quarantined as poison, run serially",
        })

    def open(self) -> "GuardedPool":
        """Spawn the pool now, unless the guard has one already."""
        self._may_spawn = True
        self._spawned()
        return self

    def close(self) -> None:
        """Release the pool.  Only :meth:`open` spawns another, so a
        block still in flight cannot respawn it."""
        self._may_spawn = False
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.close()

    def _spawned(self) -> Optional[InferencePool]:
        """The pool, after at most one spawn attempt per :meth:`open`: a
        pool that cannot be built leaves the guard serial."""
        if self.pool is None and self._may_spawn and self.workers > 1:
            self._may_spawn = False
            try:
                self.pool = InferencePool(self.compiled, workers=self.workers)
            except POOL_ERRORS:
                pass
        return self.pool

    def forward(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """``rows -> (decisions, spurious, synops)`` on the pool when the
        row rule and then the breaker allow it, serially otherwise."""
        if rows.shape[0] >= 2 * self.workers:
            pool = self._spawned()
            if pool is not None and self.breaker.allow():
                try:
                    result = pool.infer_rows(rows)
                except ConfigurationError:
                    self.breaker.record_success()
                    raise
                except PoisonBatchError:
                    self.breaker.record_success()
                    self._counts.inc("poison_batches")
                except POOL_ERRORS:
                    self.breaker.record_failure()
                    self._counts.inc("pool_failures")
                else:
                    self.breaker.record_success()
                    return result
        return self.compiled.forward_rows(rows)

    def stats(self) -> Dict[str, object]:
        """Breaker state, pool counters and worker gauges, as keyword
        arguments of :meth:`repro.serve.metrics.MetricsRecorder.snapshot`."""
        pool = self.pool
        return {
            "breaker_state": self.breaker.state,
            **self._counts.snapshot(),
            "workers_configured": pool.workers if pool is not None else 0,
            "workers_alive": pool.alive_workers() if pool is not None else 0,
            "worker_restarts": pool.restarts if pool is not None else 0,
        }
