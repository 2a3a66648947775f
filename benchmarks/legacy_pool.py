"""Faithful replica of the pre-supervision shared-memory pool.

Preserved from :mod:`repro.ssnn.pool` as it stood before the
supervision rework (worker resurrection, shard retry, epoch guards,
poison quarantine) so the overhead gate keeps measuring against the
*real* historical baseline: one shared task queue, no ``(job, epoch)``
header on the input segment, no liveness bookkeeping on the hot path --
and, consequently, a pool where one dead worker fails the whole call
and the pool never recovers.

:class:`LegacyInferencePool` keeps the same bit-exact
``infer_rows`` == ``CompiledNetwork.forward_rows`` contract, which is
what lets ``test_supervision_overhead.py`` and ``bench_chaos.py`` pin
equivalence alongside the steady-state overhead numbers.

Two deliberate deviations from the historical pool, so that the overhead
gate compares supervision cost only:

* its workers cap OpenBLAS threads with the supervised pool's own helper
  and formula (``max(1, usable cores // workers)``), not the BLAS thread
  configuration;
* it ships rows the way the supervised pool does, as ``bool`` spikes in
  the input segment, packed and checked in one pass by
  :func:`repro.ssnn.compile.spike_rows`, not as float64.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.errors import ConfigurationError  # noqa: E402
from repro.ssnn.compile import CompiledNetwork, spike_rows  # noqa: E402
from repro.ssnn.pool import (  # noqa: E402
    InferencePoolError,
    _attach_shm,
    _blas_threads,
    _worker_blas_threads,
)


def _legacy_worker_main(
    payload: bytes, tasks, results, blas_threads: int
) -> None:
    """Worker loop: apply the supervised pool's BLAS thread cap,
    deserialize the compiled plan once, then serve row shards until the
    ``None`` sentinel arrives."""
    _blas_threads(cap=blas_threads)
    compiled: CompiledNetwork = pickle.loads(payload)
    while True:
        task = tasks.get()
        if task is None:
            return
        (job, shard, in_name, shape, out_name, start, end) = task
        try:
            shm_in = _attach_shm(in_name)
            shm_out = _attach_shm(out_name)
            try:
                rows = np.ndarray(
                    tuple(shape), dtype=np.bool_, buffer=shm_in.buf
                )
                decisions, spurious, synops = compiled.forward_rows(
                    rows[start:end]
                )
                out = np.ndarray(
                    (shape[0], compiled.out_features),
                    dtype=np.float64,
                    buffer=shm_out.buf,
                )
                out[start:end] = decisions
            finally:
                shm_in.close()
                shm_out.close()
            results.put((job, shard, spurious, synops, None))
        except Exception as exc:  # surface the traceback to the parent
            import traceback

            results.put((job, shard, 0, 0,
                         f"{exc}\n{traceback.format_exc()}"))


def _legacy_shutdown(procs, tasks, segments) -> None:
    """Finalizer-safe teardown: sentinel the workers, reap them, unlink
    any surviving shared-memory segments."""
    for _ in procs:
        try:
            tasks.put_nowait(None)
        except Exception:
            pass
    deadline = time.monotonic() + 2.0
    for proc in procs:
        try:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        except Exception:
            pass
    try:
        tasks.close()
        tasks.cancel_join_thread()
    except Exception:
        pass
    for shm in list(segments):
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
    segments.clear()


class LegacyInferencePool:
    """The unsupervised persistent pool, exactly as it used to be."""

    def __init__(
        self,
        compiled: CompiledNetwork,
        workers: int = 2,
        start_method: Optional[str] = None,
        result_timeout_s: float = 60.0,
    ):
        import multiprocessing as mp

        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if result_timeout_s <= 0:
            raise ConfigurationError("result_timeout_s must be > 0")
        self.compiled = compiled
        self.workers = workers
        self.result_timeout_s = result_timeout_s
        self._ctx = mp.get_context(start_method)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._lock = threading.Lock()
        self._jobs = itertools.count()
        self._segments: List = []
        self._segment_gen = itertools.count()
        self._closed = False
        payload = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        self._procs = [
            self._ctx.Process(
                target=_legacy_worker_main,
                args=(payload, self._tasks, self._results,
                      _worker_blas_threads(workers)),
                daemon=True,
                name=f"sushi-legacy-infer-{i}",
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        self._finalizer = weakref.finalize(
            self, _legacy_shutdown, self._procs, self._tasks, self._segments
        )

    # -- buffers -------------------------------------------------------------

    def _segment(self, index: int, nbytes: int):
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
        name = (f"sushi-legacy-{os.getpid()}-{id(self) & 0xFFFFFF:x}-"
                f"{index}-{next(self._segment_gen)}")
        self._segments[index] = shared_memory.SharedMemory(
            name=name, create=True, size=size
        )
        return self._segments[index]

    @staticmethod
    def _shards(n_rows: int, parts: int) -> List[Tuple[int, int]]:
        parts = max(1, min(parts, n_rows))
        base, extra = divmod(n_rows, parts)
        ranges = []
        start = 0
        for i in range(parts):
            end = start + base + (1 if i < extra else 0)
            ranges.append((start, end))
            start = end
        return ranges

    # -- execution -----------------------------------------------------------

    def infer_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
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
            n_rows = rows.shape[0]
            out_shape = (n_rows, self.compiled.out_features)
            shm_in = self._segment(0, rows.size)
            shm_out = self._segment(1, int(np.prod(out_shape)) * 8)
            spike_rows(rows, out=np.ndarray(
                rows.shape, np.bool_, buffer=shm_in.buf
            ))
            job = next(self._jobs)
            shards = self._shards(n_rows, self.workers)
            for idx, (start, end) in enumerate(shards):
                self._tasks.put((
                    job, idx, shm_in.name, tuple(rows.shape),
                    shm_out.name, start, end,
                ))
            spurious = 0
            synops = 0
            pending = len(shards)
            deadline = time.monotonic() + self.result_timeout_s
            while pending:
                try:
                    (rjob, _shard, shard_spurious, shard_synops,
                     error) = self._results.get(timeout=0.1)
                except Exception:
                    if time.monotonic() > deadline:
                        raise InferencePoolError(
                            f"inference pool timed out after "
                            f"{self.result_timeout_s}s"
                        ) from None
                    if not all(p.is_alive() for p in self._procs):
                        raise InferencePoolError(
                            "an inference pool worker died"
                        ) from None
                    continue
                if rjob != job:
                    continue  # stale result of an aborted earlier call
                if error is not None:
                    raise InferencePoolError(
                        f"inference pool worker failed:\n{error}"
                    )
                spurious += shard_spurious
                synops += shard_synops
                pending -= 1
            decisions = np.array(
                np.ndarray(out_shape, np.float64, buffer=shm_out.buf),
                copy=True,
            )
            return decisions, spurious, synops

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._finalizer()

    def __enter__(self) -> "LegacyInferencePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
