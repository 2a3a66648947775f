"""Shared pieces of the benchmark: the served network, statistics, the
host-speed probe, the environment record and the per-run isolation checks.

Nothing here is timed as part of a workload; every helper is either set-up,
bookkeeping after the measured window, or an informational record.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import platform
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The 784-512-10 serving plan that ``benchmarks/BENCH_serve.json`` pins.
NETWORK_SEED = 2024
NETWORK_SIZES = (784, 512, 10)
CHIP_N = 16
SC_PER_NPE = 10
PINNED_FINGERPRINT = (
    "d2d4f7e681d8f4f1c687a68694a891c041017b70c7240fd26288340feb7a08a6"
)

#: End-to-end metrics (name -> unit); every workload reports all five.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics (name -> unit), reported by the traced run only.  A
#: layer that a workload bypasses reads 0 there: it did no work.
PER_LAYER = {
    "gateway.overhead_ms": "ms",
    "gateway.parse_ms": "ms",
    "gateway.rejected": "count",
    "serve.latency_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size": "samples",
    "ssnn.compile.forward_rows_ms": "ms",
    "ssnn.pool.infer_rows_ms": "ms",
    "ssnn.pool.speedup": "x",
    "ssnn.pool.restarts": "count",
    "ssnn.runtime.overhead_ms": "ms",
    "rsfq.simulator.run_ms": "ms",
    "rsfq.simulator.events_per_s": "1/s",
    "rsfq.simulator.events": "count",
    "rsfq.simulator.violations": "count",
    "neuro.chip.driver_ms": "ms",
    "rsfq.trace.replay_ms": "ms",
    "rsfq.trace.fallbacks": "count",
    "loadgen.lag_ms": "ms",
}

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: The fixed tail percentile of every workload's ``latency_tail_ms``: the
#: steadiest one that keeps well over ten samples beyond it in a run.
TAIL_PERCENTILE = 90.0


def ensure_program_importable() -> None:
    """Put the checkout's ``src`` on the import path, or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_network():
    """The pinned serving network; raises if its fingerprint drifted."""
    import numpy as np
    from repro.harness.differential import random_binarized_network
    from repro.ssnn import network_fingerprint

    rng = np.random.default_rng(NETWORK_SEED)
    network = random_binarized_network(
        rng, sizes=NETWORK_SIZES, sc_per_npe=SC_PER_NPE
    )
    fingerprint = network_fingerprint(network, CHIP_N, SC_PER_NPE, True)
    if fingerprint != PINNED_FINGERPRINT:
        raise AssertionError(
            f"served network fingerprint {fingerprint[:16]} is not the "
            f"pinned {PINNED_FINGERPRINT[:16]}"
        )
    return network


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile and how many samples lie beyond it."""
    value = percentile(values, q)
    return value, sum(1 for v in values if v > value)


# -- outcome of one run -------------------------------------------------------


@dataclass
class Outcome:
    """What a workload returns to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: Descriptions of wrong answers and broken invariants.
    errors: List[str] = field(default_factory=list)
    #: End-to-end metrics (untraced) or per-layer metrics (traced).
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def latency(self, latencies_ms: Sequence[float],
                tail_q: float) -> Dict[str, float]:
        """p50 and the workload's fixed tail percentile.  A tail with
        fewer than ten samples beyond it is an error: the run was too
        short to support it."""
        p_tail, beyond = tail(latencies_ms, tail_q)
        self.info["latency_samples"] = len(latencies_ms)
        self.info["latency_tail"] = {"percentile": tail_q, "beyond": beyond}
        if beyond < 10:
            self.errors.append(
                f"p{tail_q:g} has only {beyond} samples beyond it (< 10)"
            )
        return {"latency_p50_ms": median(latencies_ms),
                "latency_tail_ms": p_tail}

    def wrong(self, message: str, limit: int = 20) -> None:
        """Record a wrong answer (the op also counts as failed)."""
        self.failed += 1
        if len(self.errors) < limit:
            self.errors.append(message)


# -- host-speed probe and environment record ----------------------------------


def host_probe(repeats: int = 3) -> Dict[str, float]:
    """A fixed pure-Python loop and a fixed numpy matmul (medians, ms).

    Informational only: it shows host drift next to the metrics, and a
    slow host can never fail a run through it.
    """
    import numpy as np

    matrix = np.random.default_rng(0).random((256, 256))
    python_ms, matmul_ms = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        python_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        for _ in range(20):
            matrix @ matrix
        matmul_ms.append((time.perf_counter() - start) * 1e3)
    return {"python_loop_ms": median(python_ms),
            "matmul_ms": median(matmul_ms)}


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> Dict[str, object]:
    """nproc, interpreter/numpy/BLAS versions, BLAS threads, start method."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if name in os.environ},
        "pool_start_method": multiprocessing.get_start_method(),
    }


# -- process and memory bookkeeping -------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def child_pids() -> List[int]:
    """Live or unreaped children of this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap(pid: int, wait_s: float) -> None:
    """Wait up to ``wait_s`` for child ``pid`` to exit, then kill it;
    either way it is reaped before this returns."""
    deadline = time.monotonic() + wait_s
    try:
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
            time.sleep(0.02)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped


def stop_resource_tracker(wait_s: float = 5.0) -> None:
    """Stop and reap multiprocessing's resource tracker, if this process
    started one (the pool's shared memory does).  Left alone it would exit
    only after this process, as an orphan that nothing waits for.  (The
    tracker has no public way to stop it.)"""
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)  # end of file on its pipe tells it to stop
    if pid is not None:
        reap(pid, wait_s)


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leftovers(shm_before: set, wait_s: float = 5.0) -> List[str]:
    """Shared-memory segments and child processes this run left behind.

    Segments are listed while the resource tracker still runs, since it
    unlinks leaked ones when it stops.  Children get ``wait_s`` to finish
    exiting; any still there count as left behind and are killed.  Then
    the tracker is stopped, so every child is reaped when this returns.
    """
    problems = [f"shared-memory segment /dev/shm/{name} left behind"
                for name in sorted(shm_segments() - shm_before)]
    tracker = resource_tracker._resource_tracker._pid
    deadline = time.monotonic() + wait_s
    children = [pid for pid in child_pids() if pid != tracker]
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = [pid for pid in child_pids() if pid != tracker]
    problems += [f"child process {pid} still present" for pid in children]
    for pid in children:
        reap(pid, 0.0)
    stop_resource_tracker()
    return problems
