"""Suite-wide fixtures: a leak guard around every test module.

A module must leave the process as it found it: the same shared-memory
segments named ``sushi-*`` in ``/dev/shm``, the same multiprocessing
children, the same live threads, and no more open file descriptors.
Leftovers get up to :data:`SETTLE_S` seconds to go away (closed pool
workers and queue feeder threads take a moment to exit); whatever is
still there then fails the module's last test at teardown, naming the
module and what it left.
"""

import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

SETTLE_S = 5.0
SHM = Path("/dev/shm")
FDS = Path("/proc/self/fd")


def _snapshot():
    return {
        "shm segments": {path.name for path in SHM.glob("sushi-*")},
        "child processes": set(multiprocessing.active_children()),
        "threads": set(threading.enumerate()),
        "open fds": len(os.listdir(FDS)) if FDS.is_dir() else 0,
    }


def _leftovers(before, after):
    left = {}
    for kind in ("shm segments", "child processes", "threads"):
        extra = after[kind] - before[kind]
        if extra:
            left[kind] = sorted(str(item) for item in extra)
    if after["open fds"] > before["open fds"]:
        left["open fds"] = after["open fds"] - before["open fds"]
    return left


@pytest.fixture(scope="session", autouse=True)
def _resource_tracker():
    """Start multiprocessing's resource tracker up front: its pipe opens
    once per process, on first shared-memory use, and would otherwise
    read as a leaked fd of whichever module used shared memory first."""
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


@pytest.fixture(scope="module", autouse=True)
def _leak_guard(request, _resource_tracker):
    before = _snapshot()
    yield
    deadline = time.monotonic() + SETTLE_S
    while True:
        left = _leftovers(before, _snapshot())
        if not left or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    if left:
        pytest.fail(f"{request.module.__name__} leaked {left}",
                    pytrace=False)
