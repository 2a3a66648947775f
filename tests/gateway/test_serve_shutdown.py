"""``python -m repro serve`` shuts down cleanly on SIGTERM and SIGINT.

Each test boots the real CLI in its own session with two pool workers,
signals it, and then checks three things: exit status 0, no traceback
on stderr, and no worker process left alive.  SIGINT goes to the whole
process group, the way a terminal's Ctrl-C does.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _read_line(stream, timeout_s: float) -> str:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        ready, _, _ = select.select([stream], [], [], 0.1)
        if ready:
            return stream.readline()
    return ""


def _children(pid: int):
    """Pids whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to find the pool workers")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
def test_serve_exits_cleanly_on_signal(sig, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    # stderr goes to a file: a worker that outlives the parent keeps
    # any pipe open, and reading it to EOF would hang.
    err_path = tmp_path / "stderr.txt"
    workers = []
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env,
            start_new_session=True,
        )
    try:
        line = _read_line(proc.stdout, timeout_s=60)
        assert line.startswith("gateway listening"), line
        workers = _children(proc.pid)
        assert len(workers) == 2, workers
        if sig == signal.SIGINT:
            os.killpg(proc.pid, sig)
        else:
            proc.send_signal(sig)
        returncode = proc.wait(timeout=60)
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in workers) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        leftover = [pid for pid in workers if _alive(pid)]
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    stderr = err_path.read_text()
    assert returncode == 0, stderr
    assert "Traceback" not in stderr, stderr
    assert leftover == []
