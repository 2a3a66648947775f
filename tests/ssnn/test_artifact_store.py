"""The :class:`~repro.ssnn.compile.PlanCache` store's repair rules, for
every artifact kind that lives in it.

Compiled plans, compiled RSFQ traces and explore points are written and
read only by ``PlanCache.store`` / ``PlanCache.load``.  Each kind is
driven here through its real caller (``get_or_compile``,
``TraceEngine.run_episode``, ``run_explore``), two artifacts at a time,
and each damaged entry must read as exactly one miss and be repaired: a
truncated zip, a stale schema, another fingerprint's entry.  A root that
cannot be written keeps results in memory, and a write that fails
part-way leaves no temp file behind.
"""

import errno
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.explore import (
    EXPLORE_KIND,
    GLOBAL_EXPLORE_COUNTERS,
    ExploreConfig,
    run_explore,
)
from repro.explore.grid import ExploreGrid
from repro.harness import random_binarized_network
from repro.rsfq import Netlist, library
from repro.rsfq.trace import TRACE_KIND, TraceEngine
from repro.ssnn import PLAN_KIND, PlanCache
from tests.ssnn.test_compile import tamper


def plan_misses(cache):
    for seed in (0, 1):
        network = random_binarized_network(
            np.random.default_rng(seed), sizes=(10, 8, 5), sc_per_npe=8
        )
        cache.get_or_compile(network, 4, 8)
    return cache.misses


def trace_misses(cache):
    net = Netlist("chain")
    cells = [net.add(library.JTL(f"j{i}")) for i in range(4)]
    for a, b in zip(cells, cells[1:]):
        net.connect(a, "dout", b, "din", delay=2.5)
    engine = TraceEngine(net, cache=cache)
    for pulses in (1, 2):
        segment = tuple(("j0", "din", 150.0 * k) for k in range(pulses))
        assert engine.run_episode((segment,)).mode == "replay"
    return engine.stats["cache_misses"]


def explore_misses(cache):
    config = replace(ExploreConfig.quick(), grid=ExploreGrid(
        npe_counts=(8,), sc_per_npe=(4, 8), slice_widths=(4,),
        bucketing=("reordered",),
    ))
    counters = GLOBAL_EXPLORE_COUNTERS.fresh()
    run_explore(config, plan_cache=cache, counters=counters)
    return counters.snapshot()["point_cache_misses"]


#: kind -> (caller that reads/writes two entries of it and returns its
#: misses, the kind's schema field in ``meta``).
KINDS = {
    PLAN_KIND: (plan_misses, "schema"),
    TRACE_KIND: (trace_misses, "schema"),
    EXPLORE_KIND: (explore_misses, "schema_version"),
}


def entries(root, kind):
    return sorted((Path(root) / kind).glob("*.npz"))


def temp_files(root):
    return [p for p in Path(root).rglob("*") if ".tmp" in p.name]


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


#: Garbage bytes are the fourth damage, tested per kind next to its
#: caller (tests/ssnn/test_compile.py, tests/rsfq/test_trace.py,
#: tests/explore/test_driver.py).
DAMAGE = {
    "truncated zip": lambda cache, kind, first, second: truncate(first),
    "stale schema": lambda cache, kind, first, second: tamper(
        cache, first.stem, kind, **{KINDS[kind][1]: 999}
    ),
    "another fingerprint": lambda cache, kind, first, second:
        first.write_bytes(second.read_bytes()),
}


@pytest.mark.parametrize("kind", list(KINDS))
class TestRepair:
    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_entry_is_one_repaired_miss(self, tmp_path, kind,
                                                damage):
        run, _ = KINDS[kind]
        assert run(PlanCache(root=tmp_path)) == 2
        assert run(PlanCache(root=tmp_path)) == 0
        first, second = entries(tmp_path, kind)
        DAMAGE[damage](PlanCache(root=tmp_path), kind, first, second)
        assert run(PlanCache(root=tmp_path)) == 1
        assert run(PlanCache(root=tmp_path)) == 0
        assert entries(tmp_path, kind) == [first, second]

    def test_unwritable_root_keeps_results_in_memory(self, tmp_path, kind):
        run, _ = KINDS[kind]
        root = tmp_path / "not-a-directory"
        root.write_bytes(b"")
        assert run(PlanCache(root=root)) == 2
        assert run(PlanCache(root=root)) == 2
        assert PlanCache(root=root).stats().entries == 0

    @pytest.mark.parametrize("step", ["temp write", "rename"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                              kind, step):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        def half_write(path, data):
            with open(path, "wb") as handle:
                handle.write(data[: len(data) // 2])
            no_space()

        run, _ = KINDS[kind]
        with monkeypatch.context() as patch:
            if step == "rename":
                patch.setattr(os, "replace", no_space)
            else:
                patch.setattr(Path, "write_bytes", half_write)
            assert run(PlanCache(root=tmp_path)) == 2
        assert temp_files(tmp_path) == []
        assert entries(tmp_path, kind) == []
        assert run(PlanCache(root=tmp_path)) == 2
        assert len(entries(tmp_path, kind)) == 2


def test_clear_also_removes_stray_temp_files(tmp_path):
    cache = PlanCache(root=tmp_path)
    plan_misses(cache)
    stray = tmp_path / PLAN_KIND / ".deadbeef.npz.tmp.1.2"
    stray.write_bytes(b"left by a killed writer")
    assert cache.clear() == 2
    assert temp_files(tmp_path) == [] and cache.stats().entries == 0
