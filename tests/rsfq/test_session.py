"""Tests for batched simulation: memoised elaboration, the event heap,
``Simulator.run_batch`` and :class:`SimulationSession`."""

import pytest

from repro.errors import ConfigurationError
from repro.rsfq import (
    Netlist,
    SimulationSession,
    Simulator,
    library,
)


def chain_netlist(n_jtl=3, delay=1.0):
    net = Netlist("chain")
    cells = [net.add(library.JTL(f"j{i}")) for i in range(n_jtl)]
    probe = net.add(library.Probe("p"))
    for a, b in zip(cells, cells[1:]):
        net.connect(a, "dout", b, "din", delay=delay)
    net.connect(cells[-1], "dout", probe, "din", delay=delay)
    return net, cells, probe


class TestElaborationMemo:
    def test_elaborate_is_memoised(self):
        net, _, _ = chain_netlist()
        assert net.elaborate() is net.elaborate()

    def test_topology_change_invalidates_memo(self):
        net, cells, _ = chain_netlist()
        table = net.elaborate()
        extra = net.add(library.Probe("extra"))
        assert net.topology_version > table.version
        table2 = net.elaborate()
        assert table2 is not table
        net.connect(net.add(library.SPL("s")), "doutA", extra, "din")
        assert net.elaborate() is not table2

    def test_fanout_table_routes(self):
        net, cells, probe = chain_netlist(n_jtl=2, delay=3.0)
        table = net.elaborate()
        routes = table.fanout(cells[0].name, "dout")
        assert routes == ((cells[1].name, "din", 3.0),)
        # Unconnected ports route nowhere (empty tuple, no KeyError).
        assert table.fanout(probe.name, "nonexistent") == ()

    def test_simulator_picks_up_topology_changes(self):
        """A simulator built before a connect() must still route through it."""
        net = Netlist("grow")
        a = net.add(library.JTL("a"))
        sim = Simulator(net)
        probe = net.add(library.Probe("p"))
        net.connect(a, "dout", probe, "din", delay=1.0)
        sim.schedule_input(a, "din", 0.0)
        sim.run()
        assert len(probe.times) == 1


class TestEventHeap:
    def test_heap_runs_chain(self):
        net, cells, probe = chain_netlist(n_jtl=3, delay=2.0)
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run()
        expected = 3 * library.JTL.DELAY_PS + 3 * 2.0
        assert probe.times == [pytest.approx(expected)]


class TestSimulatorRunBatch:
    def test_batch_resets_between_runs(self):
        net, cells, probe = chain_netlist(n_jtl=2, delay=1.0)
        sim = Simulator(net)
        stats = sim.run_batch([
            [(cells[0], "din", 0.0)],
            [(cells[0], "din", 0.0), (cells[0], "din", 50.0)],
        ])
        assert len(stats) == 2
        # Second run saw a reset circuit: exactly two pulses at the probe.
        assert len(probe.times) == 2
        # Run 1 pushes one pulse through 2 JTLs + probe = 3 events; run 2
        # pushes two pulses = 6 events.
        assert stats[0].events == 3
        assert stats[1].events == 6
        assert stats[1].final_time_ps > stats[0].final_time_ps
        assert all(s.violations == 0 for s in stats)
        assert all(s.wall_time_s >= 0.0 for s in stats)

    def test_batch_accepts_cell_names(self):
        net, cells, probe = chain_netlist(n_jtl=2)
        sim = Simulator(net)
        sim.run_batch([[("j0", "din", 0.0)]])
        assert len(probe.times) == 1

    def test_batch_counts_violations_per_run(self):
        net = Netlist("n")
        tff = net.add(library.TFFL("t"))
        sim = Simulator(net, strict=False)
        stats = sim.run_batch([
            [(tff, "din", 0.0), (tff, "din", 5.0)],   # too close: violation
            [(tff, "din", 0.0), (tff, "din", 500.0)],  # clean
        ])
        assert stats[0].violations == 1
        assert stats[1].violations == 0


class TestSimulationSession:
    def test_single_run_result(self):
        net, cells, probe = chain_netlist(n_jtl=2)
        session = SimulationSession(net)
        result = session.run([(cells[0], "din", 0.0)])
        assert result.index == 0
        assert result.stats.events == 3
        assert result.stats.violations == 0
        assert result.violations == []
        assert result.trace is None  # record_traces off by default
        assert len(probe.times) == 1

    def test_session_reuses_simulator_for_ideal_runs(self):
        net, cells, probe = chain_netlist(n_jtl=2)
        session = SimulationSession(net)
        r0 = session.run([(cells[0], "din", 0.0)])
        r1 = session.run([(cells[0], "din", 0.0)])
        assert r0.stats.events == r1.stats.events
        assert r0.stats.final_time_ps == r1.stats.final_time_ps
        assert r1.index == 1
        assert session.stats.runs == 2
        assert session.stats.total_events == 6

    def test_record_traces_gives_fresh_trace_per_run(self):
        net, cells, _ = chain_netlist(n_jtl=2)
        session = SimulationSession(net, record_traces=True)
        r0 = session.run([(cells[0], "din", 0.0)])
        r1 = session.run([(cells[0], "din", 10.0)])
        assert r0.trace is not None and r1.trace is not None
        assert r0.trace is not r1.trace
        assert r0.trace.events() != r1.trace.events()
        assert r0.trace.total_pulses() == 3

    def test_jitter_seed_determinism(self):
        net, cells, _ = chain_netlist(n_jtl=3, delay=5.0)
        session = SimulationSession(net, jitter_ps=0.5, record_traces=True)
        a = session.run([(cells[0], "din", 0.0)], seed=42)
        b = session.run([(cells[0], "din", 0.0)], seed=42)
        c = session.run([(cells[0], "din", 0.0)], seed=7)
        assert a.trace == b.trace
        assert a.trace != c.trace
        assert a.seed == 42 and c.seed == 7

    def test_run_batch_with_seeds(self):
        net, cells, _ = chain_netlist(n_jtl=3, delay=5.0)
        session = SimulationSession(net, jitter_ps=0.5, record_traces=True)
        stimuli = [(cells[0], "din", 0.0)]
        results = session.run_batch([stimuli, stimuli, stimuli],
                                    seeds=[1, 1, 2])
        assert [r.index for r in results] == [0, 1, 2]
        assert results[0].trace == results[1].trace
        assert results[0].trace != results[2].trace

    def test_run_batch_seed_length_mismatch(self):
        net, cells, _ = chain_netlist()
        session = SimulationSession(net)
        with pytest.raises(ConfigurationError):
            session.run_batch([[(cells[0], "din", 0.0)]], seeds=[1, 2])

    def test_session_stats_aggregate(self):
        net, cells, _ = chain_netlist(n_jtl=2)
        session = SimulationSession(net)
        session.run_batch([[(cells[0], "din", 0.0)]] * 4)
        stats = session.stats
        assert stats.runs == 4
        assert stats.total_events == 4 * 3
        assert stats.total_pulses == 4 * 3
        assert stats.total_violations == 0
        assert stats.total_wall_time_s >= 0.0
        assert stats.elaboration_time_s >= 0.0
        if stats.total_wall_time_s > 0:
            assert stats.events_per_second > 0

    def test_events_per_second_zero_before_running(self):
        net, _, _ = chain_netlist()
        session = SimulationSession(net)
        assert session.stats.events_per_second == 0.0
