"""Tests for memoised netlist elaboration and the event heap."""

import pytest

from repro.rsfq import Netlist, Simulator, library


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
