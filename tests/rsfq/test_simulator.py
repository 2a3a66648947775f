"""Tests for the discrete-event engine, netlist rules and constraint modes."""

import random

import pytest

from repro.errors import ConfigurationError, ConstraintViolationError
from repro.rsfq import Netlist, PulseTrace, Simulator, library
from repro.rsfq.events import EventQueue


def chain_netlist(n_jtl=3, delay=1.0):
    """A JTL chain feeding a probe."""
    net = Netlist("chain")
    cells = [net.add(library.JTL(f"j{i}")) for i in range(n_jtl)]
    probe = net.add(library.Probe("p"))
    for a, b in zip(cells, cells[1:]):
        net.connect(a, "dout", b, "din", delay=delay)
    net.connect(cells[-1], "dout", probe, "din", delay=delay)
    return net, cells, probe


class TestNetlist:
    def test_duplicate_cell_name_rejected(self):
        net = Netlist("n")
        net.add(library.JTL("a"))
        with pytest.raises(ConfigurationError):
            net.add(library.JTL("a"))

    def test_fanout_of_one_enforced(self):
        net = Netlist("n")
        j = net.add(library.JTL("j"))
        p1 = net.add(library.Probe("p1"))
        p2 = net.add(library.Probe("p2"))
        net.connect(j, "dout", p1, "din")
        with pytest.raises(ConfigurationError):
            net.connect(j, "dout", p2, "din")

    def test_connect_checks_port_names(self):
        net = Netlist("n")
        j = net.add(library.JTL("j"))
        p = net.add(library.Probe("p"))
        with pytest.raises(ConfigurationError):
            net.connect(j, "bogus", p, "din")
        with pytest.raises(ConfigurationError):
            net.connect(j, "dout", p, "bogus")

    def test_foreign_cell_rejected(self):
        net = Netlist("n")
        foreign = library.JTL("f")
        p = net.add(library.Probe("p"))
        with pytest.raises(ConfigurationError):
            net.connect(foreign, "dout", p, "din")

    def test_jj_accounting(self):
        net, cells, _ = chain_netlist(n_jtl=4)
        assert net.logic_jj_count() == 4 * library.JTL.JJ_COUNT
        assert net.wiring_jj_count() == 0
        net.connect(net.add(library.SPL("s")), "doutA", cells[0], "din",
                    jtl_count=5)
        assert net.wiring_jj_count() == 5 * library.JTL.JJ_COUNT
        assert net.total_jj_count() == (
            net.logic_jj_count() + net.wiring_jj_count()
        )

    def test_cell_histogram(self):
        net, _, _ = chain_netlist(n_jtl=2)
        hist = net.cell_histogram()
        assert hist == {"JTL": 2, "Probe": 1}


class TestSimulator:
    def test_pulse_traverses_chain_with_accumulated_delay(self):
        net, cells, probe = chain_netlist(n_jtl=3, delay=2.0)
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run()
        expected = 3 * library.JTL.DELAY_PS + 3 * 2.0
        assert probe.times == [pytest.approx(expected)]

    def test_run_until_stops_at_boundary(self):
        net, cells, probe = chain_netlist(n_jtl=3, delay=100.0)
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run(until=150.0)
        assert probe.times == []  # pulse still in flight
        sim.run()
        assert len(probe.times) == 1

    def test_cannot_schedule_in_the_past(self):
        net, cells, _ = chain_netlist()
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 100.0)
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.schedule_input(cells[0], "din", 50.0)

    def test_schedule_at_exactly_now_is_accepted(self):
        """time == now is valid: the pulse is processed by the next run()."""
        net, cells, probe = chain_netlist(n_jtl=2, delay=1.0)
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run()
        assert sim.now > 0.0
        before = len(probe.times)
        sim.schedule_input(cells[0], "din", sim.now)  # exactly now: OK
        sim.run()
        assert len(probe.times) == before + 1

    def test_schedule_at_time_zero_on_fresh_simulator(self):
        """The now == 0.0 boundary of a fresh simulator accepts t=0 inputs."""
        net, cells, probe = chain_netlist(n_jtl=2)
        sim = Simulator(net)
        assert sim.now == 0.0
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run()
        assert len(probe.times) == 1

    def test_past_schedule_error_names_cell_and_port(self):
        net, cells, _ = chain_netlist()
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 100.0)
        sim.run()
        with pytest.raises(ConfigurationError) as exc:
            sim.schedule_input(cells[0], "din", sim.now - 1.0)
        message = str(exc.value)
        assert "j0.din" in message
        assert str(sim.now) in message

    def test_unknown_port_error_names_cell_and_port(self):
        net, cells, _ = chain_netlist()
        sim = Simulator(net)
        with pytest.raises(ConfigurationError) as exc:
            sim.schedule_input(cells[0], "bogus", 0.0)
        assert "j0" in str(exc.value)
        assert "bogus" in str(exc.value)

    def test_unknown_cell_name_rejected(self):
        net, _, _ = chain_netlist()
        sim = Simulator(net)
        with pytest.raises(ConfigurationError) as exc:
            sim.schedule_input("ghost", "din", 0.0)
        assert "ghost" in str(exc.value)

    def test_strict_mode_raises_on_violation(self):
        net = Netlist("n")
        tff = net.add(library.TFFL("t"))
        sim = Simulator(net, strict=True)
        sim.schedule_input(tff, "din", 0.0)
        sim.schedule_input(tff, "din", 5.0)
        with pytest.raises(ConstraintViolationError):
            sim.run()

    def test_tolerant_mode_records_violation(self):
        net = Netlist("n")
        tff = net.add(library.TFFL("t"))
        sim = Simulator(net, strict=False)
        sim.schedule_input(tff, "din", 0.0)
        sim.schedule_input(tff, "din", 5.0)
        sim.run()
        assert len(sim.violations) == 1
        assert "TFFL" in str(sim.violations[0])

    def test_trace_records_all_arrivals(self):
        net, cells, probe = chain_netlist(n_jtl=2)
        trace = PulseTrace()
        sim = Simulator(net, trace=trace)
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run()
        assert trace.times("j0", "din") == [0.0]
        assert len(trace.times("j1", "din")) == 1
        assert len(trace.times("p", "din")) == 1
        assert trace.total_pulses() == 3

    def test_deterministic_event_order_for_simultaneous_pulses(self):
        """Two pulses at the same time are processed in schedule order."""
        net = Netlist("n")
        cb = net.add(library.CB("c"))
        probe = net.add(library.Probe("p"))
        net.connect(cb, "dout", probe, "din", delay=0.0)
        results = []
        for _ in range(3):
            sim = Simulator(net)
            sim.schedule_input(cb, "dinA", 10.0)
            sim.schedule_input(cb, "dinB", 10.0)
            sim.run()
            results.append(tuple(probe.times))
            sim.reset()
        assert len(set(results)) == 1

    def test_jitter_is_deterministic_per_seed(self):
        net, cells, probe = chain_netlist(n_jtl=3, delay=5.0)
        times = []
        for _ in range(2):
            sim = Simulator(net, jitter_ps=0.5, seed=42)
            sim.schedule_input(cells[0], "din", 0.0)
            sim.run()
            times.append(tuple(probe.times))
            sim.reset()
        assert times[0] == times[1]
        sim = Simulator(net, jitter_ps=0.5, seed=7)
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run()
        assert tuple(probe.times) != times[0]

    def test_unseeded_jitter_is_deterministic(self):
        # The per-wire streams seed from repr(None), like any other seed.
        net, cells, probe = chain_netlist(n_jtl=3, delay=5.0)
        times = []
        for _ in range(2):
            sim = Simulator(net, jitter_ps=0.5)
            sim.schedule_input(cells[0], "din", 0.0)
            sim.run()
            times.append(tuple(probe.times))
            sim.reset()
        assert times[0] == times[1]

    def test_only_wire_jitter_mode_accepted(self):
        net, _, _ = chain_netlist(n_jtl=1)
        Simulator(net, jitter_ps=0.5, jitter_mode="wire")
        with pytest.raises(ConfigurationError, match="jitter_mode"):
            Simulator(net, jitter_ps=0.5, jitter_mode="delivery-order")

    def test_runaway_feedback_detected(self):
        """A JTL loop oscillates forever; the engine must abort."""
        net = Netlist("loop")
        a = net.add(library.JTL("a"))
        b = net.add(library.JTL("b"))
        net.connect(a, "dout", b, "din", delay=25.0)
        net.connect(b, "dout", a, "din", delay=25.0)
        sim = Simulator(net)
        sim.schedule_input(a, "din", 0.0)
        with pytest.raises(ConfigurationError):
            sim.run(max_events=1000)

    def test_reset_clears_time_and_violations(self):
        net = Netlist("n")
        tff = net.add(library.TFFL("t"))
        sim = Simulator(net)
        sim.schedule_input(tff, "din", 0.0)
        sim.schedule_input(tff, "din", 5.0)
        sim.run()
        assert sim.violations and sim.now > 0
        sim.reset()
        assert sim.violations == []
        assert sim.now == 0.0
        assert sim.delivered_pulses == 0

    def test_reset_reseeds_jitter_streams(self):
        """Regression: ``reset`` must rewind the jitter RNGs to the
        construction seed so a replay on the *same* simulator instance is
        bit-identical to the first run."""
        net, cells, probe = chain_netlist(n_jtl=4, delay=5.0)
        sim = Simulator(net, jitter_ps=0.6, seed=13)
        runs = []
        for _ in range(3):
            for k in range(5):
                sim.schedule_input(cells[0], "din", 100.0 * k)
            sim.run()
            runs.append(tuple(probe.times))
            sim.reset()
        assert runs[0] == runs[1] == runs[2]
        assert sim._wire_rngs == {}


class TestMaxEventsGuard:
    """Regression tests for the max_events off-by-one (the guard used to
    let ``max_events + 1`` events through before raising)."""

    def _loop(self):
        net = Netlist("loop")
        a = net.add(library.JTL("a"))
        b = net.add(library.JTL("b"))
        net.connect(a, "dout", b, "din", delay=25.0)
        net.connect(b, "dout", a, "din", delay=25.0)
        return net, a

    def test_exactly_max_events_processed_before_raise(self):
        net, a = self._loop()
        sim = Simulator(net)
        sim.schedule_input(a, "din", 0.0)
        with pytest.raises(ConfigurationError):
            sim.run(max_events=100)
        assert sim.events_processed == 100  # not 101

    def test_run_completing_on_last_allowed_event_does_not_raise(self):
        # A 3-JTL chain + probe processes exactly 4 events; a budget of
        # exactly 4 must therefore complete cleanly...
        net, cells, probe = chain_netlist(n_jtl=3)
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 0.0)
        sim.run(max_events=4)
        assert sim.events_processed == 4
        assert len(probe.times) == 1

    def test_budget_one_short_raises(self):
        # ...while a budget of 3 must raise with 3 processed.
        net, cells, probe = chain_netlist(n_jtl=3)
        sim = Simulator(net)
        sim.schedule_input(cells[0], "din", 0.0)
        with pytest.raises(ConfigurationError):
            sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_guard_applies_with_trace_and_until_variants(self):
        for kwargs in ({}, {"until": 10_000.0}):
            net, a = self._loop()
            sim = Simulator(net, trace=PulseTrace())
            sim.schedule_input(a, "din", 0.0)
            with pytest.raises(ConfigurationError):
                sim.run(max_events=50, **kwargs)
            assert sim.events_processed == 50


class TestWireJitterStream:
    """The k-th pulse on a wire is delayed by the wire's delay plus the
    k-th ``gauss(0.0, sigma)`` draw of
    ``random.Random(f"{seed!r}|{wire_key}")``, clamped at 0.  The
    expectations below are computed from that definition alone, not from
    the engine, so they pin the stream however the engine takes its
    draws."""

    N_JTL = 2
    DELAY_PS = 5.0
    SPACING_PS = 1000.0
    SEEDS = [None, 11, "trial-4"]
    #: Large enough next to DELAY_PS that some draws reach the clamp.
    CLAMP_SIGMA_PS = 40.0

    def expected_arrivals(self, seed, sigma, pulses):
        """Per hop, the arrival times at the chain's next cell, and how
        many jittered delays were clamped at 0."""
        names = [f"j{i}" for i in range(self.N_JTL)] + ["p"]
        emitted = [
            self.SPACING_PS * k + library.JTL.DELAY_PS for k in range(pulses)
        ]
        arrivals, clamps = {}, 0
        for wire_id, (src, dst) in enumerate(zip(names, names[1:])):
            stream = random.Random(f"{seed!r}|{src}.dout->{dst}.din#{wire_id}")
            times = []
            for t in emitted:
                jittered = self.DELAY_PS + stream.gauss(0.0, sigma)
                if jittered < 0.0:
                    jittered = 0.0
                    clamps += 1
                times.append(t + jittered)
            arrivals[dst] = times
            emitted = [t + library.JTL.DELAY_PS for t in times]
        return arrivals, clamps

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("pulses", [1, 2, 5, 6])
    @pytest.mark.parametrize("sigma", [0.5, CLAMP_SIGMA_PS])
    def test_every_arrival_matches_the_wire_stream(self, sigma, pulses, seed):
        net, cells, probe = chain_netlist(n_jtl=self.N_JTL,
                                          delay=self.DELAY_PS)
        trace = PulseTrace()
        sim = Simulator(net, trace=trace, jitter_ps=sigma, seed=seed)
        inputs = [self.SPACING_PS * k for k in range(pulses)]
        # Two runs: a wire's stream carries on across ``run`` calls.
        for batch in (inputs[:pulses // 2], inputs[pulses // 2:]):
            for t in batch:
                sim.schedule_input(cells[0], "din", t)
            sim.run()
        expected, _ = self.expected_arrivals(seed, sigma, pulses)
        for dst, times in expected.items():
            assert trace.times(dst, "din") == times
        assert probe.times == expected["p"]

    def test_large_sigma_reaches_the_clamp(self):
        for seed in self.SEEDS:
            _, clamps = self.expected_arrivals(seed, self.CLAMP_SIGMA_PS, 6)
            assert clamps > 0, seed

    @pytest.mark.parametrize("jitter_ps", [0.0, 0.5])
    def test_delivery_bypasses_queue_push(self, monkeypatch, jitter_ps):
        net, cells, probe = chain_netlist(n_jtl=3, delay=5.0)
        sim = Simulator(net, jitter_ps=jitter_ps, seed=1)
        for k in range(3):
            sim.schedule_input(cells[0], "din", self.SPACING_PS * k)

        def refuse(*args):
            raise AssertionError("a delivery called EventQueue.push")

        monkeypatch.setattr(EventQueue, "push", refuse)
        sim.run()
        assert len(probe.times) == 3
