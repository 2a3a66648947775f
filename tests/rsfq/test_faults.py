"""Tests for the composable fault-injection subsystem.

Contract under test (see ``docs/FAULTS.md``): fault decisions come from
deterministic per-site streams, so the same seeded model produces the
same injections -- the same pulses dropped / duplicated / delayed, the
same cells stuck or trapped, and the same canonical injection log --
in every fresh simulator and (via the traced gate differential) in the
trace engine.  The zero-fault configuration must stay on the engine's
specialised fast path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConstraintViolationError,
    DeadlineExceededError,
    FaultInjectionError,
)
from repro.rsfq import (
    FaultModel,
    FaultSpec,
    Netlist,
    PulseTrace,
    Simulator,
    canonical_log,
    fault_site_rng,
    library,
)


def chain(n=6, delay=2.0, name="chain"):
    net = Netlist(name)
    cells = [net.add(library.JTL(f"j{i}")) for i in range(n)]
    probe = net.add(library.Probe("p"))
    for a, b in zip(cells, cells[1:]):
        net.connect(a, "dout", b, "din", delay=delay)
    net.connect(cells[-1], "dout", probe, "din", delay=delay)
    return net, cells, probe


def drive(sim, cell, times):
    for t in times:
        sim.schedule_input(cell, "din", t)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultSpec(kind="bit_rot")

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_probability_out_of_range(self, p):
        with pytest.raises(FaultInjectionError, match="outside"):
            FaultSpec(kind="pulse_drop", probability=p)

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultInjectionError, match="delay_ps"):
            FaultSpec(kind="extra_delay", delay_ps=-1.0)

    def test_unknown_target_cell_rejected_at_bind(self):
        net, cells, _ = chain()
        model = FaultModel.single("pulse_drop", cells={"nope"})
        with pytest.raises(FaultInjectionError, match="unknown target cells"):
            Simulator(net, faults=model)

    def test_unknown_target_wire_rejected_at_bind(self):
        net, cells, _ = chain()
        model = FaultModel.single("pulse_drop", wires={"a.dout->b.din"})
        with pytest.raises(FaultInjectionError, match="unknown target wires"):
            Simulator(net, faults=model)

    def test_negative_max_records_rejected(self):
        with pytest.raises(FaultInjectionError, match="max_records"):
            FaultModel(max_records=-1)


class TestModelComposition:
    def test_single_and_extended(self):
        model = FaultModel.single("pulse_drop", 0.1, seed=7)
        both = model.extended(FaultSpec("extra_delay", 0.2))
        assert [s.kind for s in both.specs] == ["pulse_drop", "extra_delay"]
        assert both.seed == 7

    def test_compose_concatenates_and_keeps_first_seed(self):
        a = FaultModel.single("pulse_drop", seed=1)
        b = FaultModel.single("flux_trap", seed=2)
        merged = FaultModel.compose(a, b)
        assert [s.kind for s in merged.specs] == ["pulse_drop", "flux_trap"]
        assert merged.seed == 1
        assert FaultModel.compose(a, b, seed=9).seed == 9

    def test_reseeded_preserves_specs(self):
        model = FaultModel.single("pulse_drop", 0.3).reseeded("trial-4")
        assert model.seed == "trial-4"
        assert model.specs[0].probability == 0.3

    def test_inactive_model_keeps_fast_path(self):
        net, _, _ = chain()
        for faults in (None, FaultModel()):
            sim = Simulator(net, faults=faults)
            assert sim._fault_runtime is None
            assert sim._cells_view is sim._fanout.cell_list
            assert sim.deliver == sim._deliver_ideal
            assert sim.injection_log() == ()
            assert sim.fault_counts() == {}

    def test_active_model_binds_faulty_deliver(self):
        net, _, _ = chain()
        sim = Simulator(net, faults=FaultModel.single("pulse_drop", 0.0))
        assert sim.deliver == sim._deliver_faulty


class TestFaultSemantics:
    def test_pulse_drop_certain_kills_everything_past_first_wire(self):
        net, cells, probe = chain(n=3)
        sim = Simulator(net, faults=FaultModel.single("pulse_drop", 1.0))
        drive(sim, cells[0], [0.0, 50.0])
        sim.run()
        assert probe.times == []
        # Dropped on the first traversed wire only: one drop per stimulus.
        assert sim.fault_counts() == {"pulse_drop": 2}

    def test_pulse_duplicate_certain_doubles_the_stream(self):
        net, cells, probe = chain(n=2)
        model = FaultModel.single(
            "pulse_duplicate", 1.0, delay_ps=40.0,
            wires={"j0.dout->j1.din"},
        )
        sim = Simulator(net, faults=model)
        drive(sim, cells[0], [0.0])
        sim.run()
        assert len(probe.times) == 2
        assert probe.times[1] - probe.times[0] == pytest.approx(40.0)
        assert sim.fault_counts() == {"pulse_duplicate": 1}

    def test_extra_delay_certain_shifts_arrival(self):
        net, cells, probe = chain(n=2)
        clean = Simulator(net)
        drive(clean, cells[0], [0.0])
        clean.run()
        t_clean = probe.times[0]

        net2, cells2, probe2 = chain(n=2)
        model = FaultModel.single(
            "extra_delay", 1.0, delay_ps=7.0, wires={"j1.dout->p.din"},
        )
        sim = Simulator(net2, faults=model)
        drive(sim, cells2[0], [0.0])
        sim.run()
        assert probe2.times[0] == pytest.approx(t_clean + 7.0)
        assert sim.fault_counts() == {"extra_delay": 1}

    def test_stuck_cell_swallows_deliveries_and_marks_bind(self):
        net, cells, probe = chain(n=3)
        model = FaultModel.single("stuck_cell", 1.0, cells={"j1"})
        sim = Simulator(net, faults=model)
        drive(sim, cells[0], [0.0, 60.0])
        sim.run()
        assert probe.times == []
        log = sim.injection_log()
        # One bind-time mark (site == cell) + one swallow per delivery.
        marks = [r for r in log if r.site == "j1"]
        swallows = [r for r in log if "->" in r.site]
        assert len(marks) == 1 and marks[0].time == 0.0
        assert len(swallows) == 2
        assert all(r.kind == "stuck_cell" for r in log)

    def test_stuck_cell_swallows_external_stimuli(self):
        net, cells, probe = chain(n=2)
        model = FaultModel.single("stuck_cell", 1.0, cells={"j0"})
        sim = Simulator(net, faults=model)
        drive(sim, cells[0], [0.0])
        run_now = sim.run()
        assert probe.times == []
        assert sim.events_processed == 0
        sites = [r.site for r in sim.injection_log()]
        assert "input:j0.din" in sites
        assert run_now == 0.0

    def test_flux_trap_corrupts_stateful_cell(self):
        def build():
            net = Netlist("trap")
            j = net.add(library.JTL("j"))
            tff = net.add(library.TFFL("t"))
            probe = net.add(library.Probe("p"))
            net.connect(j, "dout", tff, "din", delay=3.0)
            net.connect(tff, "dout", probe, "din", delay=1.0)
            return net, j, probe

        net, j, probe = build()
        clean = Simulator(net)
        drive(clean, j, [0.0, 60.0, 120.0, 180.0])
        clean.run()
        clean_times = list(probe.times)

        net, j, probe = build()
        model = FaultModel.single("flux_trap", 1.0, cells={"t"})
        sim = Simulator(net, faults=model)
        drive(sim, j, [0.0, 60.0, 120.0, 180.0])
        sim.run()
        assert probe.times != clean_times
        assert sim.fault_counts() == {"flux_trap": 4}

    def test_flux_trap_on_stateless_cell_is_harmless(self):
        net, cells, probe = chain(n=2)
        model = FaultModel.single("flux_trap", 1.0)
        sim = Simulator(net, faults=model)
        drive(sim, cells[0], [0.0])
        sim.run()
        # JTLs/probes carry no flux: pulse arrives as if untrapped.
        assert len(probe.times) == 1

    def test_max_records_caps_log_but_not_counts(self):
        net, cells, probe = chain(n=4)
        model = FaultModel(
            [FaultSpec("extra_delay", 1.0, delay_ps=1.0)], max_records=2,
        )
        sim = Simulator(net, faults=model)
        drive(sim, cells[0], [0.0])
        sim.run()
        assert len(sim.injection_log()) == 2
        assert sim.fault_counts()["extra_delay"] == 4  # one per wire
        assert sim._fault_runtime.suppressed_records == 2


class TestDeterminism:
    @staticmethod
    def faulty_run(seed="det"):
        net, cells, probe = chain(n=10)
        model = FaultModel(
            [
                FaultSpec("pulse_drop", 0.2),
                FaultSpec("pulse_duplicate", 0.2, delay_ps=11.0),
                FaultSpec("extra_delay", 0.3, delay_ps=3.0),
            ],
            seed=seed,
        )
        sim = Simulator(net, faults=model, trace=PulseTrace())
        drive(sim, cells[0], [i * 100.0 for i in range(16)])
        sim.run()
        return list(probe.times), sim.injection_log(), sim.fault_counts()

    def test_identical_across_fresh_simulators(self):
        assert self.faulty_run() == self.faulty_run()

    def test_seed_changes_outcome(self):
        a = self.faulty_run(seed="a")
        b = self.faulty_run(seed="b")
        assert a != b

    def test_site_rng_is_stable_and_namespaced(self):
        draws = [fault_site_rng(0, "w").random() for _ in range(2)]
        assert draws[0] == draws[1]
        # Fault streams never collide with the jitter namespace.
        from repro.rsfq.simulator import wire_jitter_rng
        assert fault_site_rng(0, "w").random() != \
            wire_jitter_rng(0, "w").random()

    def test_canonical_log_sorts_engine_independently(self):
        _, log, _ = self.faulty_run()
        keys = [r.sort_key() for r in log]
        assert keys == sorted(keys)
        assert canonical_log(tuple(reversed(log))) == log

    def test_reset_replays_identical_fault_sequence(self):
        net, cells, probe = chain(n=10)
        model = FaultModel(
            [FaultSpec("pulse_drop", 0.3),
             FaultSpec("pulse_duplicate", 0.3, delay_ps=9.0)],
            seed="replay",
        )
        sim = Simulator(net, faults=model)
        stimuli = [i * 80.0 for i in range(12)]
        drive(sim, cells[0], stimuli)
        sim.run()
        first = (list(probe.times), sim.injection_log(), sim.fault_counts())
        assert first[2]  # the model actually fired

        sim.reset()
        assert sim.injection_log() == ()
        drive(sim, cells[0], stimuli)
        sim.run()
        second = (list(probe.times), sim.injection_log(), sim.fault_counts())
        assert second == first

    def test_stuck_bind_marks_relogged_after_reset(self):
        net, cells, probe = chain(n=3)
        model = FaultModel.single("stuck_cell", 1.0, cells={"j1", "j2"})
        sim = Simulator(net, faults=model)
        marks = [r.cell for r in sim.injection_log() if r.site == r.cell]
        assert marks == ["j1", "j2"]
        sim.reset()
        assert [r.cell for r in sim.injection_log()
                if r.site == r.cell] == marks
        assert sim.fault_counts() == {"stuck_cell": 2}


class TestGuards:
    def test_deadline_exceeded_raises_with_pending_work(self):
        net, cells, probe = chain(n=40)
        sim = Simulator(net)
        drive(sim, cells[0], [i * 10.0 for i in range(50)])
        with pytest.raises(DeadlineExceededError, match="wall-clock"):
            sim.run(deadline_s=1e-9)

    def test_generous_deadline_completes_normally(self):
        net, cells, probe = chain(n=4)
        sim = Simulator(net)
        drive(sim, cells[0], [0.0])
        sim.run(deadline_s=60.0)
        assert len(probe.times) == 1

    def test_nonpositive_deadline_rejected(self):
        from repro.errors import ConfigurationError
        net, cells, _ = chain(n=2)
        sim = Simulator(net)
        with pytest.raises(ConfigurationError, match="deadline_s"):
            sim.run(deadline_s=0.0)

    def test_strict_violation_message_names_time_and_cell(self):
        net = Netlist("strict")
        j = net.add(library.JTL("jx"))
        net.add(library.Probe("p"))
        net.connect(j, "dout", net.cells["p"], "din")
        sim = Simulator(net, strict=True)
        sim.schedule_input(j, "din", 0.0)
        sim.schedule_input(j, "din", 1.0)
        with pytest.raises(ConstraintViolationError) as err:
            sim.run()
        message = str(err.value)
        assert "at t=" in message and "'jx'" in message

    def test_faults_compose_with_wire_jitter(self):
        net, cells, probe = chain(n=4)
        sim = Simulator(net, jitter_ps=0.4, seed=5,
                        faults=FaultModel.single("pulse_drop", 0.0))
        drive(sim, cells[0], [0.0])
        sim.run()
        assert len(probe.times) == 1


class TestDeterminismProperty:
    """Property-based determinism: for arbitrary seeds and probabilities,
    two fresh simulators with the same seed observe the same injections,
    BER proxy (probe times) and canonical log."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p_drop=st.floats(min_value=0.0, max_value=0.6),
        p_dup=st.floats(min_value=0.0, max_value=0.6),
    )
    @settings(max_examples=25, deadline=None)
    def test_fresh_simulators_agree_for_any_seed(self, seed, p_drop, p_dup):
        def one():
            net, cells, probe = chain(n=6)
            model = FaultModel(
                [FaultSpec("pulse_drop", p_drop),
                 FaultSpec("pulse_duplicate", p_dup, delay_ps=13.0)],
                seed=seed,
            )
            sim = Simulator(net, faults=model)
            drive(sim, cells[0], [k * 120.0 for k in range(8)])
            sim.run()
            return tuple(probe.times), sim.injection_log(), \
                sim.fault_counts()

        assert one() == one()
