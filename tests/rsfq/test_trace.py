"""Unit tests for :mod:`repro.rsfq.trace` (record-once / replay-many).

The acceptance bar throughout is *bit-identity*: every observable a
caller can read after a traced run -- probe capture lists, margins,
violations, event counts, final simulation time, fault bookkeeping --
must equal what a fresh event-engine :class:`Simulator` produces for the
same segments, whether the episode was served as a vectorized replay or
fell back.
"""

import pytest

from repro.errors import ConfigurationError, ConstraintViolationError
from repro.rsfq import FaultModel, Netlist, SimulationSession, Simulator, library
from repro.rsfq.trace import (
    GLOBAL_TRACE_COUNTERS,
    TRACE_KIND,
    CompiledTrace,
    ScheduleRecorder,
    TraceEngine,
    netlist_fingerprint,
    record_trace,
    schedule_fingerprint,
)
from repro.ssnn import PlanCache


def build_chain(n=8, delay=2.5):
    net = Netlist("chain")
    cells = [net.add(library.JTL(f"j{i}")) for i in range(n)]
    for a, b in zip(cells, cells[1:]):
        net.connect(a, "dout", b, "din", delay=delay)
    probe = net.add(library.Probe("probe"))
    net.connect(cells[-1], "dout", probe, "din")
    return net, probe


def build_tff():
    """A stateful netlist: TFF halves the pulse train into the probe."""
    net = Netlist("tff")
    tff = net.add(library.TFFL("t0"))
    probe = net.add(library.Probe("p0"))
    net.connect(tff, "dout", probe, "din", delay=3.0)
    return net, probe


SEGMENT = tuple(("j0", "din", 150.0 * k) for k in range(6))


def run_reference(net, segments, **kwargs):
    sim = Simulator(net, **kwargs)
    for seg in segments:
        for name, port, t in seg:
            sim.schedule_input(name, port, t)
        sim.run()
    return sim


class TestFingerprints:
    def test_netlist_fingerprint_stable_across_instances(self):
        a, _ = build_chain()
        b, _ = build_chain()
        assert netlist_fingerprint(a) == netlist_fingerprint(b)

    def test_netlist_fingerprint_sees_structure(self):
        a, _ = build_chain()
        b, _ = build_chain(delay=2.6)
        c, _ = build_chain(n=9)
        assert netlist_fingerprint(a) != netlist_fingerprint(b)
        assert netlist_fingerprint(a) != netlist_fingerprint(c)

    def test_schedule_fingerprint_sees_segment_boundaries(self):
        one = ((("j0", "din", 0.0), ("j0", "din", 100.0)),)
        two = ((("j0", "din", 0.0),), (("j0", "din", 100.0),))
        assert schedule_fingerprint(one) != schedule_fingerprint(two)


class TestRecordReplay:
    def test_ideal_replay_bit_identical(self):
        net_a, probe_a = build_chain()
        ref = run_reference(net_a, (SEGMENT,))
        net_b, probe_b = build_chain()
        episode = TraceEngine(net_b).run_episode((SEGMENT,))
        assert episode.mode == "replay"
        assert probe_b.times == probe_a.times
        assert episode.events == ref.events_processed
        assert episode.final_time_ps == ref.now
        assert episode.margins == dict(ref.margins)
        assert len(episode.violations) == len(ref.violations)

    def test_stateful_cell_replay(self):
        net_a, probe_a = build_tff()
        seg = tuple(("t0", "din", 60.0 * k) for k in range(8))
        ref = run_reference(net_a, (seg,))
        net_b, probe_b = build_tff()
        episode = TraceEngine(net_b).run_episode((seg,))
        assert episode.mode == "replay"
        assert probe_b.times == probe_a.times
        assert len(probe_b.times) == 4  # TFF halves the train
        assert episode.events == ref.events_processed

    def test_switch_counts_restored(self):
        net_a, _ = build_chain()
        run_reference(net_a, (SEGMENT,))
        net_b, _ = build_chain()
        TraceEngine(net_b).run_episode((SEGMENT,))
        for name, cell in net_a.cells.items():
            assert net_b.cells[name].switch_count == cell.switch_count

    def test_wire_jitter_replay_bit_identical(self):
        for seed in (0, 1, "stringseed"):
            net_a, probe_a = build_chain()
            ref = run_reference(
                net_a, (SEGMENT,), jitter_ps=0.4, seed=seed,
                jitter_mode="wire",
            )
            net_b, probe_b = build_chain()
            engine = TraceEngine(net_b)
            episode = engine.run_episode(
                (SEGMENT,), jitter_ps=0.4, seed=seed, jitter_mode="wire"
            )
            assert episode.mode == "replay", seed
            assert probe_b.times == probe_a.times, seed
            assert episode.margins == dict(ref.margins)

    def test_global_jitter_mode_falls_back(self):
        net_a, probe_a = build_chain()
        ref = run_reference(
            net_a, (SEGMENT,), jitter_ps=0.4, seed=7, jitter_mode="global"
        )
        net_b, probe_b = build_chain()
        engine = TraceEngine(net_b)
        episode = engine.run_episode(
            (SEGMENT,), jitter_ps=0.4, seed=7, jitter_mode="global"
        )
        assert episode.mode == "fallback"
        assert engine.stats["fallbacks"] == 1
        assert probe_b.times == probe_a.times

    def test_divergent_jitter_falls_back_bit_identical(self):
        # Sigma comparable to the stimulus spacing flips arrival order.
        net_a, probe_a = build_chain()
        ref = run_reference(
            net_a, (SEGMENT,), jitter_ps=120.0, seed=3, jitter_mode="wire"
        )
        net_b, probe_b = build_chain()
        engine = TraceEngine(net_b)
        episode = engine.run_episode(
            (SEGMENT,), jitter_ps=120.0, seed=3, jitter_mode="wire"
        )
        assert episode.mode == "fallback"
        assert probe_b.times == probe_a.times
        assert len(episode.violations) == len(ref.violations)

    def test_pulse_trace_round_trip(self):
        from repro.rsfq import PulseTrace

        net_a, _ = build_chain()
        trace = PulseTrace()
        sim = Simulator(net_a, trace=trace)
        for name, port, t in SEGMENT:
            sim.schedule_input(name, port, t)
        sim.run()
        net_b, _ = build_chain()
        episode = TraceEngine(net_b).run_episode((SEGMENT,), want_trace=True)
        assert episode.mode == "replay"
        assert episode.trace == trace


class TestFaults:
    @pytest.mark.parametrize("kind", (
        "stuck_cell", "pulse_drop", "pulse_duplicate", "extra_delay",
        "flux_trap",
    ))
    def test_injecting_model_falls_back_bit_identical(self, kind):
        model = FaultModel.single(kind, probability=1.0, seed=5)
        net_a, probe_a = build_chain()
        ref = run_reference(net_a, (SEGMENT,), faults=model)
        net_b, probe_b = build_chain()
        episode = TraceEngine(net_b).run_episode((SEGMENT,), faults=model)
        assert episode.mode == "fallback"
        assert probe_b.times == probe_a.times
        assert episode.fault_counts == ref.fault_counts()
        assert episode.injection_log == ref.injection_log()

    def test_zero_trigger_model_replays(self):
        model = FaultModel.single("pulse_drop", probability=0.0, seed=5)
        net_a, probe_a = build_chain()
        ref = run_reference(net_a, (SEGMENT,), faults=model)
        net_b, probe_b = build_chain()
        episode = TraceEngine(net_b).run_episode((SEGMENT,), faults=model)
        assert episode.mode == "replay"
        assert probe_b.times == probe_a.times
        assert episode.fault_counts == ref.fault_counts() == {}
        assert episode.injection_log == ref.injection_log()


class TestCache:
    def test_cold_miss_then_cross_engine_warm_hit(self, tmp_path):
        cache = PlanCache(root=tmp_path)
        net_a, _ = build_chain()
        first = TraceEngine(net_a, cache=cache)
        first.run_episode((SEGMENT,))
        assert first.stats["cache_misses"] == 1
        assert first.stats["records"] == 1

        net_b, probe_b = build_chain()
        second = TraceEngine(net_b, cache=cache)
        episode = second.run_episode((SEGMENT,))
        assert episode.mode == "replay"
        assert second.stats["cache_hits"] == 1
        assert second.stats["records"] == 0

        net_c, probe_c = build_chain()
        run_reference(net_c, (SEGMENT,))
        assert probe_b.times == probe_c.times

    def test_cache_entries_namespaced_by_kind(self, tmp_path):
        cache = PlanCache(root=tmp_path)
        net, _ = build_chain()
        TraceEngine(net, cache=cache).run_episode((SEGMENT,))
        entries = list((tmp_path / TRACE_KIND).glob("*.npz"))
        assert len(entries) == 1

    def test_corrupt_cache_entry_re_records(self, tmp_path):
        cache = PlanCache(root=tmp_path)
        net, _ = build_chain()
        TraceEngine(net, cache=cache).run_episode((SEGMENT,))
        entry = next((tmp_path / TRACE_KIND).glob("*.npz"))
        entry.write_bytes(b"not a trace")
        net_b, probe_b = build_chain()
        engine = TraceEngine(net_b, cache=cache)
        episode = engine.run_episode((SEGMENT,))
        assert episode.mode == "replay"
        assert engine.stats["records"] == 1

    def test_compiled_trace_save_load_round_trip(self, tmp_path):
        net, _ = build_chain()
        trace = record_trace(net, (SEGMENT,))
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = CompiledTrace.load(path)
        assert loaded.fingerprint == trace.fingerprint
        assert loaded.times.tolist() == trace.times.tolist()
        assert loaded.margins == trace.margins

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(ConfigurationError):
            CompiledTrace.load(path)


class TestSimulatorEngineParam:
    def test_unknown_engine_rejected(self):
        net, _ = build_chain()
        sim = Simulator(net)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            sim.run(engine="warp")

    def test_traced_run_matches_event_run(self):
        net_a, probe_a = build_chain()
        sim_a = Simulator(net_a)
        for name, port, t in SEGMENT:
            sim_a.schedule_input(name, port, t)
        sim_a.run()

        net_b, probe_b = build_chain()
        sim_b = Simulator(net_b)
        for name, port, t in SEGMENT:
            sim_b.schedule_input(name, port, t)
        sim_b.run(engine="traced")
        assert probe_b.times == probe_a.times
        assert sim_b.now == sim_a.now
        assert sim_b.events_processed == sim_a.events_processed
        assert sim_b.margins == sim_a.margins

    def test_replayed_simulator_requires_reset(self):
        net, probe = build_chain()
        sim = Simulator(net)
        for name, port, t in SEGMENT:
            sim.schedule_input(name, port, t)
        sim.run(engine="traced")
        with pytest.raises(ConfigurationError, match="reset"):
            sim.schedule_input("j0", "din", 99999.0)
        with pytest.raises(ConfigurationError, match="reset"):
            sim.run()
        sim.reset()
        sim.schedule_input("j0", "din", 0.0)
        sim.run(engine="traced")
        assert probe.times  # usable again after reset

    def test_mid_run_state_falls_back(self):
        net_a, probe_a = build_chain()
        sim_a = Simulator(net_a)
        sim_a.schedule_input("j0", "din", 0.0)
        sim_a.run()
        sim_a.schedule_input("j0", "din", 500.0)
        sim_a.run()

        net_b, probe_b = build_chain()
        sim_b = Simulator(net_b)
        sim_b.schedule_input("j0", "din", 0.0)
        sim_b.run(engine="traced")
        sim_b.reset()
        # After a completed run, now > 0: ineligible for replay but must
        # still produce the event-engine answer.
        sim_b2 = Simulator(net_b)
        sim_b2.schedule_input("j0", "din", 0.0)
        sim_b2.run()
        sim_b2.schedule_input("j0", "din", 500.0)
        sim_b2.run(engine="traced")
        assert probe_b.times == probe_a.times

    def test_strict_traced_raises_like_event_engine(self):
        net_a, _ = build_tff()
        seg = (("t0", "din", 0.0), ("t0", "din", 0.5))
        sim_a = Simulator(net_a, strict=True)
        for name, port, t in seg:
            sim_a.schedule_input(name, port, t)
        with pytest.raises(ConstraintViolationError):
            sim_a.run()

        net_b, _ = build_tff()
        sim_b = Simulator(net_b, strict=True)
        for name, port, t in seg:
            sim_b.schedule_input(name, port, t)
        with pytest.raises(ConstraintViolationError):
            sim_b.run(engine="traced")


class TestSession:
    def test_traced_session_matches_event_session(self):
        net_a, _ = build_chain()
        net_b, _ = build_chain()
        sa = SimulationSession(net_a, record_traces=True)
        sb = SimulationSession(net_b, record_traces=True, engine="traced")
        ra = sa.run(list(SEGMENT))
        rb = sb.run(list(SEGMENT))
        assert rb.trace == ra.trace
        assert rb.stats.events == ra.stats.events
        assert rb.stats.final_time_ps == ra.stats.final_time_ps
        assert sb.trace_stats()["replays"] >= 1

    def test_traced_session_jitter_seeds(self):
        net_a, _ = build_chain()
        net_b, _ = build_chain()
        sa = SimulationSession(
            net_a, jitter_ps=0.3, jitter_mode="wire", record_traces=True
        )
        sb = SimulationSession(
            net_b, jitter_ps=0.3, jitter_mode="wire", record_traces=True,
            engine="traced",
        )
        ra = sa.run_batch([list(SEGMENT)] * 3, seeds=[10, 11, 12])
        rb = sb.run_batch([list(SEGMENT)] * 3, seeds=[10, 11, 12])
        for x, y in zip(ra, rb):
            assert x.trace == y.trace
            assert x.violations == y.violations

    def test_unknown_session_engine_rejected(self):
        net, _ = build_chain()
        with pytest.raises(ConfigurationError, match="unknown engine"):
            SimulationSession(net, engine="warp")


class TestScheduleRecorder:
    def test_captured_segments_reproduce_closed_loop_run(self):
        net_a, probe_a = build_chain()
        rec = ScheduleRecorder(net_a)
        rec.schedule_input("j0", "din", 0.0)
        rec.run()
        rec.schedule_input("j0", "din", 400.0)
        rec.schedule_input("j0", "din", 600.0)
        rec.run()
        segments = rec.captured_segments()
        assert segments == (
            (("j0", "din", 0.0),),
            (("j0", "din", 400.0), ("j0", "din", 600.0)),
        )
        net_b, probe_b = build_chain()
        episode = TraceEngine(net_b).run_episode(segments)
        assert probe_b.times == probe_a.times

    def test_reset_clears_capture(self):
        net, _ = build_chain()
        rec = ScheduleRecorder(net)
        rec.schedule_input("j0", "din", 0.0)
        rec.run()
        rec.reset()
        assert rec.captured_segments() == ()


class TestCounters:
    def test_global_counters_and_families(self):
        GLOBAL_TRACE_COUNTERS.reset()
        net, _ = build_chain()
        TraceEngine(net).run_episode((SEGMENT,))
        snap = GLOBAL_TRACE_COUNTERS.snapshot()
        assert snap["records"] == 1
        assert snap["replays"] == 1
        families = GLOBAL_TRACE_COUNTERS.families()
        names = {f[0] for f in families}
        assert names == {
            "sushi_trace_records_total",
            "sushi_trace_replays_total",
            "sushi_trace_fallbacks_total",
            "sushi_trace_cache_hits_total",
            "sushi_trace_cache_misses_total",
        }
        by_name = {f[0]: f[3][0][1] for f in families}
        assert by_name["sushi_trace_records_total"] >= 1

    def test_gateway_metrics_expose_trace_counters(self):
        from repro.obs import render_prometheus

        text = render_prometheus(GLOBAL_TRACE_COUNTERS.families())
        assert "sushi_trace_replays_total" in text
        assert "sushi_trace_fallbacks_total" in text
