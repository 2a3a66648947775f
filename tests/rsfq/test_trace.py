"""Unit tests for :mod:`repro.rsfq.trace` (record-once / replay-many).

The acceptance bar throughout is *bit-identity*: every observable a
caller can read after a traced run -- probe capture lists, margins,
violations, event counts, final simulation time, fault bookkeeping --
must equal what a fresh event-engine :class:`Simulator` produces for the
same segments, whether the episode was served as a vectorized replay or
fell back.
"""

import pytest

from repro.errors import ConstraintViolationError
from repro.rsfq import (
    TFF_MIN_INTERVAL,
    FaultModel,
    Netlist,
    Simulator,
    library,
)
from repro.rsfq.trace import (
    GLOBAL_TRACE_COUNTERS,
    TRACE_KIND,
    _SCHEDULE_MEMO,
    _TRANSIT_MEMO,
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
            ref = run_reference(net_a, (SEGMENT,), jitter_ps=0.4, seed=seed)
            net_b, probe_b = build_chain()
            engine = TraceEngine(net_b)
            episode = engine.run_episode(
                (SEGMENT,), jitter_ps=0.4, seed=seed
            )
            assert episode.mode == "replay", seed
            assert probe_b.times == probe_a.times, seed
            assert episode.margins == dict(ref.margins)

    def test_divergent_jitter_falls_back_bit_identical(self):
        # Sigma comparable to the stimulus spacing flips arrival order.
        net_a, probe_a = build_chain()
        ref = run_reference(net_a, (SEGMENT,), jitter_ps=120.0, seed=3)
        net_b, probe_b = build_chain()
        engine = TraceEngine(net_b)
        episode = engine.run_episode((SEGMENT,), jitter_ps=120.0, seed=3)
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


class TestScheduleMemo:
    def test_memo_keeps_the_most_recent_schedules(self):
        engine = TraceEngine(build_chain()[0])

        def run(shift):
            net, probe = build_chain()
            seg = tuple(("j0", "din", 150.0 * k + shift) for k in range(3))
            episode = engine.run_episode((seg,), netlist=net)
            assert episode.mode == "replay"
            return (episode.events, episode.final_time_ps,
                    episode.margins, episode.violations, probe.times)

        first = run(0)
        for shift in range(1, _SCHEDULE_MEMO + 3):
            run(shift)
        assert len(engine._mem) == _SCHEDULE_MEMO
        records = engine.stats["records"]
        assert records == _SCHEDULE_MEMO + 3
        run(_SCHEDULE_MEMO + 2)  # kept: replayed without a record
        assert engine.stats["records"] == records
        assert run(0) == first  # evicted: recorded anew, bit-identical
        assert engine.stats["records"] == records + 1
        assert len(engine._mem) == _SCHEDULE_MEMO

    def test_transit_cache_keeps_the_most_recent_variations(self):
        engine = TraceEngine(build_chain()[0])
        variations = [(seed, sigma) for seed in range(4)
                      for sigma in (0.2, 0.4, 0.6)]
        assert len(variations) > _TRANSIT_MEMO

        def run(seed, sigma):
            net, probe = build_chain()
            episode = engine.run_episode((SEGMENT,), jitter_ps=sigma,
                                         seed=seed, netlist=net)
            assert episode.mode == "replay"
            return probe.times

        first = run(*variations[0])
        for seed, sigma in variations[1:]:
            run(seed, sigma)
        (bound,) = engine._mem.values()
        assert list(bound._transit_cache) == [
            (repr(seed), sigma) for seed, sigma in
            variations[-_TRANSIT_MEMO:]
        ]
        assert run(*variations[0]) == first  # evicted: drawn anew
        assert len(bound._transit_cache) == _TRANSIT_MEMO


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
        cache = PlanCache(root=tmp_path)
        assert cache.store(trace.fingerprint, TRACE_KIND, *trace.encode())
        loaded = cache.load(trace.fingerprint, TRACE_KIND,
                            CompiledTrace.decode)
        assert loaded.fingerprint == trace.fingerprint
        assert loaded.segments == trace.segments
        assert loaded.times.tolist() == trace.times.tolist()
        assert loaded.parent.tolist() == trace.parent.tolist()
        assert loaded.margins == trace.margins

    def test_load_rejects_garbage(self, tmp_path):
        cache = PlanCache(root=tmp_path)
        path = cache.path_for("ab" * 32, TRACE_KIND)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"garbage")
        assert cache.load("ab" * 32, TRACE_KIND,
                          CompiledTrace.decode) is None
        assert not path.exists()


class TestStrict:
    """``strict=True`` episodes raise exactly what a strict event-engine
    :class:`Simulator` raises, on both ways replay can refuse a run."""

    @staticmethod
    def event_engine_error(net, segments, **kwargs):
        with pytest.raises(ConstraintViolationError) as err:
            run_reference(net, segments, strict=True, **kwargs)
        return str(err.value)

    def test_strict_traced_raises_like_event_engine(self):
        # Pulses 0.5 ps apart violate the TFF even under ideal physics,
        # so the recording itself fails and the episode falls back.
        seg = (("t0", "din", 0.0), ("t0", "din", 0.5))
        net_a, _ = build_tff()
        expected = self.event_engine_error(net_a, (seg,))

        net_b, _ = build_tff()
        engine = TraceEngine(net_b)
        with pytest.raises(ConstraintViolationError) as err:
            engine.run_episode((seg,), strict=True)
        assert str(err.value) == expected
        assert engine.stats["records"] == 0
        assert engine.stats["fallbacks"] == 1

    def test_strict_jittered_replay_raises_like_event_engine(self):
        # The ideal schedule clears the TFF window by 0.2 ps and records
        # cleanly; 0.5 ps of jitter closes it, so the strict replay
        # refuses the run and the event engine raises.
        def build():
            net = Netlist("jtl-tff")
            jtl = net.add(library.JTL("j0"))
            tff = net.add(library.TFFL("t0"))
            net.connect(jtl, "dout", tff, "din", delay=2.0)
            return net

        spacing = TFF_MIN_INTERVAL + 0.2
        seg = tuple(("j0", "din", spacing * k) for k in range(8))
        jitter = dict(jitter_ps=0.5, seed=2)
        expected = self.event_engine_error(build(), (seg,), **jitter)

        engine = TraceEngine(build())
        with pytest.raises(ConstraintViolationError) as err:
            engine.run_episode((seg,), strict=True, **jitter)
        assert str(err.value) == expected
        assert engine.stats["records"] == 1
        assert engine.stats["fallbacks"] == 1
        # The same run without strict is served by replay, so it was the
        # strict check, not a divergence, that sent it to the engine.
        episode = engine.run_episode((seg,), **jitter)
        assert episode.mode == "replay" and episode.violations


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
