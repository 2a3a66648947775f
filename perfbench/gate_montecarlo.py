"""gate-montecarlo: the Fig. 16 chip-versus-simulation comparison run as a
fabrication-variation Monte-Carlo study (closed loop, one caller).

Set-up builds the 2x2 ``chip_n2_sc4_r6`` chip shape that
``benchmarks/BENCH_simulator.json`` pins, elaborates it, and records the
jitter-free arm of one protocol drawn from the workload seed (thresholds,
weight configurations and polarity passes over several time steps).  Each
trial drives that protocol through ``ChipDriver`` on a fresh ``Simulator``
with its own ``jitter_mode="wire"`` seed (the "measured chip"), then replays
the ideal arm through ``TraceEngine.run_episode`` (the "simulation") and
compares the two.  Jitter moves pulse times; it can change pulse counts only
by pushing two pulses inside a Table 1 timing window, which the simulator
records as a violation.  So a trial without violations must reproduce the
replay's event count exactly (a difference is a wrong answer), while count
changes in trials with violations, read-out disagreements and the
violations themselves are simulated statistics, not failures.

The run is cut into equal parts and repeats the set-up before each, so
``setup_s`` (their median) samples the host over the whole run.

A shared host runs this machine's Python at two speeds about 1.7x apart,
each for up to tens of seconds, so a run's median trial lands in either
mode.  Every time this workload reports is therefore in reference-host
milliseconds: the host time multiplied by ``CALIBRATION_REF_MS`` over the
local time of ``calibration_kernel``, a fixed event-queue loop timed right
after every trial (and before every set-up) that slows with the host as
the trials do.  The host times are kept in the informational record.  The
per-layer metrics of a traced run stay in host milliseconds.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import time

from repro.neuro.chip import ChipConfig, ChipDriver, GateLevelChip
from repro.neuro.multistate import Polarity
from repro.rsfq.simulator import Simulator
from repro.rsfq.trace import ScheduleRecorder, TraceEngine

from common import SETUP_REPEATS, TAIL_PERCENTILE, Outcome, mean, median, \
    percentile, self_peak_rss_mb

CHIP_SHAPE = {"n": 2, "sc_per_npe": 4}
TIME_STEPS = 6
PASSES_PER_STEP = 4
#: Wire-delay jitter sigma: large enough that some trials record Table 1
#: timing violations.
JITTER_PS = 3.0
#: Trials whose (events, violations, read-outs) the printed digest covers,
#: so two commits can be compared exactly on one seed.
DIGEST_TRIALS = 200
#: Events the calibration kernel schedules up front.
CALIBRATION_EVENTS = 1000
#: The reference host speed: every timing this workload reports is in
#: milliseconds of a host on which one calibration kernel call takes this
#: long (2-vCPU KVM guest, Xeon model 143, in its faster state).
CALIBRATION_REF_MS = 1.4
#: Kernel calls on each side of a trial that give its local host speed.
CALIBRATION_HALF_WIDTH = 8


class _Event:
    __slots__ = ("time", "wire")

    def __init__(self, at: float, wire: int):
        self.time = at
        self.wire = wire


def calibration_kernel() -> None:
    """A fixed discrete-event loop in plain Python: a heap of timed events,
    per-wire counters and a seeded random stream, like the event engine
    the trials exercise, but the benchmark's own code, so no change to the
    program changes its speed."""
    rng = random.Random(7)
    heap, counts = [], {}
    for seq in range(CALIBRATION_EVENTS):
        heapq.heappush(heap, (rng.random(), seq, _Event(seq, seq & 63)))
    seq = CALIBRATION_EVENTS
    while heap:
        at, i, event = heapq.heappop(heap)
        counts[event.wire] = counts.get(event.wire, 0) + 1
        if i < CALIBRATION_EVENTS and i % 3 == 0:
            heapq.heappush(heap, (at + rng.random(), seq,
                                  _Event(at, (i * 7) & 63)))
            seq += 1


def calibrate() -> float:
    """Host time of one calibration kernel call, in ms."""
    start = time.perf_counter()
    calibration_kernel()
    return (time.perf_counter() - start) * 1e3


def to_reference(times_ms, calibration_ms):
    """Convert host times to reference-host times.  ``calibration_ms[i]``
    was taken right after ``times_ms[i]``; the median of the calls around
    it gives the host's speed at that moment."""
    width = CALIBRATION_HALF_WIDTH
    return [
        t * CALIBRATION_REF_MS
        / median(calibration_ms[max(0, i - width):i + width + 1])
        for i, t in enumerate(times_ms)
    ]


class TimedSimulator(Simulator):
    """A ``Simulator`` that accumulates host time spent inside ``run``."""

    run_s = 0.0

    def run(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().run(*args, **kwargs)
        finally:
            self.run_s += time.perf_counter() - start


def make_protocol(seed: int):
    """Per time step: thresholds, a weight matrix and polarity passes."""
    rng = random.Random(seed)
    n = CHIP_SHAPE["n"]
    steps = []
    for _ in range(TIME_STEPS):
        thresholds = [rng.randint(1, 4) for _ in range(n)]
        weights = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        passes = [
            (Polarity.SET0 if rng.random() < 0.3 else Polarity.SET1,
             [rng.random() < 0.7 for _ in range(n)])
            for _ in range(PASSES_PER_STEP)
        ]
        steps.append((thresholds, weights, passes))
    return steps


def drive(chip, sim, protocol):
    """Run the protocol through ``ChipDriver``; per-step read-outs."""
    driver = ChipDriver(chip, sim)
    reads = []
    for thresholds, weights, passes in protocol:
        driver.begin_timestep(thresholds)
        driver.configure_weights(weights)
        for polarity, spikes in passes:
            driver.run_pass(polarity, spikes)
        reads.append(tuple(driver.read_out()))
    return tuple(reads)


def fire_counts(chip):
    return [len(chip.fire_times(j)) for j in range(CHIP_SHAPE["n"])]


def set_up(protocol):
    """Chip build, elaboration and the recorded ideal arm."""
    config = ChipConfig(**CHIP_SHAPE)
    chip = GateLevelChip(config)
    chip.net.elaborate()
    recorder_chip = GateLevelChip(config)
    recorder = ScheduleRecorder(recorder_chip.net)
    recorder.reset()
    ideal_reads = drive(recorder_chip, recorder, protocol)
    segments = recorder.captured_segments()
    replay_chip = GateLevelChip(config)
    engine = TraceEngine(replay_chip.net)  # no cache: in memory only
    recorded = engine.run_episode(segments)
    if recorded.mode != "replay" or \
            recorded.events != recorder.events_processed:
        raise AssertionError(
            f"ideal arm: {recorded.mode} of {recorded.events} events, the "
            f"recording ran {recorder.events_processed}"
        )
    return {
        "chip": chip,
        "engine": engine,
        "segments": segments,
        "replay_chip": replay_chip,
        "ideal_reads": ideal_reads,
        "ideal_events": recorder.events_processed,
        "ideal_fires": fire_counts(recorder_chip),
    }


def run(seed: int, seconds: float, trace: bool, run_dir) -> Outcome:
    out = Outcome()
    protocol = make_protocol(seed)
    sim_class = TimedSimulator if trace else Simulator

    setup_s, setup_calibration_ms = [], []
    trial_ms, calibration_ms, run_ms, replay_ms = [], [], [], []
    events, violations, digested = [], [], []
    mismatches = diverged = fallbacks = 0
    base_seed = seed << 20
    # The run is cut into SETUP_REPEATS equal parts, each with a set-up of
    # its own before its trials.  A set-up takes under 0.1 s, so set-ups
    # made back to back would all see one state of a shared host; spread
    # over the run, their median sees the states the trials see.
    for _ in range(SETUP_REPEATS):
        state = sim = None  # let the previous part's chip go first
        setup_calibration_ms.append(median(
            [calibrate() for _ in range(2 * CALIBRATION_HALF_WIDTH + 1)]
        ))
        start = time.perf_counter()
        state = set_up(protocol)
        setup_s.append(time.perf_counter() - start)
        chip, engine = state["chip"], state["engine"]
        segments, replay_chip = state["segments"], state["replay_chip"]
        ideal_reads = state["ideal_reads"]
        stop = time.perf_counter() + seconds / SETUP_REPEATS
        while time.perf_counter() < stop:
            t0 = time.perf_counter()
            sim = sim_class(chip.net, jitter_ps=JITTER_PS,
                            seed=base_seed + out.attempted,
                            jitter_mode="wire")
            sim.reset()
            reads = drive(chip, sim, protocol)
            t1 = time.perf_counter()
            episode = engine.run_episode(segments)
            t2 = time.perf_counter()
            calibration_ms.append(calibrate())
            out.attempted += 1
            trial_ms.append((t2 - t0) * 1e3)
            replay_ms.append((t2 - t1) * 1e3)
            if trace:
                run_ms.append(sim.run_s * 1e3)
            events.append(sim.events_processed)
            violations.append(len(sim.violations))
            mismatches += reads != ideal_reads
            if len(digested) < DIGEST_TRIALS:
                digested.append((sim.events_processed, len(sim.violations),
                                 reads))
            if episode.mode != "replay":
                out.wrong(f"trial {out.attempted}: ideal arm fell back to "
                          f"the event engine")
            elif fire_counts(replay_chip) != state["ideal_fires"]:
                out.wrong(f"trial {out.attempted}: replayed read-out "
                          f"differs from the recording")
            elif sim.events_processed != episode.events:
                if not sim.violations:
                    out.wrong(f"trial {out.attempted}: "
                              f"{sim.events_processed} jittered events != "
                              f"{episode.events} ideal without a timing "
                              f"violation")
                diverged += 1
        fallbacks += engine.stats["fallbacks"]

    good = out.attempted - out.failed
    reference_ms = to_reference(trial_ms, calibration_ms)
    reference_setup_s = [s * CALIBRATION_REF_MS / c
                         for s, c in zip(setup_s, setup_calibration_ms)]
    latency = out.latency(reference_ms, TAIL_PERCENTILE)
    out.info.update({
        "loop": "closed, 1 caller",
        "op": "one jittered protocol run + one ideal replay",
        "jitter_ps": JITTER_PS,
        "chip": CHIP_SHAPE,
        "ideal_events": state["ideal_events"],
        "readout_mismatches": mismatches,
        "event_count_changes_with_violations": diverged,
        "violations_total": sum(violations),
        "digest": {
            "trials": len(digested),
            "sha256_16": hashlib.sha256(
                json.dumps(digested).encode()
            ).hexdigest()[:16],
        },
        "timings": f"reference-host ms: host ms x {CALIBRATION_REF_MS} / "
                   f"local calibration kernel ms",
        "calibration_ms": {"p10": percentile(calibration_ms, 10),
                           "p50": median(calibration_ms),
                           "p90": percentile(calibration_ms, 90)},
        "host_time": {
            "throughput_per_s": good / (sum(trial_ms) / 1e3),
            "latency_p50_ms": median(trial_ms),
            "latency_tail_ms": percentile(trial_ms, TAIL_PERCENTILE),
            "setup_s": median(setup_s),
        },
        "setup_s_samples": reference_setup_s,
    })
    if not trace:
        out.metrics = {
            "throughput_per_s": good / (sum(reference_ms) / 1e3),
            **latency,
            "peak_rss_mb": self_peak_rss_mb(),
            "setup_s": median(reference_setup_s),
        }
    else:
        # Per-layer times stay in host ms: they split the host time of a
        # trial, and they carry no bound.
        driver_ms = [t - r - p
                     for t, r, p in zip(trial_ms, run_ms, replay_ms)]
        out.metrics = {
            "rsfq.simulator.run_ms": median(run_ms),
            "rsfq.simulator.events_per_s": sum(events) / (sum(run_ms) / 1e3),
            "rsfq.simulator.events": mean(events),
            "rsfq.simulator.violations": mean(violations),
            "neuro.chip.driver_ms": median(driver_ms),
            "rsfq.trace.replay_ms": median(replay_ms),
            "rsfq.trace.fallbacks": fallbacks,
        }
        out.info["traced_latency_p50_ms"] = latency["latency_p50_ms"]
        out.info["stages_mean_ms"] = {
            "op": mean(trial_ms),
            "rsfq.simulator.run": mean(run_ms),
            "neuro.chip.driver": mean(driver_ms),
            "rsfq.trace.replay": mean(replay_ms),
        }
    return out
