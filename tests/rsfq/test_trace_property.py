"""Property tests: trace replay == strict event engine, for random inputs.

Two invariants, over randomly generated small netlists and stimulus
schedules (issue 7 satellite):

* whatever mode an episode is served in, every observable (probe times,
  margins, violation counts, event totals, final time) is bit-identical
  to a fresh event-engine :class:`Simulator` run of the same segments;
* a stimulus schedule the engine has never recorded -- with recording
  disabled -- *provably* takes the fallback path, asserted through the
  replay stats counters, and still returns the bit-identical answer.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.rsfq import Netlist, Simulator, library
from repro.rsfq.trace import TraceEngine

# Cell menu for the random pipelines: single-input single-output stages
# so any stimulus reaches the probe (stateful TFFL included to exercise
# non-trivial flux state in the recording).
STAGES = ("jtl", "tffl")


def build_pipeline(stages, delays):
    net = Netlist("prop")
    prev = None
    for i, (kind, delay) in enumerate(zip(stages, delays)):
        cell = net.add(
            library.JTL(f"c{i}") if kind == "jtl" else library.TFFL(f"c{i}")
        )
        if prev is not None:
            net.connect(prev, "dout", cell, "din", delay=delay)
        prev = cell
    probe = net.add(library.Probe("probe"))
    net.connect(prev, "dout", probe, "din")
    return net, probe


def run_reference(net, segments, **kwargs):
    sim = Simulator(net, **kwargs)
    for seg in segments:
        for name, port, t in seg:
            sim.schedule_input(name, port, t)
        sim.run()
    return sim


netlists = st.tuples(
    st.lists(st.sampled_from(STAGES), min_size=2, max_size=6),
    st.lists(st.sampled_from((2.0, 2.5, 4.0)), min_size=6, max_size=6),
)

# Multiples of 25 ps with generous spacing relative to every Table 1
# constraint, so strict recording usually succeeds; collisions and tight
# spacings still occur via duplicates and are served by fallback.
stimulus_times = st.lists(
    st.integers(min_value=0, max_value=40).map(lambda k: 25.0 * k),
    min_size=1, max_size=8, unique=True,
)

jitter = st.sampled_from(((0.0, None), (0.2, 1), (0.2, "s"), (30.0, 2)))


@settings(max_examples=30, deadline=None)
@given(netlist=netlists, times=stimulus_times, jitter=jitter)
def test_replay_bit_identical_to_event_engine(netlist, times, jitter):
    stages, delays = netlist
    sigma, seed = jitter
    segment = tuple(("c0", "din", t) for t in sorted(times))

    net_a, probe_a = build_pipeline(stages, delays)
    ref = run_reference(net_a, (segment,), jitter_ps=sigma, seed=seed)

    net_b, probe_b = build_pipeline(stages, delays)
    engine = TraceEngine(net_b)
    episode = engine.run_episode((segment,), jitter_ps=sigma, seed=seed)

    assert episode.mode in ("replay", "fallback")
    assert probe_b.times == probe_a.times
    assert episode.events == ref.events_processed
    assert episode.final_time_ps == ref.now
    assert episode.margins == dict(ref.margins)
    assert len(episode.violations) == len(ref.violations)
    served = engine.stats["replays"] + engine.stats["fallbacks"]
    assert served == 1


@settings(max_examples=20, deadline=None)
@given(netlist=netlists, times=stimulus_times,
       shift=st.sampled_from((25.0, 75.0)))
def test_unseen_stimulus_provably_falls_back(netlist, times, shift):
    stages, delays = netlist
    recorded = tuple(("c0", "din", t) for t in sorted(times))
    # A schedule the trace has never seen: same shape, shifted times.
    unseen = tuple(("c0", "din", t + shift) for _, _, t in recorded)

    net, _ = build_pipeline(stages, delays)
    engine = TraceEngine(net)
    engine.run_episode((recorded,))
    before = dict(engine.stats)

    net_b, probe_b = build_pipeline(stages, delays)
    episode = engine.run_episode(
        (unseen,), netlist=net_b, allow_record=False
    )
    assert episode.mode == "fallback"
    assert engine.stats["fallbacks"] == before["fallbacks"] + 1
    assert engine.stats["records"] == before["records"]

    net_c, probe_c = build_pipeline(stages, delays)
    run_reference(net_c, (unseen,))
    assert probe_b.times == probe_c.times
