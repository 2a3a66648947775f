"""Golden jittered physics of the 2x2 chip at the Monte-Carlo sigma.

Most chip-level jitter tests run at 0.3-0.6 ps, which moves pulses
without breaking a Table 1 window, or at 120 ps, which diverges from the
recorded schedule.  At 3 ps, the sigma of the gate-level Monte-Carlo
study, some trials push two pulses inside a timing window: the simulator
records violations and the event count can change.  This test drives a
seeded multi-step protocol through ``ChipDriver`` on jittered simulators
and pins a sha256 over everything the trial simulates -- event count,
every ``Violation`` field, the margin table, the fire times and the
read-outs -- so any change to the jitter streams, the delivery order or
the constraint checks shows up as a different digest.

Floats enter the digest as ``float.hex`` so the pin is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.neuro.chip import ChipConfig, ChipDriver, GateLevelChip
from repro.neuro.multistate import Polarity
from repro.rsfq.simulator import Simulator

N = 2
SC_PER_NPE = 4
JITTER_PS = 3.0
TIME_STEPS = 6
PASSES_PER_STEP = 4
PROTOCOL_SEED = 2431
JITTER_SEEDS = (0, 1, 2, 3, 4, 5)
GOLDEN_SHA256 = (
    "bd3fa63d25dbb0797f63f990b2881adb27b315a59692ba33762b4e0ba06462f4"
)


def make_protocol(seed):
    """Per time step: thresholds, a weight matrix and polarity passes."""
    rng = random.Random(seed)
    steps = []
    for _ in range(TIME_STEPS):
        thresholds = [rng.randint(1, 4) for _ in range(N)]
        weights = [[rng.randint(0, 1) for _ in range(N)] for _ in range(N)]
        passes = [
            (Polarity.SET0 if rng.random() < 0.3 else Polarity.SET1,
             [rng.random() < 0.7 for _ in range(N)])
            for _ in range(PASSES_PER_STEP)
        ]
        steps.append((thresholds, weights, passes))
    return steps


def run_trial(chip, protocol, seed):
    sim = Simulator(chip.net, jitter_ps=JITTER_PS, seed=seed)
    sim.reset()  # clears the cell state the previous trial left in chip
    driver = ChipDriver(chip, sim)
    reads = []
    for thresholds, weights, passes in protocol:
        driver.begin_timestep(thresholds)
        driver.configure_weights(weights)
        for polarity, spikes in passes:
            driver.run_pass(polarity, spikes)
        reads.append(driver.read_out())
    return {
        "events": sim.events_processed,
        "violations": [
            [v.component, v.cell_type, v.port_a, v.port_b,
             v.required.hex(), v.actual.hex(), v.time.hex()]
            for v in sim.violations
        ],
        "margins": sorted(
            [*key, required.hex(), actual.hex()]
            for key, (required, actual) in sim.margins.items()
        ),
        "fires": [[t.hex() for t in chip.fire_times(j)] for j in range(N)],
        "reads": reads,
    }


def test_jittered_chip_physics_matches_golden_digest():
    chip = GateLevelChip(ChipConfig(n=N, sc_per_npe=SC_PER_NPE))
    protocol = make_protocol(PROTOCOL_SEED)
    trials = [run_trial(chip, protocol, seed) for seed in JITTER_SEEDS]
    assert any(trial["violations"] for trial in trials), \
        "the pinned trials must reach the timing-violation regime"
    digest = hashlib.sha256(
        json.dumps(trials, sort_keys=True).encode()
    ).hexdigest()
    assert digest == GOLDEN_SHA256
