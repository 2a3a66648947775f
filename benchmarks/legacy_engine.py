"""A faithful replica of the pre-optimisation event loop, for benchmarks.

The fast-path work in :mod:`repro.rsfq.simulator` (tuple queue entries,
integer-indexed dispatch, hoisted jitter/trace branches) is only a win if
we can measure it against the engine it replaced.  :class:`LegacySimulator`
reproduces that engine's hot path exactly as it stood before the rework:

* queue entries carry **string** cell / port names;
* every pop materialises a :class:`~repro.rsfq.events.PulseEvent` object;
* dispatch goes through the string-keyed ``FanoutTable.cells`` dict and
  the string-keyed ``routes`` view;
* the jitter branch is evaluated **per delivered pulse** inside
  ``deliver`` rather than specialised at construction;
* the trace branch is evaluated **per event** inside the loop;
* constraint checking scans the cell's **whole** ``CONSTRAINTS`` table on
  every arrival (the per-port ``CONSTRAINTS_BY_PORT`` split came with the
  rework), exactly as the old ``Cell.receive`` did.

It subclasses :class:`~repro.rsfq.simulator.Simulator`, so cells interact
with it through the very same ``deliver`` / ``report_violation`` /
``record_margin`` surface -- the physics is bit-identical (asserted by
``test_simulator_speedup.py``); only the per-event constant factor
differs.  That makes ``events/sec(new) / events/sec(legacy)`` a clean
measurement of the optimisation, on the same interpreter, same day.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.neuro.chip import ChipConfig, ChipDriver, GateLevelChip
from repro.neuro.state_controller import Polarity
from repro.rsfq import library
from repro.rsfq.cells import Violation
from repro.rsfq.netlist import Netlist
from repro.rsfq.constraints import INTERVAL_EPSILON
from repro.rsfq.events import PulseEvent
from repro.rsfq.simulator import Simulator

from repro.errors import ConfigurationError


def _legacy_receive(cell, port, time, sim):
    """The pre-rework ``Cell.receive``: per-event port validation plus a
    scan of the *entire* constraint table (physics identical to the
    current per-port fast path, constant factor higher)."""
    if port not in cell.INPUTS:
        raise ConfigurationError(
            f"cell '{cell.name}' ({type(cell).__name__}) has no input "
            f"port '{port}'; ports are {cell.INPUTS}"
        )
    for (port_a, port_b), min_lag in cell.CONSTRAINTS.items():
        if port_b != port:
            continue
        last = cell._last_arrival.get(port_a)
        if last is None:
            continue
        actual = time - last
        sim.record_margin(type(cell).__name__, port_a, port_b,
                          min_lag, actual)
        if actual + INTERVAL_EPSILON < min_lag:
            sim.report_violation(Violation(
                component=cell.name,
                cell_type=type(cell).__name__,
                port_a=port_a,
                port_b=port,
                required=min_lag,
                actual=actual,
                time=time,
            ))
    cell._last_arrival[port] = time
    cell.switch_count += 1
    cell.on_pulse(port, time, sim)


class LegacySimulator(Simulator):
    """The pre-rework engine: per-event object allocation + string dispatch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The base class binds ``deliver`` to a jitter-specialised fast
        # variant at construction; rebind to the legacy single variant
        # with the per-pulse jitter branch inside, drawing from one
        # delivery-order stream as the pre-rework engine did.
        self.deliver = self._legacy_deliver
        self._rng = random.Random(self._seed)

    def schedule_input(self, cell, port, time):
        # Same validation as the base class, but queue entries carry the
        # *names* (the pre-rework representation).
        cell = self._resolve(cell)
        if port not in cell.INPUTS:
            raise ConfigurationError(
                f"cell '{cell.name}' has no input port '{port}'"
            )
        if time < self.now:
            raise ConfigurationError(
                f"cannot schedule input for '{cell.name}.{port}' at "
                f"{time} ps: simulation time is already {self.now} ps"
            )
        self._refresh()
        self.queue.push(time, cell.name, port)

    def _legacy_deliver(self, cell, port, time):
        for dst, dst_port, delay in self._fanout.fanout(cell.name, port):
            if self.jitter_ps > 0.0:
                delay = max(0.0, delay + self._rng.gauss(0.0, self.jitter_ps))
            self.queue.push(time + delay, dst, dst_port)

    def run(self, until=None, max_events=10_000_000):
        self._refresh()
        cells = self._fanout.cells
        queue = self.queue
        trace = self.trace
        processed = 0
        while queue:
            next_time = queue.peek_time()
            if until is not None and next_time > until:
                break
            if processed >= max_events:
                raise ConfigurationError(
                    f"simulation exceeded {max_events} events; suspected "
                    "feedback oscillation in the netlist"
                )
            event = PulseEvent.from_entry(queue.pop())
            self.now = event.time
            cell = cells[event.component]
            if trace is not None:
                trace.record(event.component, event.port, event.time)
            _legacy_receive(cell, event.port, event.time, self)
            self.delivered_pulses += 1
            processed += 1
        self.events_processed += processed
        if until is not None and until > self.now:
            self.now = until
        return self.now


# -- the standard benchmark workload ---------------------------------------


@dataclass
class WorkloadResult:
    """Outcome of one engine running the reference workload."""

    engine: str
    events: int
    violations: int
    wall_time_s: float
    outputs: tuple  #: per-repeat ``read_out()`` results (physics check)

    @property
    def events_per_sec(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.events / self.wall_time_s


def run_chip_workload(
    sim_factory: Optional[Callable[[GateLevelChip], Simulator]] = None,
    engine: str = "fast",
    n: int = 2,
    sc_per_npe: int = 4,
    repeats: int = 6,
) -> WorkloadResult:
    """Drive the reference gate-level protocol and time the event loop.

    The workload is a fixed, fully deterministic multi-timestep inference
    on the Fig. 16 gate-level chip: per repeat, one threshold load, one
    weight configuration, and four polarity passes.  All engines process
    exactly the same pulses, so ``events`` is engine-independent (the
    drift check in ``bench_report.py --check`` pins it) while
    ``wall_time_s`` measures the per-event constant factor.
    """
    chip = GateLevelChip(ChipConfig(n=n, sc_per_npe=sc_per_npe))
    if sim_factory is not None:
        sim = sim_factory(chip)
    elif engine == "legacy":
        sim = LegacySimulator(chip.net)
    elif engine == "fast":
        sim = chip.simulator()
    else:
        raise ConfigurationError(f"unknown workload engine '{engine}'")
    return _drive_protocol(chip, sim, engine, n, repeats)


def _drive_protocol(chip, sim, engine, n, repeats) -> WorkloadResult:

    driver = ChipDriver(chip, sim)
    outputs = []
    start = _time.perf_counter()
    for r in range(repeats):
        driver.begin_timestep([2 + (r % 2)] * n)
        driver.configure_weights(
            [[(i + j + r) % 2 for j in range(n)] for i in range(n)]
        )
        driver.run_pass(Polarity.SET1, [True] * n)
        driver.run_pass(Polarity.SET1, [i % 2 == 0 for i in range(n)])
        driver.run_pass(Polarity.SET0, [r % 2 == 1] * n)
        driver.run_pass(Polarity.SET1, [True] * n)
        outputs.append(tuple(driver.read_out()))
    wall = _time.perf_counter() - start
    return WorkloadResult(
        engine=engine,
        events=sim.events_processed,
        violations=len(sim.violations),
        wall_time_s=wall,
        outputs=tuple(outputs),
    )


def run_trace_replay_workload(
    n: int = 2,
    sc_per_npe: int = 4,
    repeats: int = 6,
    replays: int = 20,
) -> dict:
    """Record-once / replay-many measurement on the chip workload.

    Captures the exact ``chip_n2_sc4_r6`` stimulus schedule with a
    :class:`~repro.rsfq.trace.ScheduleRecorder`, records it into a
    :class:`~repro.rsfq.trace.CompiledTrace` (cold cost), then times
    ``replays`` warm vectorized replays against the same number of
    fast-path re-executions of the identical segments on a fresh
    :class:`~repro.rsfq.simulator.Simulator`.  The deterministic fields
    (events, violations, replay/fallback counts, bit-equality verdict)
    are pinned by ``bench_report.py --check``; wall-clock numbers are
    informational.  The enforced ">= 5x" gate lives in
    ``test_trace_speedup.py``.
    """
    from repro.rsfq.trace import ScheduleRecorder, TraceEngine

    chip = GateLevelChip(ChipConfig(n=n, sc_per_npe=sc_per_npe))
    recorder = ScheduleRecorder(chip.net)
    _drive_protocol(chip, recorder, "capture", n, repeats)
    segments = recorder.captured_segments()
    baseline_fires = [list(chip.fire_times(j)) for j in range(n)]

    chip_t = GateLevelChip(ChipConfig(n=n, sc_per_npe=sc_per_npe))
    engine = TraceEngine(chip_t.net)
    start = _time.perf_counter()
    episode = engine.run_episode(segments)
    record_s = _time.perf_counter() - start

    start = _time.perf_counter()
    for _ in range(replays):
        episode = engine.run_episode(segments)
    warm_s = _time.perf_counter() - start
    traced_fires = [list(chip_t.fire_times(j)) for j in range(n)]

    chip_f = GateLevelChip(ChipConfig(n=n, sc_per_npe=sc_per_npe))
    sim = chip_f.simulator()
    start = _time.perf_counter()
    for _ in range(replays):
        sim.reset()
        for segment in segments:
            for name, port, time in segment:
                sim.schedule_input(name, port, time)
            sim.run()
    fast_s = _time.perf_counter() - start
    fast_fires = [list(chip_f.fire_times(j)) for j in range(n)]

    warm_per_replay = warm_s / replays
    fast_per_run = fast_s / replays
    return {
        "events": episode.events,
        "violations": len(episode.violations),
        "replays": engine.stats["replays"],
        "fallbacks": engine.stats["fallbacks"],
        "replay_equal": (
            traced_fires == baseline_fires == fast_fires
            and episode.mode == "replay"
        ),
        "record_wall_s": round(record_s, 6),
        "warm_replay_wall_s": round(warm_per_replay, 6),
        "fast_wall_s": round(fast_per_run, 6),
        "speedup_warm_replay_over_fast": round(
            fast_per_run / warm_per_replay, 3
        ) if warm_per_replay > 0 else 0.0,
    }


def run_chain_workload(
    engine: str = "fast", n: int = 300, pulses: int = 150
) -> WorkloadResult:
    """Pure event-churn workload: a long JTL chain fed many pulses.

    ``pulses`` stimuli fan into ``n * pulses`` events with almost no
    scheduling overhead, isolating the per-event constant factor of the
    event loop itself (the chip workload above includes the driver
    protocol around it).
    """
    net = Netlist("bench-chain")
    cells = [net.add(library.JTL(f"j{i}")) for i in range(n)]
    for a, b in zip(cells, cells[1:]):
        net.connect(a, "dout", b, "din", delay=25.0)
    if engine == "legacy":
        sim = LegacySimulator(net)
    elif engine == "fast":
        sim = Simulator(net)
    else:
        raise ConfigurationError(f"unknown workload engine '{engine}'")
    for k in range(pulses):
        sim.schedule_input(cells[0], "din", 25.0 * k * 2)
    start = _time.perf_counter()
    sim.run()
    wall = _time.perf_counter() - start
    return WorkloadResult(
        engine=engine,
        events=sim.events_processed,
        violations=len(sim.violations),
        wall_time_s=wall,
        outputs=(),
    )
