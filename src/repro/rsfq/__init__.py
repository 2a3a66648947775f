"""Discrete-event simulator for RSFQ superconducting circuits.

This package is the hardware substrate of the SUSHI reproduction: an
event-driven, pulse-level simulator of rapid single-flux-quantum (RSFQ)
cells.  Information is carried by SFQ pulses; a cell reacts to a pulse on an
input port, updates its internal flux state, and may emit pulses on output
ports after a per-cell delay.  Cells enforce the minimum pulse-interval
constraints of the paper's Table 1.

Typical use::

    from repro.rsfq import Netlist, Simulator, library

    net = Netlist("demo")
    tff = net.add(library.TFFL("t0"))
    probe = net.add(library.Probe("p0"))
    net.connect(tff, "dout", probe, "din")

    sim = Simulator(net)
    sim.schedule_input(tff, "din", 0.0)
    sim.schedule_input(tff, "din", 50.0)
    sim.run()
    assert probe.times == [pytest.approx(6.9)]  # one pulse per two inputs
"""

from repro.rsfq.cells import Cell, Violation
from repro.rsfq.constraints import (
    CB_CROSS_INTERVAL,
    DFF_DIN_TO_CLK,
    MIN_PULSE_INTERVAL,
    NDRO_DIN_RST_SEPARATION,
    NDRO_DIN_TO_CLK,
    NDRO_RST_TO_CLK,
    TFF_MIN_INTERVAL,
)
from repro.rsfq.events import EventQueue, PulseEvent
from repro.rsfq.faults import (
    FAULT_KINDS,
    FaultModel,
    FaultSpec,
    InjectionRecord,
    canonical_log,
    fault_site_rng,
)
from repro.rsfq.netlist import FanoutTable, Netlist, Wire
from repro.rsfq.simulator import Simulator, wire_jitter_rng
from repro.rsfq.trace import (
    GLOBAL_TRACE_COUNTERS,
    TRACE_KIND,
    CompiledTrace,
    EpisodeResult,
    ScheduleRecorder,
    TraceEngine,
    netlist_fingerprint,
    record_trace,
    schedule_fingerprint,
)
from repro.rsfq.waveform import (
    PulseTrace,
    levels_to_pulses,
    pulses_to_levels,
    render_waveform,
)
from repro.rsfq import library
from repro.rsfq import logic
from repro.rsfq.analysis import PathTiming, earliest_arrival
from repro.rsfq.export import from_json, to_dot, to_json

__all__ = [
    "Cell",
    "Violation",
    "PulseEvent",
    "EventQueue",
    "Netlist",
    "FanoutTable",
    "Wire",
    "Simulator",
    "wire_jitter_rng",
    "FAULT_KINDS",
    "FaultModel",
    "FaultSpec",
    "InjectionRecord",
    "canonical_log",
    "fault_site_rng",
    "CompiledTrace",
    "TraceEngine",
    "EpisodeResult",
    "ScheduleRecorder",
    "GLOBAL_TRACE_COUNTERS",
    "TRACE_KIND",
    "record_trace",
    "netlist_fingerprint",
    "schedule_fingerprint",
    "PulseTrace",
    "levels_to_pulses",
    "pulses_to_levels",
    "render_waveform",
    "library",
    "logic",
    "PathTiming",
    "earliest_arrival",
    "from_json",
    "to_dot",
    "to_json",
    "MIN_PULSE_INTERVAL",
    "CB_CROSS_INTERVAL",
    "TFF_MIN_INTERVAL",
    "NDRO_DIN_RST_SEPARATION",
    "NDRO_DIN_TO_CLK",
    "NDRO_RST_TO_CLK",
    "DFF_DIN_TO_CLK",
]
