"""Trace-compiled gate-level simulation: record once, replay vectorized.

The dominant RSFQ workloads (campaign sweeps, fault Monte-Carlo, jitter
seeds) re-run *one fixed netlist and stimulus schedule* under varied
randomness.  The discrete-event engine pays heap + dispatch cost per
event on every run; this module pays it **once**:

1. **Record** -- :func:`record_trace` runs a single strict-mode, ideal
   (zero-jitter, fault-free) :class:`~repro.rsfq.simulator.Simulator`
   pass over the schedule and flattens it into an immutable
   :class:`CompiledTrace`: numpy arrays of arrival times, integer
   cell/port indices, causal parent edges, and per-event wire transit
   delays, plus the recorded margin table and per-segment event counts.

2. **Replay** -- :class:`TraceEngine` re-executes stimulus variations as
   flat array passes over the trace:

   * *ideal* replays return the recorded outcome directly (the warm
     path -- O(outputs), no event loop at all);
   * *jitter-seed* replays re-time every event level-by-level with
     precomputed per-wire Gaussian offset arrays (the event engine's
     exact per-wire jitter streams), reproducing its floating-point
     association bit-for-bit;
   * *fault-site* replays run the bound fault model's decision streams
     over the recorded wire pulses; a run that would inject nothing is
     served from the trace, anything else diverges.

3. **Divergence => fallback** -- replay is only valid while the run's
   event set and per-cell arrival orders match the recording.  Any tie
   or ordering flip across a constraint window, any fault trigger, an
   uncertifiable emission pattern, or an unsupported configuration falls
   back transparently to the event engine (the PR 2 fast path) with
   bit-identical results; the decision is observable through
   :attr:`TraceEngine.stats` and the process-wide
   :data:`GLOBAL_TRACE_COUNTERS`.

Replay correctness rests on two certified invariants:

* **Emit-constant certification** -- every library cell emits at exactly
  ``arrival + DELAY_PS``; :class:`_BoundTrace` verifies this bitwise
  against the recording (re-timing the whole trace from the class
  constants must reproduce the recorded times exactly).  Certified
  traces can be re-timed under jitter with the engine's exact per-hop
  rounding; uncertified traces still serve ideal replays.

* **Per-cell order preservation** -- cells interact only through
  pulses, so a cell's state trajectory (and every constraint check) is
  a function of its own arrival order.  Replay requires the re-timed
  arrivals at every cell to stay *strictly* increasing in recorded
  order; otherwise the run diverges and falls back.

Traces are content-addressed by ``(netlist fingerprint, schedule
fingerprint)`` and can persist in the SSNN
:class:`~repro.ssnn.compile.PlanCache` under the :data:`TRACE_KIND`
artifact namespace.  See the "Trace compilation" section of
``docs/ENGINE.md``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ConstraintViolationError
from repro.obs import Counters
from repro.rsfq.cells import Cell, Violation
from repro.rsfq.constraints import INTERVAL_EPSILON
from repro.rsfq.faults import FaultModel, fault_site_rng
from repro.rsfq.library import Probe
from repro.rsfq.netlist import Netlist
from repro.rsfq.simulator import Simulator, wire_jitter_rng
from repro.rsfq.waveform import PulseTrace

#: Artifact-kind namespace for traces in the shared ``PlanCache`` root
#: (SSNN plans live under ``repro.ssnn.compile.PLAN_KIND``).
TRACE_KIND = "rsfq-trace"

#: Bumped whenever the on-disk layout or replay semantics change; stale
#: cache entries are rejected at load and recompiled.  Version 2 entries
#: name their fingerprint in ``meta`` (the ``PlanCache`` store's rule).
TRACE_SCHEMA_VERSION = 2

#: Most schedules one :class:`TraceEngine` keeps in memory; the least
#: recently used goes first and is loaded or recorded anew when asked.
_SCHEDULE_MEMO = 16

#: Most jittered transit vectors one bound trace keeps, keyed by
#: ``(seed, sigma)``; the least recently used goes first.
_TRANSIT_MEMO = 8

#: One normalised stimulus: ``(cell name, input port, time in ps)``.
NormStimulus = Tuple[str, str, float]

#: A normalised schedule: one stimulus tuple per ``run()`` segment.
Segments = Tuple[Tuple[NormStimulus, ...], ...]


# -- replay counters ---------------------------------------------------------

#: Process-wide record/replay totals across every :class:`TraceEngine`,
#: scraped by the gateway ``/metrics`` endpoint as ``sushi_trace_*``.
GLOBAL_TRACE_COUNTERS = Counters("sushi_trace", {
    "records": "Gate-level schedules recorded into compiled traces",
    "replays": "Runs served by vectorized trace replay",
    "fallbacks": "Replay requests that fell back to the event engine",
    "cache_hits": "Compiled traces loaded from the plan cache",
    "cache_misses": "Trace-cache lookups that missed",
})


# -- fingerprints ------------------------------------------------------------


def normalize_segments(segments) -> Segments:
    """Canonicalise a schedule: cells to names, times to floats.

    ``segments`` is an iterable of stimulus sequences -- one per
    ``run()`` call, preserving the schedule-then-run interleaving that
    fixes event tie-breaking.
    """
    out = []
    for seg in segments:
        row = []
        for cell, port, time in seg:
            name = cell.name if isinstance(cell, Cell) else str(cell)
            row.append((name, str(port), float(time)))
        out.append(tuple(row))
    return tuple(out)


def netlist_fingerprint(netlist: Netlist) -> str:
    """Content hash of the netlist's structure (cells, types, wiring).

    Two independently-built netlists with identical structure share a
    fingerprint, so a trace recorded on one replays onto the other
    (the campaign's fresh-netlist-per-trial pattern).
    """
    h = hashlib.sha256()
    h.update(f"repro.rsfq.trace/v{TRACE_SCHEMA_VERSION}|netlist\n"
             .encode())
    for cell in netlist.cells.values():
        h.update(f"c|{cell.name}|{type(cell).__name__}\n".encode())
    for wire in netlist.wires:
        h.update(
            f"w|{wire.src}|{wire.src_port}|{wire.dst}|{wire.dst_port}|"
            f"{wire.delay!r}|{wire.jtl_count}\n".encode()
        )
    return h.hexdigest()


def schedule_fingerprint(segments) -> str:
    """Content hash of a normalised stimulus schedule."""
    h = hashlib.sha256()
    h.update(f"repro.rsfq.trace/v{TRACE_SCHEMA_VERSION}|schedule\n"
             .encode())
    for seg in segments:
        h.update(b"segment\n")
        if seg:
            h.update("\n".join(f"{name}|{port}|{time!r}"
                               for name, port, time in seg).encode())
            h.update(b"\n")
    return h.hexdigest()


def trace_fingerprint(netlist_fp: str, schedule_fp: str) -> str:
    """The content address of one (netlist, schedule) trace."""
    return hashlib.sha256(
        f"trace|{netlist_fp}|{schedule_fp}".encode()
    ).hexdigest()


# -- schedule capture --------------------------------------------------------


class ScheduleRecorder(Simulator):
    """Drop-in :class:`Simulator` that logs the explicit stimulus
    schedule it executes, as run-delimited segments.

    This is the bridge from *closed-loop* drivers (e.g.
    :class:`repro.neuro.chip.ChipDriver`, whose schedule times depend on
    ``sim.now`` feedback) to the trace layer's *open-loop* contract:
    drive the recorder once, then hand :meth:`captured_segments` to
    :class:`TraceEngine` -- re-executing those exact segments reproduces
    the original run bit-for-bit, with or without a trace.
    """

    def __init__(self, *args, **kwargs):
        self.segments: List[Tuple[NormStimulus, ...]] = []
        self._pending_stimuli: List[NormStimulus] = []
        super().__init__(*args, **kwargs)

    def schedule_input(self, cell, port, time) -> None:
        super().schedule_input(cell, port, time)
        name = cell.name if isinstance(cell, Cell) else cell
        self._pending_stimuli.append((name, port, float(time)))

    def run(self, *args, **kwargs) -> float:
        self.segments.append(tuple(self._pending_stimuli))
        self._pending_stimuli = []
        return super().run(*args, **kwargs)

    def captured_segments(self) -> Segments:
        """The schedule so far (a trailing un-run batch becomes a final
        segment)."""
        segments = list(self.segments)
        if self._pending_stimuli:
            segments.append(tuple(self._pending_stimuli))
        return tuple(segments)

    def reset(self) -> None:
        super().reset()
        self.segments = []
        self._pending_stimuli = []


# -- recording ---------------------------------------------------------------


class _RecordingSimulator(Simulator):
    """Strict-mode ideal simulator that flattens its run into arrays.

    Each delivered pulse's queue entry is tagged (via the entry's
    sequence number) with the index of the event that emitted it, the
    wire it travelled, and the wire's transit delay; external stimuli
    are tagged with parent -1.  ``run`` drains with a sequence-aware
    loop so every processed event recovers its causal edge.
    """

    def __init__(self, netlist: Netlist):
        self._rec_pending: Dict[int, Tuple[int, int, float]] = {}
        self._rec_times: List[float] = []
        self._rec_ci: List[int] = []
        self._rec_pi: List[int] = []
        self._rec_parent: List[int] = []
        self._rec_wid: List[int] = []
        self._rec_delay: List[float] = []
        self._rec_current = -1
        super().__init__(netlist, strict=True)

    def _deliver_ideal(self, cell, port, time):
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        push = self.queue.push
        pending = self._rec_pending
        src = self._rec_current
        for dst_idx, dst_port_idx, delay, wid in routes:
            entry = push(time + delay, dst_idx, dst_port_idx)
            pending[entry[1]] = (src, wid, delay)

    def schedule_input(self, cell, port, time) -> None:
        seq_before = self.queue._seq
        super().schedule_input(cell, port, time)
        if self.queue._seq != seq_before:
            self._rec_pending[seq_before] = (-1, -1, 0.0)

    def run(self, until=None, max_events: int = 10_000_000,
            deadline_s=None) -> float:
        if until is not None or deadline_s is not None:
            raise ConfigurationError(
                "trace recording supports only full-drain runs "
                "(no until= horizon, no deadline_s=)"
            )
        self._refresh()
        queue = self.queue
        cells = self._cells_view
        ports = self._ports_view
        pop = queue.pop
        pending = self._rec_pending
        times, cis, pis = self._rec_times, self._rec_ci, self._rec_pi
        parents, wids = self._rec_parent, self._rec_wid
        delays = self._rec_delay
        processed = 0
        try:
            while queue:
                if processed >= max_events:
                    raise ConfigurationError(
                        f"simulation exceeded {max_events} events; "
                        "suspected feedback oscillation in the netlist"
                    )
                time, seq, ci, pi = pop()
                src, wid, delay = pending.pop(seq)
                self._rec_current = len(times)
                times.append(time)
                cis.append(ci)
                pis.append(pi)
                parents.append(src)
                wids.append(wid)
                delays.append(delay)
                self.now = time
                cells[ci].receive(ports[ci][pi], time, self)
                processed += 1
        finally:
            self.delivered_pulses += processed
            self.events_processed += processed
        return self.now


def record_trace(netlist: Netlist, segments,
                 max_events: int = 10_000_000) -> "CompiledTrace":
    """One strict-mode ideal pass over ``segments``, flattened.

    Raises :class:`~repro.errors.ConstraintViolationError` if the
    schedule violates a timing constraint even under ideal physics, or
    :class:`~repro.errors.ConfigurationError` on a runaway event count
    -- either way the schedule is untraceable and callers fall back to
    the event engine (which reproduces the same exception for strict
    callers).  The netlist's cell state is left dirty; replay and
    fallback paths reset it.
    """
    segments = normalize_segments(segments)
    recorder = _RecordingSimulator(netlist)
    recorder.reset()
    seg_events: List[int] = []
    for seg in segments:
        before = recorder.events_processed
        for name, port, time in seg:
            recorder.schedule_input(name, port, time)
        recorder.run(max_events=max_events)
        seg_events.append(recorder.events_processed - before)
    return CompiledTrace(
        netlist_fp=netlist_fingerprint(netlist),
        schedule_fp=schedule_fingerprint(segments),
        segments=segments,
        cell_names=tuple(c.name for c in netlist.cells.values()),
        cell_types=tuple(type(c).__name__
                         for c in netlist.cells.values()),
        times=np.asarray(recorder._rec_times, dtype=np.float64),
        ci=np.asarray(recorder._rec_ci, dtype=np.int32),
        pi=np.asarray(recorder._rec_pi, dtype=np.int32),
        parent=np.asarray(recorder._rec_parent, dtype=np.int64),
        wid=np.asarray(recorder._rec_wid, dtype=np.int32),
        wire_delay=np.asarray(recorder._rec_delay, dtype=np.float64),
        seg_events=np.asarray(seg_events, dtype=np.int64),
        final_time_ps=recorder.now,
        margins=dict(recorder.margins),
    )


# -- the compiled artifact ---------------------------------------------------


class CompiledTrace:
    """Immutable flattened recording of one (netlist, schedule) run.

    Pure data -- numpy arrays plus identity metadata -- with a
    ``(meta, arrays)`` encoding, so instances are cheap to
    content-address in the shared plan cache.  All replay machinery
    (levels, constraint records, certification) lives in the
    engine-side binding, rebuilt on load.
    """

    __slots__ = (
        "netlist_fp", "schedule_fp", "fingerprint", "segments",
        "cell_names", "cell_types", "times", "ci", "pi", "parent",
        "wid", "wire_delay", "seg_events", "final_time_ps", "margins",
    )

    def __init__(self, *, netlist_fp, schedule_fp, segments, cell_names,
                 cell_types, times, ci, pi, parent, wid, wire_delay,
                 seg_events, final_time_ps, margins):
        self.netlist_fp = netlist_fp
        self.schedule_fp = schedule_fp
        self.fingerprint = trace_fingerprint(netlist_fp, schedule_fp)
        self.segments = segments
        self.cell_names = cell_names
        self.cell_types = cell_types
        self.times = times
        self.ci = ci
        self.pi = pi
        self.parent = parent
        self.wid = wid
        self.wire_delay = wire_delay
        self.seg_events = seg_events
        self.final_time_ps = final_time_ps
        self.margins = margins

    @property
    def n_events(self) -> int:
        return int(self.times.shape[0])

    def encode(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """This trace as a ``PlanCache`` entry: ``(meta, arrays)``."""
        meta = {
            "schema": TRACE_SCHEMA_VERSION,
            "netlist_fp": self.netlist_fp,
            "schedule_fp": self.schedule_fp,
            "segments": [[list(stim) for stim in seg]
                         for seg in self.segments],
            "cell_names": list(self.cell_names),
            "cell_types": list(self.cell_types),
            "final_time_ps": self.final_time_ps,
            "margins": [[ct, pa, pb, req, act]
                        for (ct, pa, pb), (req, act)
                        in self.margins.items()],
        }
        arrays = {
            "times": self.times,
            "ci": self.ci,
            "pi": self.pi,
            "parent": self.parent,
            "wid": self.wid,
            "wire_delay": self.wire_delay,
            "seg_events": self.seg_events,
        }
        return meta, arrays

    @classmethod
    def decode(cls, meta: dict, arrays) -> "CompiledTrace":
        """Rebuild a trace from its :meth:`encode` entry; raises
        :class:`ConfigurationError` on a stale schema."""
        if meta.get("schema") != TRACE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"compiled trace has schema {meta.get('schema')!r}; "
                f"this build expects {TRACE_SCHEMA_VERSION}"
            )
        return cls(
            netlist_fp=meta["netlist_fp"],
            schedule_fp=meta["schedule_fp"],
            segments=tuple(
                tuple((name, port, float(time))
                      for name, port, time in seg)
                for seg in meta["segments"]
            ),
            cell_names=tuple(meta["cell_names"]),
            cell_types=tuple(meta["cell_types"]),
            times=np.asarray(arrays["times"], dtype=np.float64),
            ci=np.asarray(arrays["ci"], dtype=np.int32),
            pi=np.asarray(arrays["pi"], dtype=np.int32),
            parent=np.asarray(arrays["parent"], dtype=np.int64),
            wid=np.asarray(arrays["wid"], dtype=np.int32),
            wire_delay=np.asarray(arrays["wire_delay"], dtype=np.float64),
            seg_events=np.asarray(arrays["seg_events"], dtype=np.int64),
            final_time_ps=float(meta["final_time_ps"]),
            margins={(ct, pa, pb): (req, act)
                     for ct, pa, pb, req, act in meta["margins"]},
        )


# -- replay ------------------------------------------------------------------


class _Divergence(Exception):
    """Internal control flow: this run cannot be served from the trace."""


class _BoundTrace:
    """A :class:`CompiledTrace` bound to a live netlist for replay.

    Binding resolves everything replay needs into array form once:
    topological levels with parent gathers, per-cell and per-wire event
    groups in recorded order, the offline-reconstructed constraint-check
    records, probe write-back groups, and the emit-constant
    certification verdict.
    """

    def __init__(self, trace: CompiledTrace, netlist: Netlist):
        self.trace = trace
        self.netlist = netlist
        fanout = netlist.elaborate()
        self.fanout = fanout
        names = tuple(c.name for c in fanout.cell_list)
        types = tuple(type(c).__name__ for c in fanout.cell_list)
        if names != trace.cell_names or types != trace.cell_types:
            raise ConfigurationError(
                "compiled trace does not match the netlist's cell list; "
                "record against a structurally identical netlist"
            )
        n = trace.n_events
        ci, parent = trace.ci, trace.parent
        self.delay_const = np.array(
            [float(c.DELAY_PS) for c in fanout.cell_list],
            dtype=np.float64,
        )
        # Topological levels: recorded order is causal (a parent's index
        # precedes its children's), so one forward pass suffices.
        level = np.zeros(n, dtype=np.int64)
        par_list = parent.tolist()
        lv = level.tolist()
        for i, p in enumerate(par_list):
            if p >= 0:
                lv[i] = lv[p] + 1
        level = np.asarray(lv, dtype=np.int64)
        order = np.argsort(level, kind="stable")
        self._levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if n:
            lv_sorted = level[order]
            starts = np.flatnonzero(
                np.r_[True, lv_sorted[1:] != lv_sorted[:-1]]
            )
            bounds = list(starts) + [n]
            for s, e in zip(bounds, bounds[1:]):
                if lv_sorted[s] == 0:
                    continue
                idx = order[s:e]
                pidx = parent[idx]
                self._levels.append(
                    (idx, pidx, self.delay_const[ci[pidx]])
                )
        # Per-cell arrival groups (recorded order), flattened for one
        # vectorized strict-monotonicity check per replay.
        oc = np.argsort(ci, kind="stable")
        self._cell_order = oc
        self._cell_same = (ci[oc][1:] == ci[oc][:-1]) if n else \
            np.zeros(0, dtype=bool)
        # Per-wire pulse groups (recorded order == emission order): the
        # k-th pulse on a wire consumes that wire's k-th decision draw.
        self._wire_groups: List[Tuple[int, np.ndarray]] = []
        routed = np.flatnonzero(trace.wid >= 0)
        if routed.size:
            ow = routed[np.argsort(trace.wid[routed], kind="stable")]
            ws = trace.wid[ow]
            starts = np.flatnonzero(np.r_[True, ws[1:] != ws[:-1]])
            bounds = list(starts) + [int(ow.size)]
            for s, e in zip(bounds, bounds[1:]):
                self._wire_groups.append((int(ws[s]), ow[s:e]))
        # Constraint-check records: replicate Cell.receive's per-arrival
        # bookkeeping offline over the recorded order.
        self._build_checks()
        # Probe write-back groups and per-cell switch counts.
        self._probe_groups = []
        counts = np.bincount(ci, minlength=len(fanout.cell_list)) if n \
            else np.zeros(len(fanout.cell_list), dtype=np.int64)
        self._switch_counts = counts
        ci_list = ci.tolist()
        by_cell: Dict[int, List[int]] = {}
        for i, c in enumerate(ci_list):
            by_cell.setdefault(c, []).append(i)
        for cidx, cell in enumerate(fanout.cell_list):
            if isinstance(cell, Probe) and cidx in by_cell:
                self._probe_groups.append(
                    (cidx, np.asarray(by_cell[cidx], dtype=np.int64))
                )
        self._ci_list = ci_list
        self._port_names = tuple(
            fanout.input_ports[ci_list[i]][trace.pi[i]]
            for i in range(n)
        )
        self.certified = self._certify()
        self._transit_cache: "OrderedDict" = OrderedDict()

    def _build_checks(self) -> None:
        trace, fanout = self.trace, self.fanout
        chk_evt: List[int] = []
        chk_prior: List[int] = []
        chk_req: List[float] = []
        chk_fam: List[int] = []
        fam_keys: List[Tuple[str, str, str]] = []
        fam_req: List[float] = []
        fam_index: Dict[Tuple[str, str, str], int] = {}
        last: List[Dict[str, int]] = [{} for _ in fanout.cell_list]
        ci_list = trace.ci.tolist()
        pi_list = trace.pi.tolist()
        cells = fanout.cell_list
        input_ports = fanout.input_ports
        for i in range(trace.n_events):
            c = ci_list[i]
            port = input_ports[c][pi_list[i]]
            cell = cells[c]
            rules = cell.CONSTRAINTS_BY_PORT.get(port)
            arrivals = last[c]
            if rules is not None:
                for port_a, min_lag, key in rules:
                    j = arrivals.get(port_a)
                    if j is None:
                        continue
                    fi = fam_index.get(key)
                    if fi is None:
                        fi = fam_index[key] = len(fam_keys)
                        fam_keys.append(key)
                        fam_req.append(min_lag)
                    chk_evt.append(i)
                    chk_prior.append(j)
                    chk_req.append(min_lag)
                    chk_fam.append(fi)
            arrivals[port] = i
        self._chk_evt = np.asarray(chk_evt, dtype=np.int64)
        self._chk_prior = np.asarray(chk_prior, dtype=np.int64)
        self._chk_req = np.asarray(chk_req, dtype=np.float64)
        self._chk_fam = np.asarray(chk_fam, dtype=np.int64)
        self._fam_keys = fam_keys
        self._fam_req = fam_req

    # -- re-timing ---------------------------------------------------------

    def _retime(self, transit: np.ndarray) -> np.ndarray:
        """Propagate stimulus times through the causal levels.

        Per hop the association is exactly the engine's:
        ``emit = fl(t_parent + DELAY_PS)`` then
        ``t = fl(emit + transit)`` -- two rounded adds, no re-ordering.
        """
        t = self.trace.times.copy()
        for idx, pidx, pdelay in self._levels:
            t[idx] = (t[pidx] + pdelay) + transit[idx]
        return t

    def _certify(self) -> bool:
        """Bitwise check that re-timing from the library's emit constants
        reproduces the recording exactly (see module docstring)."""
        if self.trace.n_events == 0:
            return True
        return bool(np.array_equal(self._retime(self.trace.wire_delay),
                                   self.trace.times))

    def _jitter_transit(self, seed, sigma: float) -> np.ndarray:
        """Per-event jittered wire transit, from the event engine's exact
        per-wire jitter streams (cached per (seed, sigma))."""
        key = (repr(seed), float(sigma))
        cached = self._transit_cache.get(key)
        if cached is not None:
            self._transit_cache.move_to_end(key)
            return cached
        g = np.zeros(self.trace.n_events, dtype=np.float64)
        for wid, grp in self._wire_groups:
            gauss = wire_jitter_rng(seed, self.fanout.wire_key(wid)).gauss
            g[grp] = [gauss(0.0, sigma) for _ in range(grp.size)]
        transit = self.trace.wire_delay + g
        np.maximum(transit, 0.0, out=transit)
        self._transit_cache[key] = transit
        while len(self._transit_cache) > _TRANSIT_MEMO:
            self._transit_cache.popitem(last=False)
        return transit

    def replay_times(self, jitter_ps: float, seed) -> np.ndarray:
        """Event times for this variation, or raise :class:`_Divergence`."""
        if jitter_ps <= 0.0:
            return self.trace.times
        if not self.certified:
            raise _Divergence(
                "emission pattern not certified for re-timing"
            )
        t = self._retime(self._jitter_transit(seed, jitter_ps))
        tt = t[self._cell_order]
        same = self._cell_same
        if same.size and np.any(tt[1:][same] <= tt[:-1][same]):
            raise _Divergence("arrival ordering flipped within a cell")
        return t

    # -- outcome materialisation -------------------------------------------

    def evaluate(self, t: np.ndarray):
        """Margins and violations of the re-timed run (vectorized
        gather over the recorded constraint checks; value-identical to
        the engine's per-arrival fold)."""
        if not self._chk_evt.size:
            return {}, []
        actual = t[self._chk_evt] - t[self._chk_prior]
        acc = np.full(len(self._fam_keys), np.inf)
        np.minimum.at(acc, self._chk_fam, actual)
        margins = {
            self._fam_keys[f]: (self._fam_req[f], float(acc[f]))
            for f in range(len(self._fam_keys))
            if np.isfinite(acc[f])
        }
        bad = np.flatnonzero((actual + INTERVAL_EPSILON) < self._chk_req)
        violations: List[Violation] = []
        if bad.size:
            order = bad[np.argsort(t[self._chk_evt[bad]], kind="stable")]
            names = self.trace.cell_names
            ci_list = self._ci_list
            for k in order.tolist():
                cell_type, port_a, port_b = \
                    self._fam_keys[self._chk_fam[k]]
                evt = int(self._chk_evt[k])
                violations.append(Violation(
                    component=names[ci_list[evt]],
                    cell_type=cell_type,
                    port_a=port_a,
                    port_b=port_b,
                    required=float(self._chk_req[k]),
                    actual=float(actual[k]),
                    time=float(t[evt]),
                ))
        return margins, violations

    def fault_precheck(self, faults: FaultModel) -> bool:
        """True iff this fault model injects *nothing* over the recorded
        pulses -- the only case a faulted run can be served from the
        trace (stuck cells mark the log at bind time, and any decision
        draw that triggers changes the event set).

        Consumes the same per-wire decision streams in the same pulse
        order as the live engine, so the verdict is exact.
        """
        bound = faults.bind(self.fanout)
        if bound.stuck:
            return False
        if not bound.wire_specs:
            return True
        for wid, grp in self._wire_groups:
            specs = bound.wire_specs.get(wid)
            if not specs:
                continue
            probabilities = [s.probability for s in specs]
            random_ = fault_site_rng(
                faults.seed, self.fanout.wire_key(wid)
            ).random
            for _ in range(int(grp.size)):
                for p in probabilities:
                    if random_() < p:
                        return False
        return True

    def apply_to_netlist(self, t: np.ndarray, target: Netlist) -> None:
        """Write the replayed observations into ``target``'s cells.

        Restores what downstream consumers read -- probe capture lists
        and per-cell switch counts (the dynamic power model's input).
        Per-port arrival scratch state is *not* reconstructed; replayed
        simulators refuse further incremental stepping until reset.
        """
        target.reset_state()
        cells = list(target.cells.values())
        counts = self._switch_counts.tolist()
        for cidx, cell in enumerate(cells):
            cell.switch_count = counts[cidx]
        for cidx, grp in self._probe_groups:
            cells[cidx].times = [float(v) for v in t[grp]]

    def build_pulse_trace(self, t: np.ndarray) -> PulseTrace:
        """A :class:`PulseTrace` of the replayed run, in time order."""
        trace = PulseTrace()
        record = trace.record
        names = self.trace.cell_names
        ci_list = self._ci_list
        ports = self._port_names
        for i in np.argsort(t, kind="stable").tolist():
            record(names[ci_list[i]], ports[i], float(t[i]))
        return trace


# -- the engine --------------------------------------------------------------


@dataclass
class EpisodeResult:
    """Uniform outcome of :meth:`TraceEngine.run_episode`.

    ``mode`` says how the run was served: ``"replay"`` (vectorized, from
    the trace) or ``"fallback"`` (re-executed on the event engine).
    Either way the observable results are bit-identical to a fresh
    :class:`~repro.rsfq.simulator.Simulator` run of the same segments.
    """

    mode: str
    events: int
    final_time_ps: float
    violations: List[Violation] = field(default_factory=list)
    margins: dict = field(default_factory=dict)
    fault_counts: dict = field(default_factory=dict)
    injection_log: tuple = ()
    trace: Optional[PulseTrace] = None


class TraceEngine:
    """Record-once / replay-many executor for one netlist structure.

    Traces are keyed by schedule fingerprint in memory (the
    :data:`_SCHEDULE_MEMO` most recently used) and by
    ``(netlist, schedule)`` fingerprint in the optional ``cache`` (a
    :class:`~repro.ssnn.compile.PlanCache`, under the
    :data:`TRACE_KIND` namespace).  ``stats`` counts records, replays,
    fallbacks and cache traffic for this instance; the process-wide
    :data:`GLOBAL_TRACE_COUNTERS` aggregates across engines.
    """

    def __init__(self, netlist: Netlist, cache=None):
        self.netlist = netlist
        self.cache = cache
        self.stats: Dict[str, int] = dict.fromkeys(
            GLOBAL_TRACE_COUNTERS.help, 0
        )
        self._mem: "OrderedDict[str, object]" = OrderedDict()
        self._netlist_fp: Optional[str] = None
        self._fp_version: Optional[int] = None

    def _bump(self, name: str, n: int = 1) -> None:
        self.stats[name] += n
        GLOBAL_TRACE_COUNTERS.inc(name, n)

    def _fp(self) -> str:
        version = self.netlist.topology_version
        if self._netlist_fp is None or self._fp_version != version:
            self._netlist_fp = netlist_fingerprint(self.netlist)
            self._fp_version = version
            self._mem.clear()
        return self._netlist_fp

    def _remember(self, sfp: str, entry) -> None:
        self._mem[sfp] = entry
        if len(self._mem) > _SCHEDULE_MEMO:
            self._mem.popitem(last=False)

    def _bound(self, segments: Segments, max_events: int,
               allow_record: bool) -> Optional[_BoundTrace]:
        sfp = schedule_fingerprint(segments)
        hit = self._mem.get(sfp)
        if hit is not None:
            self._mem.move_to_end(sfp)
            return None if hit is _UNTRACEABLE else hit
        tfp = trace_fingerprint(self._fp(), sfp)
        trace = None
        if self.cache is not None:
            trace = self.cache.load(tfp, TRACE_KIND, CompiledTrace.decode)
            self._bump("cache_misses" if trace is None else "cache_hits")
        if trace is None:
            if not allow_record:
                return None
            try:
                trace = record_trace(self.netlist, segments,
                                     max_events=max_events)
            except (ConstraintViolationError, ConfigurationError):
                self._remember(sfp, _UNTRACEABLE)
                return None
            self._bump("records")
            if self.cache is not None:
                self.cache.store(tfp, TRACE_KIND, *trace.encode())
        bound = _BoundTrace(trace, self.netlist)
        self._remember(sfp, bound)
        return bound

    def _replay_episode(
        self,
        segments: Segments,
        jitter_ps: float,
        seed,
        faults: Optional[FaultModel],
        strict: bool,
        max_events: int,
        target: Netlist,
        want_trace: bool,
        allow_record: bool,
    ) -> Optional[EpisodeResult]:
        """Serve the episode from the trace, or return None (fallback
        needed -- already counted).  ``target`` may be a *different*
        instance with the same structure (fingerprint-checked); replayed
        observations are written into it.
        """
        if target is not self.netlist and \
                netlist_fingerprint(target) != self._fp():
            self._bump("fallbacks")
            return None
        bound = self._bound(segments, max_events, allow_record)
        if bound is None:
            self._bump("fallbacks")
            return None
        if bound.trace.seg_events.size and \
                int(bound.trace.seg_events.max()) > max_events:
            self._bump("fallbacks")
            return None
        try:
            if faults is not None and faults.active and \
                    not bound.fault_precheck(faults):
                raise _Divergence("fault model injects on this run")
            t = bound.replay_times(jitter_ps, seed)
            if jitter_ps > 0.0:
                margins, violations = bound.evaluate(t)
            else:
                margins, violations = dict(bound.trace.margins), []
            if strict and violations:
                # A strict caller must see the engine's exception with
                # its exact message; re-run on the event engine.
                raise _Divergence("strict run would raise")
        except _Divergence:
            self._bump("fallbacks")
            return None
        bound.apply_to_netlist(t, target)
        pulse_trace = bound.build_pulse_trace(t) if want_trace else None
        self._bump("replays")
        n = bound.trace.n_events
        return EpisodeResult(
            mode="replay",
            events=n,
            final_time_ps=float(t[-1]) if jitter_ps <= 0.0 and n
            else (float(t.max()) if n else 0.0),
            violations=violations,
            margins=margins,
            fault_counts={},
            injection_log=(),
            trace=pulse_trace,
        )

    def run_episode(
        self,
        segments,
        *,
        jitter_ps: float = 0.0,
        seed=None,
        faults: Optional[FaultModel] = None,
        strict: bool = False,
        max_events: int = 10_000_000,
        deadline_s: Optional[float] = None,
        netlist: Optional[Netlist] = None,
        want_trace: bool = False,
        allow_record: bool = True,
    ) -> EpisodeResult:
        """Replay if possible, else re-execute the exact segments on a
        fresh event-engine :class:`Simulator` (bit-identical by
        determinism: same seeds, same per-wire streams, same
        schedule-then-run interleaving)."""
        segments = normalize_segments(segments)
        target = self.netlist if netlist is None else netlist
        episode = self._replay_episode(
            segments, jitter_ps, seed, faults, strict, max_events, target,
            want_trace, allow_record,
        )
        if episode is not None:
            return episode
        sim = Simulator(
            target,
            strict=strict,
            trace=PulseTrace() if want_trace else None,
            jitter_ps=jitter_ps,
            seed=seed,
            faults=faults,
        )
        sim.reset()
        for seg in segments:
            for name, port, time in seg:
                sim.schedule_input(name, port, time)
            sim.run(max_events=max_events, deadline_s=deadline_s)
        return EpisodeResult(
            mode="fallback",
            events=sim.events_processed,
            final_time_ps=sim.now,
            violations=list(sim.violations),
            margins=dict(sim.margins),
            fault_counts=sim.fault_counts(),
            injection_log=sim.injection_log(),
            trace=sim.trace,
        )


class _Untraceable:
    """Sentinel: recording this schedule raised; always fall back."""

    __slots__ = ()


_UNTRACEABLE = _Untraceable()
