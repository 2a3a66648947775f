"""Discrete-event simulation engine for RSFQ netlists.

The engine is tuned around one observation: at gate level every Fig. 16 /
19 / 20 experiment is millions of identical micro-steps (pop event,
dispatch to cell, push fan-out), so the per-event constant factor *is*
the benchmark.  The hot path therefore

* moves bare ``(time, seq, cell_idx, port_idx)`` tuples through the
  event heap -- no per-event object allocation
  (:class:`~repro.rsfq.events.PulseEvent` is materialised only at trace
  and debug boundaries);
* resolves cells and ports to integer indices once, at netlist
  elaboration (:meth:`~repro.rsfq.netlist.Netlist.elaborate`), instead of
  string-keyed dict lookups per pulse;
* hoists the jitter and trace branches out of the inner loop: ``deliver``
  is bound to a jitter-specialised variant at construction, and ``run``
  dispatches to trace / no-trace loop variants.

See ``docs/ENGINE.md`` for the architecture overview and
:mod:`repro.rsfq.trace` for the record-once / replay-vectorized engine
that is cross-checked against this one.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    ConfigurationError,
    ConstraintViolationError,
    DeadlineExceededError,
    FaultInjectionError,
)
from repro.rsfq.cells import Cell, Violation
from repro.rsfq.events import EventQueue
from repro.rsfq.faults import FaultModel, canonical_log
from repro.rsfq.netlist import Netlist
from repro.rsfq.waveform import PulseTrace

#: External stimulus: ``(cell or cell name, input port, time in ps)``.
Stimulus = Tuple[Union[Cell, str], str, float]

#: Jitter stream modes (see :class:`Simulator` ``jitter_mode``).
JITTER_MODES = ("global", "wire")


def wire_jitter_rng(seed, wire_key: str) -> random.Random:
    """The deterministic jitter stream of one wire (``jitter_mode="wire"``).

    Seeding :class:`random.Random` with a *string* uses CPython's stable
    (sha512-based) seeding, so the stream depends only on ``(seed,
    wire_key)`` -- never on hash randomisation or execution order.  This
    is what makes jittered runs bit-identical between :class:`Simulator`
    and the vectorized replays of :class:`repro.rsfq.trace.TraceEngine`.
    """
    return random.Random(f"{seed!r}|{wire_key}")


def margin_report_rows(margins: dict) -> List[dict]:
    """Render a ``{(cell_type, port_a, port_b): (required, tightest)}``
    margin table as slack rows, tightest (most negative slack) first."""
    rows = []
    for (cell_type, port_a, port_b), (required, actual) in sorted(
        margins.items(), key=lambda kv: kv[1][1] - kv[1][0]
    ):
        rows.append({
            "cell": cell_type,
            "constraint": f"{port_a}-{port_b}",
            "required_ps": round(required, 2),
            "tightest_ps": round(actual, 2),
            "slack_ps": round(actual - required, 2),
        })
    return rows


def merge_margins(target: dict, source: dict) -> None:
    """Fold ``source`` margin observations into ``target`` (tightest wins)."""
    for key, (required, actual) in source.items():
        current = target.get(key)
        if current is None or actual < current[1]:
            target[key] = (required, actual)


@dataclass(frozen=True)
class RunStats:
    """Per-run execution statistics (returned by :meth:`Simulator.run_batch`
    and :class:`~repro.rsfq.session.SimulationSession`).

    Attributes:
        events: Events processed during the run.
        final_time_ps: Simulation time when the run finished.
        delivered_pulses: Pulses delivered during the run.
        violations: Timing violations recorded during the run.
        wall_time_s: Host wall-clock seconds the run took.
    """

    events: int
    final_time_ps: float
    delivered_pulses: int
    violations: int
    wall_time_s: float


class Simulator:
    """Event-driven simulator over a :class:`~repro.rsfq.netlist.Netlist`.

    Args:
        netlist: The circuit to simulate.
        strict: When True, a timing-constraint violation raises
            :class:`~repro.errors.ConstraintViolationError`; otherwise
            violations are recorded in :attr:`violations`.
        trace: Optional :class:`~repro.rsfq.waveform.PulseTrace` recording
            every pulse arrival (for waveform rendering).
        jitter_ps: Standard deviation of Gaussian wire-delay jitter.  Zero
            for ideal simulation; non-zero models fabrication/thermal
            variation of the physical chip (used as the "measured chip" side
            of the Fig. 16 comparison).
        seed: Seed for the jitter random stream (deterministic runs).
        jitter_mode: How jitter draws are sequenced.

            * ``"global"`` (default, legacy): one stream consumed in
              delivery order -- fast, but the draw a given wire receives
              depends on the global event interleaving.
            * ``"wire"``: one independent stream per wire, derived from
              ``(seed, wire identity)`` via :func:`wire_jitter_rng` -- the
              k-th pulse on a wire always gets that wire's k-th draw, so
              jittered results are independent of event interleaving and
              bit-identical between the event loop and trace replay.
              With ``seed=None`` the mode behaves as a fixed default seed
              (still deterministic).

    The simulator resolves the netlist's routing through
    :meth:`Netlist.elaborate`, so the per-pulse hot path performs integer
    indexing instead of cell resolution; the elaboration is memoised on
    the netlist and shared across simulators and runs.
    """

    def __init__(
        self,
        netlist: Netlist,
        strict: bool = False,
        trace: Optional[PulseTrace] = None,
        jitter_ps: float = 0.0,
        seed: Optional[int] = None,
        jitter_mode: str = "global",
        faults: Optional[FaultModel] = None,
    ):
        if jitter_mode not in JITTER_MODES:
            raise ConfigurationError(
                f"unknown jitter_mode '{jitter_mode}'; "
                f"available: {list(JITTER_MODES)}"
            )
        self.netlist = netlist
        self.strict = strict
        self.trace = trace
        self.jitter_ps = float(jitter_ps)
        self.jitter_mode = jitter_mode
        self._seed = seed
        self._rng = random.Random(seed)
        self._wire_rngs: dict = {}
        self.faults = faults
        self.queue = EventQueue()
        self.now = 0.0
        self.violations: List[Violation] = []
        #: Total pulses delivered (event count) -- activity metric.
        self.delivered_pulses = 0
        #: Total events processed across all runs since the last reset.
        self.events_processed = 0
        #: Minimum observed interval per constraint family:
        #: (cell_type, port_a, port_b) -> (required, tightest_actual).
        self.margins: dict = {}
        #: Set after a ``run(engine="traced")`` replay: the results were
        #: materialised from a compiled trace, so incremental stepping
        #: is refused until :meth:`reset` (see repro.rsfq.trace).
        self._trace_replayed = False
        self._trace_engine = None
        self._fanout = netlist.elaborate()
        self._install_views()
        self._bind_deliver()

    def _install_views(self) -> None:
        """Resolve the cell/port views the run loops index through.

        Without faults these are exactly the fan-out table's tuples (same
        objects, zero overhead).  With an active fault model they come
        from the model's bound runtime, which may append flux-trap proxies
        past the real cells (see :mod:`repro.rsfq.faults`).
        """
        if self.faults is not None and self.faults.active:
            self._fault_runtime = self.faults.bind(self._fanout)
            self._cells_view = self._fault_runtime.cells_view
            self._ports_view = self._fault_runtime.ports_view
        else:
            self._fault_runtime = None
            self._cells_view = self._fanout.cell_list
            self._ports_view = self._fanout.input_ports

    def _bind_deliver(self) -> None:
        """Bind ``deliver`` to the jitter/fault-specialised variant (hoists
        both branches out of the per-event hot path).

        With an active fault model every delivery runs through the fault
        decision procedure (which also handles per-wire jitter); the
        zero-fault configurations below are untouched, so attaching
        ``faults=None`` (or an empty model) keeps the allocation-free fast
        path byte-for-byte.

        When the instance has not overridden ``_deliver_ideal`` (the trace
        layer's recording simulator does, to log causal edges), the ideal
        variant is further specialised to push entries straight onto the
        underlying heap, skipping the queue's Python-level ``push``
        wrapper.
        """
        if self._fault_runtime is not None:
            if self.jitter_ps > 0.0 and self.jitter_mode != "wire":
                raise FaultInjectionError(
                    "fault injection with jitter requires "
                    "jitter_mode='wire': the legacy global jitter stream "
                    "is consumed in delivery order and cannot be "
                    "reproduced under faults"
                )
            self.deliver = self._deliver_faulty
        elif self.jitter_ps <= 0.0:
            if type(self)._deliver_ideal is Simulator._deliver_ideal:
                self.deliver = self._deliver_ideal_heap
            else:
                self.deliver = self._deliver_ideal
        elif self.jitter_mode == "wire":
            self.deliver = self._deliver_jitter_wire
        else:
            self.deliver = self._deliver_jitter_global

    def _refresh(self) -> None:
        """Re-elaborate if the netlist grew since the last elaboration.

        Elaboration preserves the indices of already-present cells
        (insertion order is stable), so entries already in the queue stay
        valid across a refresh.
        """
        if self._fanout.version != self.netlist.topology_version:
            self._fanout = self.netlist.elaborate()
            self._install_views()
            self._bind_deliver()

    # -- scheduling --------------------------------------------------------

    def schedule_input(
        self, cell: Union[Cell, str], port: str, time: float
    ) -> None:
        """Inject an external pulse into ``cell.port`` at ``time`` (ps).

        ``time`` must be at or after the current simulation time
        :attr:`now`: scheduling *at exactly* ``now`` is allowed (the pulse
        is processed in the next :meth:`run` call, after any event already
        queued for the same instant), while scheduling in the past raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if self._trace_replayed:
            raise ConfigurationError(
                "this simulator's state was materialised from a trace "
                "replay; call reset() before scheduling further inputs"
            )
        cell = self._resolve(cell)
        if port not in cell.INPUTS:
            raise ConfigurationError(
                f"cell '{cell.name}' has no input port '{port}'"
            )
        if time < self.now:
            raise ConfigurationError(
                f"cannot schedule input for '{cell.name}.{port}' at "
                f"{time} ps: simulation time is already {self.now} ps "
                "(inputs must be scheduled at or after the current time)"
            )
        self._refresh()
        cell_idx, port_idx = self._fanout.resolve_endpoint(cell.name, port)
        fr = self._fault_runtime
        if fr is not None and fr.swallow_external(
            cell_idx, cell.name, port, time
        ):
            return
        self.queue.push(time, cell_idx, port_idx)

    # -- delivery variants (bound to ``deliver`` at construction) ----------

    def _deliver_ideal(self, cell: Cell, port: str, time: float) -> None:
        """Propagate an output pulse along the port's wire (no jitter)."""
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        push = self.queue.push
        for dst_idx, dst_port_idx, delay, _wid in routes:
            push(time + delay, dst_idx, dst_port_idx)

    def _deliver_ideal_heap(self, cell: Cell, port: str, time: float) -> None:
        """:meth:`_deliver_ideal` specialised for the stock heap backend:
        entries go straight onto the underlying heap (same tuples, same
        sequence numbering, no ``push`` wrapper call per pulse)."""
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        queue = self.queue
        heap = queue._heap
        seq = queue._seq
        for dst_idx, dst_port_idx, delay, _wid in routes:
            heappush(heap, (time + delay, seq, dst_idx, dst_port_idx))
            seq += 1
        queue._seq = seq

    def _deliver_jitter_global(self, cell: Cell, port: str, time: float) -> None:
        """Jittered delivery drawing from the single global stream (in
        delivery order -- the legacy behaviour behind the golden jitter
        snapshots)."""
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        push = self.queue.push
        gauss = self._rng.gauss
        sigma = self.jitter_ps
        for dst_idx, dst_port_idx, delay, _wid in routes:
            jittered = delay + gauss(0.0, sigma)
            if jittered < 0.0:
                jittered = 0.0
            push(time + jittered, dst_idx, dst_port_idx)

    def _deliver_jitter_wire(self, cell: Cell, port: str, time: float) -> None:
        """Jittered delivery drawing from per-wire streams (stable under
        any event interleaving; see :func:`wire_jitter_rng`)."""
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        push = self.queue.push
        sigma = self.jitter_ps
        rngs = self._wire_rngs
        fanout = self._fanout
        for dst_idx, dst_port_idx, delay, wid in routes:
            rng = rngs.get(wid)
            if rng is None:
                rng = rngs[wid] = wire_jitter_rng(
                    self._seed, fanout.wire_key(wid)
                )
            jittered = delay + rng.gauss(0.0, sigma)
            if jittered < 0.0:
                jittered = 0.0
            push(time + jittered, dst_idx, dst_port_idx)

    def _deliver_faulty(self, cell: Cell, port: str, time: float) -> None:
        """Delivery under an active fault model (bound when ``faults`` has
        at least one spec).

        Per route: draw the (optional) per-wire jitter, then let the bound
        fault runtime decide the pulse's fate -- drop it, delay it, spawn
        an echo, reroute it through a flux-trap proxy, or swallow it at a
        stuck cell -- and push whatever survives.  All decision streams
        are per-wire and consumed in pulse order, so faulty runs do not
        depend on event interleaving.
        """
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        fr = self._fault_runtime
        sigma = self.jitter_ps
        push = self.queue.push
        if sigma > 0.0:
            rngs = self._wire_rngs
            fanout = self._fanout
            for dst_idx, dst_port_idx, delay, wid in routes:
                rng = rngs.get(wid)
                if rng is None:
                    rng = rngs[wid] = wire_jitter_rng(
                        self._seed, fanout.wire_key(wid)
                    )
                jittered = delay + rng.gauss(0.0, sigma)
                if jittered < 0.0:
                    jittered = 0.0
                for entry in fr.route_pulse(
                    wid, dst_idx, dst_port_idx, time + jittered
                ):
                    push(*entry)
        else:
            for dst_idx, dst_port_idx, delay, wid in routes:
                for entry in fr.route_pulse(
                    wid, dst_idx, dst_port_idx, time + delay
                ):
                    push(*entry)

    # ``deliver`` is rebound per instance; this definition keeps the
    # method documented and subclass-overridable.
    deliver = _deliver_ideal

    # -- execution ---------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        deadline_s: Optional[float] = None,
        engine: Optional[str] = None,
    ) -> float:
        """Process events (optionally only up to time ``until``).

        Returns the final simulation time.  ``max_events`` guards against
        runaway feedback loops in malformed circuits: the run raises
        :class:`~repro.errors.ConfigurationError` after processing exactly
        ``max_events`` events with work still pending (a run that
        *completes* on its last allowed event does not raise).

        ``deadline_s`` adds a *wall-clock* guard alongside the event
        guard: when set, the run raises
        :class:`~repro.errors.DeadlineExceededError` once the host clock
        exceeds the budget with events still pending (checked every 1024
        events so the guard costs nothing on the hot path; a run that
        drains its queue in time never pays more than the checks).  The
        specialised zero-overhead loops below are only used when no
        deadline is requested.

        ``engine="traced"`` serves the run from the record-once /
        replay-vectorized trace layer when possible (see
        :mod:`repro.rsfq.trace`): the scheduled stimuli are fingerprinted,
        recorded once on a strict ideal pass, and this run's variation
        (jitter seed, silent fault model) is materialised as flat array
        passes -- falling back transparently to this event loop whenever
        replay cannot reproduce the run bit-for-bit.  After a replay the
        simulator refuses further stepping until :meth:`reset` (replay
        restores observations, not mid-episode scratch state).
        """
        if self._trace_replayed:
            raise ConfigurationError(
                "this simulator's state was materialised from a trace "
                "replay; call reset() before running again"
            )
        if engine is not None:
            if engine != "traced":
                raise ConfigurationError(
                    f"unknown engine '{engine}'; available: ('traced',)"
                )
            return self._run_traced(until, max_events, deadline_s)
        if deadline_s is not None:
            return self._run_with_deadline(until, max_events, deadline_s)
        self._refresh()
        queue = self.queue
        cells = self._cells_view
        ports = self._ports_view
        pop = queue.pop
        processed = 0
        try:
            if self.trace is None:
                if until is None:
                    # Fastest path: no trace, no horizon -- pop entries
                    # straight off the underlying heap (C-level
                    # ``heappop``, list truthiness instead of the queue's
                    # ``__bool__``/``pop`` wrappers).
                    heap = queue._heap
                    while heap:
                        if processed >= max_events:
                            raise ConfigurationError(
                                f"simulation exceeded {max_events} events; "
                                "suspected feedback oscillation in the netlist"
                            )
                        time, _seq, ci, pi = heappop(heap)
                        self.now = time
                        cell = cells[ci]
                        cell.receive(ports[ci][pi], time, self)
                        processed += 1
                else:
                    peek = queue.peek_time
                    while queue:
                        if peek() > until:
                            break
                        if processed >= max_events:
                            raise ConfigurationError(
                                f"simulation exceeded {max_events} events; "
                                "suspected feedback oscillation in the netlist"
                            )
                        time, _seq, ci, pi = pop()
                        self.now = time
                        cell = cells[ci]
                        cell.receive(ports[ci][pi], time, self)
                        processed += 1
            else:
                trace = self.trace
                peek = queue.peek_time
                while queue:
                    if until is not None and peek() > until:
                        break
                    if processed >= max_events:
                        raise ConfigurationError(
                            f"simulation exceeded {max_events} events; "
                            "suspected feedback oscillation in the netlist"
                        )
                    time, _seq, ci, pi = pop()
                    self.now = time
                    cell = cells[ci]
                    port = ports[ci][pi]
                    trace.record(cell.name, port, time)
                    cell.receive(port, time, self)
                    processed += 1
        finally:
            self.delivered_pulses += processed
            self.events_processed += processed
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_with_deadline(
        self,
        until: Optional[float],
        max_events: int,
        deadline_s: float,
    ) -> float:
        """The :meth:`run` loop with a periodic wall-clock check.

        Kept out of :meth:`run` so the deadline-free fast paths stay
        branchless; the clock is sampled every 1024 events (and once per
        run for short runs), which bounds overrun to one check interval.
        """
        if deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")
        deadline = _time.perf_counter() + deadline_s
        self._refresh()
        queue = self.queue
        cells = self._cells_view
        ports = self._ports_view
        pop = queue.pop
        peek = queue.peek_time
        trace = self.trace
        processed = 0
        try:
            while queue:
                if until is not None and peek() > until:
                    break
                if processed >= max_events:
                    raise ConfigurationError(
                        f"simulation exceeded {max_events} events; "
                        "suspected feedback oscillation in the netlist"
                    )
                if not processed & 0x3FF and \
                        _time.perf_counter() > deadline:
                    raise DeadlineExceededError(
                        f"simulation exceeded its {deadline_s}s wall-clock "
                        f"deadline after {processed} events at "
                        f"t={self.now:.2f} ps with work still pending"
                    )
                time, _seq, ci, pi = pop()
                self.now = time
                cell = cells[ci]
                port = ports[ci][pi]
                if trace is not None:
                    trace.record(cell.name, port, time)
                cell.receive(port, time, self)
                processed += 1
        finally:
            self.delivered_pulses += processed
            self.events_processed += processed
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_traced(
        self,
        until: Optional[float],
        max_events: int,
        deadline_s: Optional[float],
    ) -> float:
        """Serve :meth:`run` from the trace layer (``engine="traced"``).

        Eligible only for a whole episode from the power-on state with
        un-overridden delivery; anything else --
        and any replay-side divergence -- re-enters the normal event
        loop on the already-populated queue, which is bit-identical by
        construction.
        """
        from repro.rsfq import trace as trace_mod

        eligible = (
            until is None
            and deadline_s is None
            and self.now == 0.0
            and self.events_processed == 0
            and type(self)._deliver_ideal is Simulator._deliver_ideal
        )
        if not eligible:
            trace_mod.GLOBAL_TRACE_COUNTERS.inc("fallbacks")
            return self.run(until=until, max_events=max_events,
                            deadline_s=deadline_s)
        engine = self._trace_engine
        if engine is None or engine.netlist is not self.netlist:
            engine = self._trace_engine = trace_mod.TraceEngine(
                self.netlist
            )
        self._refresh()
        fanout = self._fanout
        entries = sorted(self.queue._heap, key=lambda e: e[1])
        segment = tuple(
            (fanout.cell_list[ci].name, fanout.input_ports[ci][pi], time)
            for time, _seq, ci, pi in entries
        )
        episode = engine.replay_episode(
            (segment,),
            jitter_ps=self.jitter_ps,
            seed=self._seed,
            jitter_mode=self.jitter_mode,
            faults=self.faults,
            strict=self.strict,
            max_events=max_events,
            want_trace=self.trace is not None,
        )
        if episode is None:
            return self.run(max_events=max_events)
        self.queue.clear()
        self.now = episode.final_time_ps
        self.violations.extend(episode.violations)
        merge_margins(self.margins, episode.margins)
        self.delivered_pulses += episode.events
        self.events_processed += episode.events
        if self.trace is not None and episode.trace is not None:
            record = self.trace.record
            for component, port, time in episode.trace.events():
                record(component, port, time)
        self._trace_replayed = True
        return self.now

    def run_batch(
        self,
        batches: Iterable[Sequence[Stimulus]],
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        deadline_s: Optional[float] = None,
    ) -> List[RunStats]:
        """Execute several independent stimulus sets, resetting between runs.

        Each element of ``batches`` is a sequence of ``(cell, port, time)``
        stimuli describing one run; the circuit state, clock, queue and the
        seeded jitter/fault streams are all restored before each run (see
        :meth:`reset` -- every sample replays from the simulator's seed, so
        batch results can never depend on batch order or on earlier
        samples; Monte-Carlo batches should vary the seed per trial, e.g.
        via :class:`repro.rsfq.session.SimulationSession` ``seeds=`` or
        :meth:`repro.rsfq.faults.FaultModel.reseeded`).  The netlist
        elaboration is resolved once and shared across the batch.
        ``deadline_s`` (when set) bounds each run's wall-clock time.

        Returns one :class:`RunStats` per stimulus set.  For richer per-run
        control (per-run traces, seeds, aggregate stats) use
        :class:`repro.rsfq.session.SimulationSession`.
        """
        stats: List[RunStats] = []
        for stimuli in batches:
            self.reset()
            for cell, port, time in stimuli:
                self.schedule_input(cell, port, time)
            events_before = self.events_processed
            start = _time.perf_counter()
            final = self.run(until=until, max_events=max_events,
                             deadline_s=deadline_s)
            wall = _time.perf_counter() - start
            stats.append(RunStats(
                events=self.events_processed - events_before,
                final_time_ps=final,
                delivered_pulses=self.delivered_pulses,
                violations=len(self.violations),
                wall_time_s=wall,
            ))
        return stats

    def report_violation(self, violation: Violation) -> None:
        """Record (or raise, in strict mode) a timing violation.

        The strict-mode message is prefixed with the simulation time and
        the violating cell's name so a raise deep inside a batch or
        campaign pinpoints *when* and *where* the circuit broke without
        consulting :attr:`violations`.
        """
        self.violations.append(violation)
        if self.strict:
            raise ConstraintViolationError(
                f"at t={violation.time:.2f} ps in cell "
                f"'{violation.component}': {violation}"
            )

    # -- fault observability ----------------------------------------------

    def injection_log(self):
        """The run's injected faults in canonical (engine-independent)
        order; empty without an active fault model.  See
        :func:`repro.rsfq.faults.canonical_log`."""
        if self._fault_runtime is None:
            return ()
        return canonical_log(self._fault_runtime.log)

    def fault_counts(self) -> dict:
        """Per-kind injected-fault totals (empty without a fault model)."""
        if self._fault_runtime is None:
            return {}
        return dict(self._fault_runtime.counts)

    def record_margin(self, cell_type: str, port_a: str, port_b: str,
                      required: float, actual: float) -> None:
        """Track the tightest observed interval per constraint family
        (called by cells on every checked arrival)."""
        key = (cell_type, port_a, port_b)
        current = self.margins.get(key)
        if current is None or actual < current[1]:
            self.margins[key] = (required, actual)

    def margin_report(self):
        """Slack per constraint family, tightest first.

        Returns a list of dicts with the constraint identity, the required
        minimum interval, the tightest observed interval, and the slack
        (observed - required; negative = violated).  This is the timing
        sign-off view a designer reads before tape-out.
        """
        return margin_report_rows(self.margins)

    # -- helpers -----------------------------------------------------------

    def _resolve(self, cell: Union[Cell, str]) -> Cell:
        if isinstance(cell, Cell):
            return cell
        if cell not in self.netlist.cells:
            raise ConfigurationError(f"no cell named '{cell}'")
        return self.netlist.cells[cell]

    def reset(self) -> None:
        """Restore the simulator to its construction state.

        Clears pending events, time, violations, margins, traces and all
        cell state, *and* reseeds every stochastic stream (the global
        jitter RNG, the per-wire jitter streams, and any bound fault
        runtime) from the construction seed.  After ``reset()`` a replay
        of the same stimuli is therefore bit-identical to the first run
        -- the invariant :meth:`run_batch` and the Monte-Carlo campaign
        harness rely on.  To model *fresh* physical randomness, construct
        a new simulator (or session run) with a different ``seed``.
        """
        self.queue.clear()
        self.now = 0.0
        self.violations.clear()
        self.delivered_pulses = 0
        self.events_processed = 0
        self.margins.clear()
        self._trace_replayed = False
        self._rng = random.Random(self._seed)
        self._wire_rngs.clear()
        if self._fault_runtime is not None:
            self._fault_runtime.reset()
        self.netlist.reset_state()
        if self.trace is not None:
            self.trace.clear()
