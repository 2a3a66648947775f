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
from heapq import heappop, heappush
from math import cos as _cos, log as _log, pi as _pi, sin as _sin, \
    sqrt as _sqrt
from typing import List, Optional, Union

from repro.errors import (
    ConfigurationError,
    ConstraintViolationError,
    DeadlineExceededError,
)
from repro.rsfq.cells import Cell, Violation
from repro.rsfq.events import EventQueue
from repro.rsfq.faults import FaultModel, canonical_log
from repro.rsfq.netlist import Netlist
from repro.rsfq.waveform import PulseTrace

_TWOPI = 2.0 * _pi


def wire_jitter_rng(seed, wire_key: str) -> random.Random:
    """The deterministic jitter stream of one wire.

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
        seed: Seed of the jitter streams.  Every wire draws from its own
            stream, derived from ``(seed, wire identity)`` via
            :func:`wire_jitter_rng`: the k-th pulse on a wire always gets
            that wire's k-th draw, so jittered results are independent of
            event interleaving and bit-identical between the event loop
            and trace replay.  ``seed=None`` is a fixed seed like any
            other, so unseeded jittered runs are deterministic too.
        jitter_mode: Accepted for compatibility; ``"wire"`` (per-wire
            streams, above) is the only value.

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
        jitter_mode: str = "wire",
        faults: Optional[FaultModel] = None,
    ):
        if jitter_mode != "wire":
            raise ConfigurationError(
                f"unknown jitter_mode '{jitter_mode}'; available: ['wire']"
            )
        self.netlist = netlist
        self.strict = strict
        self.trace = trace
        self.jitter_ps = float(jitter_ps)
        self._seed = seed
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
        """
        if self._fault_runtime is not None:
            self.deliver = self._deliver_faulty
        elif self.jitter_ps <= 0.0:
            self.deliver = self._deliver_ideal
        else:
            self.deliver = self._deliver_jitter_wire

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
        """Propagate an output pulse along the port's wire (no jitter).

        Entries go straight onto the queue's heap (the tuples and sequence
        numbering of :meth:`EventQueue.push`, without a wrapper call per
        pulse)."""
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

    def _deliver_jitter_wire(self, cell: Cell, port: str, time: float) -> None:
        """Jittered delivery drawing from per-wire streams (stable under
        any event interleaving; see :func:`wire_jitter_rng`).

        Pushes onto the heap as :meth:`_deliver_ideal` does, and takes
        each wire's ``gauss(0.0, sigma)`` draw in place: the same
        Box-Muller arithmetic over two ``random()`` calls, with the
        pair's second value cached in the stream's ``gauss_next``.
        (``gauss`` returns ``0.0 + z * sigma``, which differs from
        ``z * sigma`` only in the sign of a zero; adding the delay erases
        that.)
        """
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        queue = self.queue
        heap = queue._heap
        seq = queue._seq
        sigma = self.jitter_ps
        rngs = self._wire_rngs
        for dst_idx, dst_port_idx, delay, wid in routes:
            rng = rngs.get(wid)
            if rng is None:
                rng = rngs[wid] = wire_jitter_rng(
                    self._seed, self._fanout.wire_key(wid)
                )
            z = rng.gauss_next
            if z is None:
                uniform = rng.random
                x2pi = uniform() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            else:
                rng.gauss_next = None
            jittered = delay + z * sigma
            if jittered < 0.0:
                jittered = 0.0
            heappush(heap, (time + jittered, seq, dst_idx, dst_port_idx))
            seq += 1
        queue._seq = seq

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
        """
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
        cell state, *and* reseeds every stochastic stream (the per-wire
        jitter streams and any bound fault runtime) from the construction
        seed.  After ``reset()`` a replay of the same stimuli is therefore
        bit-identical to the first run.  To model *fresh* physical
        randomness, construct a new simulator with a different ``seed``.
        """
        self.queue.clear()
        self.now = 0.0
        self.violations.clear()
        self.delivered_pulses = 0
        self.events_processed = 0
        self.margins.clear()
        self._wire_rngs.clear()
        if self._fault_runtime is not None:
            self._fault_runtime.reset()
        self.netlist.reset_state()
        if self.trace is not None:
            self.trace.clear()
