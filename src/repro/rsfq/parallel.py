"""Partitioned parallel gate-level simulation (conservative synchronisation).

SUSHI's NPEs are asynchronous and pulse-driven by construction -- no
global clock couples them -- so a chip netlist cut along the inter-NPE /
mesh wires (:mod:`repro.rsfq.partition`) decomposes into logical
processes that only interact through positive-delay wires.  This module
runs one event loop per partition under a conservative Chandy--Misra
style protocol:

* **Lookahead** -- each cut channel's lookahead is the minimum wire delay
  across that cut (:attr:`~repro.rsfq.partition.PartitionPlan.channel_lookahead`).
  With jitter enabled the wire delay is no longer a lower bound (draws
  are clamped at zero), so the lookahead falls back to the minimum
  *emission* delay (``DELAY_PS``) of the driving cells -- an output pulse
  can never leave earlier than its cell's propagation delay.
* **Null-message time advancement** -- instead of point-to-point null
  messages, every round recomputes all channel clocks at a barrier from
  the partitions' queue heads (``clock(u->v) = earliest possible activity
  of u + lookahead(u->v)``), which is exactly the information an
  all-to-all null-message exchange would carry.  Each partition then
  processes every event strictly below its channel-clock bound.
* **Deterministic merge** -- cross-partition pulses collect in
  per-partition outboxes during a round and are delivered at the barrier
  in (source partition, emission order); merged traces / violations /
  margins are ordered deterministically.  Results are independent of the
  executor (``"serial"`` or ``"thread"``) and of the partition count.

Equivalence to the sequential :class:`~repro.rsfq.simulator.Simulator`
is *physical*: every cell sees the identical pulse sequence on its
ports, so per-channel pulse times, violations, margins and final state
are bit-identical.  The only freedom is the interleaving of events that
occur at exactly the same simulated time in *different* partitions (the
sequential engine orders those by global scheduling order, the parallel
engine by partition index); no cell behaviour can depend on that order.
Jittered runs require ``jitter_mode="wire"`` (the default here): each
wire owns an independent, stably-seeded stream
(:func:`~repro.rsfq.simulator.wire_jitter_rng`), consumed in pulse order
along that wire, so the draws do not depend on which partition the wire
landed in.  The legacy ``"global"`` single-stream mode consumes draws in
global delivery order and therefore cannot be reproduced by any
partitioned execution -- requesting it raises.

CPython's GIL means the ``"thread"`` executor buys little wall-clock on
pure-Python cells; it exists to exercise the protocol and because the
round structure is what a free-threaded / multiprocess backend would
reuse unchanged.  The partitioned engine's value today is the protocol
itself (verified bit-identical) plus windowed execution; see
``docs/ENGINE.md``.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeoutError
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    WorkerTimeoutError,
)
from repro.rsfq.cells import Cell, Violation
from repro.rsfq.faults import FaultModel, InjectionRecord, canonical_log
from repro.rsfq.netlist import Netlist
from repro.rsfq.partition import PartitionPlan, partition_netlist
from repro.rsfq.simulator import (
    RunStats,
    Simulator,
    Stimulus,
    margin_report_rows,
    merge_margins,
)
from repro.rsfq.waveform import PulseTrace

_INF = float("inf")

#: Tolerance for the runtime lookahead guard (matches the scale of
#: repro.rsfq.constraints.INTERVAL_EPSILON).
_LOOKAHEAD_EPSILON = 1e-9

EXECUTORS = ("serial", "thread")

#: Worker-timeout policies (see :class:`ParallelSimulator`).
TIMEOUT_POLICIES = ("fallback", "raise")


class _LocalEngine(Simulator):
    """One partition's event loop: a :class:`Simulator` whose delivery is
    ownership-aware (local destinations go to the local queue, remote
    destinations to the outbox for barrier delivery)."""

    def __init__(self, netlist: Netlist, part_index: int,
                 owner_of: Sequence[int],
                 send_lookahead: Mapping[int, float], **kwargs):
        #: This partition's index.
        self._part_index = part_index
        #: cell_idx -> owning partition index (shared, read-only).
        self._owner_of = owner_of
        #: dst partition -> claimed lookahead of the (me -> dst) channel
        #: (runtime guard against partitionings that break the protocol).
        self._send_lookahead = send_lookahead
        #: Cross-partition pulses emitted this round:
        #: ``(dst_partition, time, dst_idx, dst_port_idx)`` in emission order.
        self.outbox: List[Tuple[int, float, int, int]] = []
        super().__init__(netlist, **kwargs)

    # -- ownership-aware delivery (rebound by Simulator._bind_deliver) ----

    def _send_remote(self, dst_part: int, time: float,
                     dst_idx: int, dst_port_idx: int) -> None:
        lookahead = self._send_lookahead.get(dst_part, 0.0)
        if time + _LOOKAHEAD_EPSILON < self.now + lookahead:
            raise ConfigurationError(
                f"lookahead violation on channel {self._part_index} -> "
                f"{dst_part}: pulse arrives at {time} ps but the channel "
                f"promised now+{lookahead} ps (now={self.now}); the "
                "partitioning cut a faster path than its lookahead claims"
            )
        self.outbox.append((dst_part, time, dst_idx, dst_port_idx))

    def _deliver_ideal(self, cell: Cell, port: str, time: float) -> None:
        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        owner_of = self._owner_of
        me = self._part_index
        push = self.queue.push
        for dst_idx, dst_port_idx, delay, _wid in routes:
            if owner_of[dst_idx] == me:
                push(time + delay, dst_idx, dst_port_idx)
            else:
                self._send_remote(owner_of[dst_idx], time + delay,
                                  dst_idx, dst_port_idx)

    def _deliver_jitter_wire(self, cell: Cell, port: str, time: float) -> None:
        from repro.rsfq.simulator import wire_jitter_rng

        routes = self._fanout.routes_idx.get((cell.name, port))
        if not routes:
            return
        owner_of = self._owner_of
        me = self._part_index
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
            if owner_of[dst_idx] == me:
                push(time + jittered, dst_idx, dst_port_idx)
            else:
                self._send_remote(owner_of[dst_idx], time + jittered,
                                  dst_idx, dst_port_idx)

    def _deliver_jitter_global(self, cell, port, time):  # pragma: no cover
        raise ConfigurationError(
            "jitter_mode='global' cannot run partitioned (single stream "
            "consumed in global delivery order); use jitter_mode='wire'"
        )

    def _dispatch_entry(self, entry, dst_idx: int) -> None:
        """Ownership-aware push of one fault-processed queue entry.

        ``dst_idx`` is the *real* destination cell index -- ``entry[1]``
        may address a flux-trap proxy, whose index is identical in every
        partition's cell view (the view layout is a pure function of the
        shared fan-out table and fault model), so proxy entries cross
        partitions safely.
        """
        owner = self._owner_of[dst_idx]
        if owner == self._part_index:
            self.queue.push(*entry)
        else:
            self._send_remote(owner, entry[0], entry[1], entry[2])

    # -- windowed execution ------------------------------------------------

    def run_window(self, bound: float, until: float, budget: int) -> int:
        """Process local events with ``time < bound`` and ``time <= until``.

        ``bound`` is the conservative channel-clock bound (no future
        cross-partition arrival can be earlier).  Returns the number of
        events processed; raises through :data:`budget` exhaustion with
        runnable work pending, mirroring ``Simulator.run``'s guard.
        """
        queue = self.queue
        cells = self._cells_view
        ports = self._ports_view
        pop = queue.pop
        peek = queue.peek_time
        trace = self.trace
        processed = 0
        try:
            while queue:
                head = peek()
                if head >= bound or head > until:
                    break
                if processed >= budget:
                    raise ConfigurationError(
                        "simulation exceeded the event budget; suspected "
                        "feedback oscillation in the netlist"
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
        return processed


class ParallelSimulator:
    """Partitioned, conservatively-synchronised drop-in for
    :class:`~repro.rsfq.simulator.Simulator`.

    Args:
        netlist: The circuit to simulate (must not grow afterwards).
        parts: Requested partition count (>= 2 for actual partitioning;
            the plan may contain fewer on small netlists).
        hints: Optional ``cell name -> group key`` partition hints (e.g.
            :meth:`repro.neuro.chip.GateLevelChip.partition_hints`).
        plan: Pre-computed :class:`~repro.rsfq.partition.PartitionPlan`
            (overrides ``parts``/``hints``).
        strict / trace / jitter_ps / seed: As on
            :class:`Simulator`.  ``trace`` receives the deterministic
            merge of the per-partition traces after every :meth:`run`.
        jitter_mode: Only ``"wire"`` is supported (see module docs).
        executor: ``"serial"`` (default) or ``"thread"`` -- both produce
            identical results; threads demonstrate the barrier protocol.
        faults: Optional :class:`~repro.rsfq.faults.FaultModel`.  Each
            partition binds its own runtime over the shared model; fault
            decisions are per-wire streams consumed in pulse order, so a
            faulty partitioned run is bit-identical to the sequential
            engine under the same seed (see ``docs/FAULTS.md``).
        worker_timeout_s: Optional per-round wall-clock budget for the
            ``"thread"`` executor's workers.  When a round's workers miss
            the budget the engine waits for them to finish (threads cannot
            be killed safely), records the timeout in
            :attr:`worker_timeouts`, and then applies
            ``on_worker_timeout``.
        on_worker_timeout: ``"fallback"`` (default) degrades to the
            ``"serial"`` executor for the remaining rounds (recorded in
            :attr:`fell_back_to_serial`); ``"raise"`` raises
            :class:`~repro.errors.WorkerTimeoutError` after the round's
            barrier completes, leaving the engine in a consistent,
            resumable state.

    The public surface mirrors ``Simulator``: :meth:`schedule_input`,
    :meth:`run`, :meth:`run_batch`, :meth:`reset`, :attr:`now`,
    :attr:`violations`, :attr:`margins`, :meth:`margin_report`,
    :attr:`events_processed`, :attr:`delivered_pulses` -- so
    :class:`repro.neuro.chip.ChipDriver` and the differential harness
    drive either engine unchanged.
    """

    def __init__(
        self,
        netlist: Netlist,
        parts: int = 2,
        hints: Optional[Mapping[str, object]] = None,
        plan: Optional[PartitionPlan] = None,
        strict: bool = False,
        trace: Optional[PulseTrace] = None,
        jitter_ps: float = 0.0,
        seed: Optional[int] = None,
        jitter_mode: str = "wire",
        executor: str = "serial",
        faults: Optional[FaultModel] = None,
        worker_timeout_s: Optional[float] = None,
        on_worker_timeout: str = "fallback",
    ):
        if jitter_mode != "wire":
            raise ConfigurationError(
                f"ParallelSimulator requires jitter_mode='wire', got "
                f"{jitter_mode!r}: the legacy global jitter stream is "
                "consumed in global delivery order and cannot be "
                "reproduced by a partitioned execution"
            )
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor '{executor}'; available: {list(EXECUTORS)}"
            )
        if on_worker_timeout not in TIMEOUT_POLICIES:
            raise ConfigurationError(
                f"unknown on_worker_timeout '{on_worker_timeout}'; "
                f"available: {list(TIMEOUT_POLICIES)}"
            )
        if worker_timeout_s is not None and worker_timeout_s <= 0:
            raise ConfigurationError(
                f"worker_timeout_s must be > 0, got {worker_timeout_s}"
            )
        self.netlist = netlist
        self.strict = strict
        self.trace = trace
        self.jitter_ps = float(jitter_ps)
        self.executor = executor
        self.faults = faults
        self.worker_timeout_s = worker_timeout_s
        self.on_worker_timeout = on_worker_timeout
        #: Rounds whose thread workers missed ``worker_timeout_s``.
        self.worker_timeouts = 0
        #: True once a worker timeout degraded execution to the serial
        #: executor (the self-healing path; see ``docs/FAULTS.md``).
        self.fell_back_to_serial = False
        self.plan = plan if plan is not None else partition_netlist(
            netlist, parts=parts, hints=hints
        )
        self._fanout = netlist.elaborate()
        self._now = 0.0

        # cell_idx -> owning partition (dense array for the hot path).
        owner = self.plan.owner
        self._owner_of = [owner[cell.name] for cell in self._fanout.cell_list]

        # Conservative channel lookaheads.  Ideal wires: minimum wire
        # delay per cut (the plan's figure).  Jittered wires: the draw is
        # clamped at zero, so only the driving cell's emission delay
        # (DELAY_PS) is guaranteed -- use the per-channel minimum of it.
        if self.jitter_ps > 0.0:
            self._channel_lookahead = self._jitter_lookahead()
        else:
            self._channel_lookahead = dict(self.plan.channel_lookahead)

        n_parts = self.plan.n_partitions
        self._engines: List[_LocalEngine] = []
        for p in range(n_parts):
            send_la = {
                dst: la for (src, dst), la in self._channel_lookahead.items()
                if src == p
            }
            self._engines.append(_LocalEngine(
                netlist,
                part_index=p,
                owner_of=self._owner_of,
                send_lookahead=send_la,
                strict=strict,
                trace=None if trace is None else PulseTrace(),
                jitter_ps=jitter_ps,
                seed=seed,
                jitter_mode="wire",
                faults=faults,
            ))
        # Restrict each partition's bind-time stuck marks to the cells it
        # owns, so the merged injection log equals the sequential one
        # (stuck *behaviour* stays global in every runtime).
        if faults is not None and faults.active:
            owner_map = self.plan.owner
            for p, engine in enumerate(self._engines):
                runtime = engine._fault_runtime
                if runtime is not None:
                    runtime.restrict_stuck_marks(
                        name for name, op in owner_map.items() if op == p
                    )
        # In-channel (src, lookahead) lists per partition, for the bounds.
        self._channels_into = [
            sorted(
                (src, la) for (src, dst), la in self._channel_lookahead.items()
                if dst == p
            )
            for p in range(n_parts)
        ]
        self._min_in_lookahead = [
            min((la for _src, la in chans), default=None)
            for chans in self._channels_into
        ]
        #: Trace-log high-water marks per partition (merge bookkeeping).
        self._trace_marks = [0] * n_parts
        #: Synchronisation rounds executed (protocol observability).
        self.rounds = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- lookahead ---------------------------------------------------------

    def _jitter_lookahead(self) -> Dict[Tuple[int, int], float]:
        lookahead: Dict[Tuple[int, int], float] = {}
        owner = self.plan.owner
        cells = self._fanout.cells
        for wire in self.plan.cut_wires:
            key = (owner[wire.src], owner[wire.dst])
            emission = float(cells[wire.src].DELAY_PS)
            if emission <= 0.0:
                raise ConfigurationError(
                    f"cut wire {wire.src}.{wire.src_port} -> "
                    f"{wire.dst}.{wire.dst_port} is driven by a "
                    "zero-delay cell: with jitter enabled the channel "
                    "has no positive lookahead -- repartition so the "
                    "cut falls behind a cell with DELAY_PS > 0"
                )
            current = lookahead.get(key)
            if current is None or emission < current:
                lookahead[key] = emission
        return lookahead

    # -- Simulator-compatible surface -------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def violations(self) -> List[Violation]:
        """All recorded violations, ordered deterministically by
        (time, component, ports)."""
        merged: List[Violation] = []
        for engine in self._engines:
            merged.extend(engine.violations)
        merged.sort(key=lambda v: (v.time, v.component, v.port_a, v.port_b))
        return merged

    @property
    def margins(self) -> dict:
        merged: dict = {}
        for engine in self._engines:
            merge_margins(merged, engine.margins)
        return merged

    def margin_report(self):
        """Merged slack report across partitions, tightest first (same
        format as :meth:`Simulator.margin_report`)."""
        return margin_report_rows(self.margins)

    @property
    def events_processed(self) -> int:
        return sum(e.events_processed for e in self._engines)

    @property
    def delivered_pulses(self) -> int:
        return sum(e.delivered_pulses for e in self._engines)

    def partition_summary(self) -> str:
        """Human-readable plan summary (partition sizes, cut, lookahead)."""
        return self.plan.summary()

    def injection_log(self) -> Tuple[InjectionRecord, ...]:
        """The merged, canonically-ordered injection log across partitions
        (compares equal to :meth:`Simulator.injection_log` for the same
        seeded workload; empty without an active fault model)."""
        records: List[InjectionRecord] = []
        for engine in self._engines:
            records.extend(engine.injection_log())
        return canonical_log(records)

    def fault_counts(self) -> Dict[str, int]:
        """Merged per-kind injection totals across partitions."""
        merged: Dict[str, int] = {}
        for engine in self._engines:
            for kind, n in engine.fault_counts().items():
                merged[kind] = merged.get(kind, 0) + n
        return merged

    def schedule_input(self, cell: Union[Cell, str], port: str,
                       time: float) -> None:
        """Inject an external pulse, routed to the owning partition."""
        if self._fanout.version != self.netlist.topology_version:
            raise ConfigurationError(
                "netlist changed after partitioning; build a new "
                "ParallelSimulator (the partition plan is structural)"
            )
        name = cell.name if isinstance(cell, Cell) else cell
        if name not in self._fanout.cells:
            raise ConfigurationError(f"no cell named '{name}'")
        resolved = self._fanout.cells[name]
        if port not in resolved.INPUTS:
            raise ConfigurationError(
                f"cell '{name}' has no input port '{port}'"
            )
        if time < self._now:
            raise ConfigurationError(
                f"cannot schedule input for '{name}.{port}' at {time} ps: "
                f"simulation time is already {self._now} ps "
                "(inputs must be scheduled at or after the current time)"
            )
        cell_idx, port_idx = self._fanout.resolve_endpoint(name, port)
        engine = self._engines[self._owner_of[cell_idx]]
        runtime = engine._fault_runtime
        if runtime is not None and runtime.swallow_external(
            cell_idx, name, port, time
        ):
            return
        engine.queue.push(time, cell_idx, port_idx)

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000,
            deadline_s: Optional[float] = None) -> float:
        """Run the conservative round protocol until all queues drain (or
        past ``until``).  Returns the final simulation time.

        ``deadline_s`` mirrors :meth:`Simulator.run`'s wall-clock guard:
        checked at every round boundary (rounds are short), it raises
        :class:`~repro.errors.DeadlineExceededError` when the budget runs
        out with events still pending.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        deadline = (
            None if deadline_s is None
            else _time.perf_counter() + deadline_s
        )
        engines = self._engines
        channels_into = self._channels_into
        min_in = self._min_in_lookahead
        horizon = _INF if until is None else until
        processed_total = 0

        while True:
            if deadline is not None and _time.perf_counter() > deadline:
                raise DeadlineExceededError(
                    f"partitioned simulation exceeded its {deadline_s} s "
                    f"wall-clock deadline after {self.rounds} rounds "
                    f"(events still pending)"
                )
            heads = [
                e.queue.peek_time() if e.queue else None for e in engines
            ]
            live = [h for h in heads if h is not None]
            if not live:
                break
            gvt = min(live)
            if gvt > horizon:
                break
            if processed_total >= max_events:
                raise ConfigurationError(
                    f"simulation exceeded {max_events} events; suspected "
                    "feedback oscillation in the netlist"
                )
            # Earliest possible future activity per partition: its own
            # queue head, or (for arrivals) gvt + its minimum in-channel
            # lookahead.  Both are conservative lower bounds.
            activity = []
            for p, head in enumerate(heads):
                arrival_floor = (
                    _INF if min_in[p] is None else gvt + min_in[p]
                )
                if head is None:
                    activity.append(arrival_floor)
                else:
                    activity.append(min(head, arrival_floor))
            # Channel clocks: partition p may process events strictly
            # below min over in-channels of (activity[src] + lookahead).
            bounds = []
            for p in range(len(engines)):
                bound = _INF
                for src, lookahead in channels_into[p]:
                    clock = activity[src] + lookahead
                    if clock < bound:
                        bound = clock
                bounds.append(bound)

            budget = max_events - processed_total
            timed_out = False
            if self.executor == "thread" and len(engines) > 1:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=len(engines),
                        thread_name_prefix="rsfq-lp",
                    )
                futures = [
                    self._pool.submit(
                        engine.run_window, bounds[p], horizon, budget
                    )
                    for p, engine in enumerate(engines)
                ]
                if self.worker_timeout_s is None:
                    counts = [f.result() for f in futures]
                else:
                    counts, timed_out = self._collect_with_timeout(futures)
            else:
                counts = [
                    engine.run_window(bounds[p], horizon, budget)
                    for p, engine in enumerate(engines)
                ]
            processed_total += sum(counts)
            self.rounds += 1

            # Barrier: deliver cross-partition pulses in deterministic
            # (source partition, emission order) -- the merge step.
            self._deliver_outboxes()

            if timed_out:
                self.worker_timeouts += 1
                if self.on_worker_timeout == "raise":
                    raise WorkerTimeoutError(
                        f"round {self.rounds} thread workers exceeded the "
                        f"{self.worker_timeout_s} s budget; the round's "
                        "barrier completed, so the engine is consistent "
                        "and resumable"
                    )
                # Self-heal: degrade to the serial executor for the
                # remaining rounds (results are identical by protocol).
                self.executor = "serial"
                self.fell_back_to_serial = True

        self._now = max(self._now, *(e.now for e in engines))
        if until is not None and until > self._now:
            self._now = until
        if self.trace is not None:
            self._merge_trace()
        return self._now

    def _deliver_outboxes(self) -> None:
        """Barrier delivery of every partition's cross-partition pulses,
        in deterministic (source partition, emission order)."""
        engines = self._engines
        for engine in engines:
            if engine.outbox:
                for dst_part, time, dst_idx, dst_port_idx in engine.outbox:
                    engines[dst_part].queue.push(
                        time, dst_idx, dst_port_idx
                    )
                engine.outbox.clear()

    def _collect_with_timeout(self, futures):
        """Collect the round's worker results under ``worker_timeout_s``.

        Python threads cannot be cancelled, so a straggler is *always*
        waited for (abandoning it would race the barrier's shared-state
        merge); the timeout only decides whether the round is *flagged* so
        the configured policy can raise or degrade afterwards.
        """
        deadline = _time.perf_counter() + self.worker_timeout_s
        counts = []
        timed_out = False
        for future in futures:
            remaining = deadline - _time.perf_counter()
            try:
                counts.append(future.result(timeout=max(remaining, 0.0)))
            except _FutureTimeoutError:
                timed_out = True
                counts.append(future.result())  # wait the straggler out
        return counts, timed_out

    def run_batch(
        self,
        batches: Iterable[Sequence[Stimulus]],
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        deadline_s: Optional[float] = None,
    ) -> List[RunStats]:
        """Batched execution with reset between runs (see
        :meth:`Simulator.run_batch`: every run replays from the seed;
        vary the seed for Monte-Carlo sampling)."""
        stats: List[RunStats] = []
        for stimuli in batches:
            self.reset()
            for cell, port, time in stimuli:
                self.schedule_input(cell, port, time)
            events_before = self.events_processed
            start = _time.perf_counter()
            final = self.run(
                until=until, max_events=max_events, deadline_s=deadline_s
            )
            wall = _time.perf_counter() - start
            stats.append(RunStats(
                events=self.events_processed - events_before,
                final_time_ps=final,
                delivered_pulses=self.delivered_pulses,
                violations=len(self.violations),
                wall_time_s=wall,
            ))
        return stats

    def _merge_trace(self) -> None:
        """Fold the partitions' new trace events into the user trace,
        ordered by time (ties by partition index, then local order --
        deterministic; see the module docs on tie interleaving)."""
        segments: List[Tuple[str, str, float]] = []
        for p, engine in enumerate(self._engines):
            log = engine.trace.events()
            mark = self._trace_marks[p]
            if len(log) > mark:
                segments.extend(log[mark:])
                self._trace_marks[p] = len(log)
        segments.sort(key=lambda event: event[2])  # stable: ties keep order
        record = self.trace.record
        for component, port, time in segments:
            record(component, port, time)

    def reset(self) -> None:
        """Restore construction state: clear pending events, time,
        violations and all cell state, and reseed every jitter / fault
        stream from the construction seed (matching ``Simulator.reset``:
        a replay of the same stimuli is bit-identical).  The executor
        choice and timeout counters survive a reset -- a degraded engine
        stays degraded."""
        for engine in self._engines:
            engine.outbox.clear()
            engine.reset()
        self._trace_marks = [0] * len(self._engines)
        self._now = 0.0
        self.rounds = 0
        if self.trace is not None:
            self.trace.clear()

    def close(self) -> None:
        """Shut down the thread pool (no-op for the serial executor)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ParallelSimulator {self.plan.n_partitions} partitions over "
            f"'{self.netlist.name}', executor={self.executor}>"
        )
