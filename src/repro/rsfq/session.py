"""Batched, cache-aware simulation sessions over one netlist.

Building a :class:`~repro.rsfq.simulator.Simulator` is cheap, but the work
around it is not: netlist elaboration, trace plumbing, per-run seeding and
statistics all used to be re-done by every caller that wanted to run the
same circuit many times (yield studies, jitter sweeps, regression
batteries).  :class:`SimulationSession` packages that loop:

* the netlist is elaborated **once** (memoised fan-out table, pre-resolved
  cell indices -- see :meth:`repro.rsfq.netlist.Netlist.elaborate`);
* every run resets circuit state, optionally reseeds the jitter stream,
  and returns a :class:`RunResult` carrying per-run statistics and
  (optionally) a fresh :class:`~repro.rsfq.waveform.PulseTrace`;
* aggregate statistics accumulate across the session for reporting.

Typical use::

    from repro.rsfq import Netlist, SimulationSession, library

    session = SimulationSession(net)
    results = session.run_batch([
        [("in0", "din", 0.0), ("in0", "din", 50.0)],
        [("in0", "din", 0.0)],
    ])
    assert all(r.stats.violations == 0 for r in results)
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.rsfq.netlist import Netlist
from repro.rsfq.simulator import RunStats, Simulator, Stimulus
from repro.rsfq.waveform import PulseTrace


@dataclass
class RunResult:
    """One session run: execution statistics plus optional artefacts.

    Attributes:
        index: Position of the run within the session (0-based).
        stats: The run's :class:`~repro.rsfq.simulator.RunStats`.
        trace: Pulse trace of the run when the session records traces,
            else ``None``.
        violations: The concrete violation records of the run.
        seed: Jitter seed used for the run (``None`` = session default).
        fault_counts: Per-kind injected-fault totals of the run (empty
            without an active fault model).
    """

    index: int
    stats: RunStats
    trace: Optional[PulseTrace] = None
    violations: list = field(default_factory=list)
    seed: Optional[int] = None
    fault_counts: dict = field(default_factory=dict)


@dataclass
class SessionStats:
    """Aggregate statistics across all runs of a session."""

    runs: int = 0
    total_events: int = 0
    total_pulses: int = 0
    total_violations: int = 0
    total_wall_time_s: float = 0.0
    elaboration_time_s: float = 0.0

    def record(self, stats: RunStats) -> None:
        self.runs += 1
        self.total_events += stats.events
        self.total_pulses += stats.delivered_pulses
        self.total_violations += stats.violations
        self.total_wall_time_s += stats.wall_time_s

    @property
    def events_per_second(self) -> float:
        """Throughput over the session (0 when nothing ran)."""
        if self.total_wall_time_s <= 0:
            return 0.0
        return self.total_events / self.total_wall_time_s


class SimulationSession:
    """Amortise netlist elaboration across many runs of one circuit.

    Args:
        netlist: The circuit under test.
        strict: Forwarded to :class:`~repro.rsfq.simulator.Simulator`.
        jitter_ps: Default wire-delay jitter for every run.
        seed: Default jitter seed (per-run seeds override it).
        record_traces: When True, each run gets a fresh
            :class:`~repro.rsfq.waveform.PulseTrace` attached to its
            :class:`RunResult`.
        parallel_parts: When >= 2, runs execute on the partitioned
            :class:`~repro.rsfq.parallel.ParallelSimulator` with that
            many partitions (results are bit-identical to sequential
            runs at ``jitter_ps=0`` and, with ``jitter_mode="wire"``,
            under jitter too).
        partition_hints: Optional cell -> group hints forwarded to the
            partitioner (e.g. ``GateLevelChip.partition_hints()``).
        jitter_mode: Jitter stream discipline for sequential runs
            (``None`` keeps the engine default: ``"global"`` sequential,
            ``"wire"`` parallel).
        faults: Optional :class:`~repro.rsfq.faults.FaultModel` attached
            to every run's simulator (the model carries its own decision
            seed; reseed it per trial with
            :meth:`~repro.rsfq.faults.FaultModel.reseeded` for
            Monte-Carlo campaigns).
        engine: ``"event"`` (default) runs every stimulus set through
            the discrete-event loop; ``"traced"`` serves repeated
            schedules from the record-once / replay-vectorized trace
            layer (:mod:`repro.rsfq.trace`) with transparent, counted
            fallback to the event engine whenever replay cannot
            reproduce the run bit-for-bit (``until=`` horizons,
            parallel sessions, fault triggers, ordering divergence).
        trace_cache: Optional on-disk cache for compiled traces when
            ``engine="traced"`` -- ``None`` (in-memory only),
            ``"default"`` (the shared plan-cache root), or a
            :class:`~repro.ssnn.compile.PlanCache` instance (traces are
            namespaced under their own artifact kind, so plans and
            traces share a root safely).
    """

    def __init__(
        self,
        netlist: Netlist,
        strict: bool = False,
        jitter_ps: float = 0.0,
        seed: Optional[int] = None,
        record_traces: bool = False,
        parallel_parts: int = 0,
        partition_hints: Optional[dict] = None,
        jitter_mode: Optional[str] = None,
        faults=None,
        engine: Optional[str] = None,
        trace_cache=None,
    ):
        if engine not in (None, "event", "traced"):
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown engine '{engine}'; "
                "available: ('event', 'traced')"
            )
        self.engine = engine or "event"
        self._trace_cache = trace_cache
        self._trace_engine = None
        self.netlist = netlist
        self.strict = strict
        self.jitter_ps = float(jitter_ps)
        self.seed = seed
        self.record_traces = record_traces
        self.parallel_parts = int(parallel_parts)
        self.partition_hints = partition_hints
        self.jitter_mode = jitter_mode
        self.faults = faults
        self.stats = SessionStats()
        start = _time.perf_counter()
        netlist.elaborate()  # warm the memoised fan-out table
        self.stats.elaboration_time_s = _time.perf_counter() - start
        self._sim: Optional[Simulator] = None
        self._runs = 0

    def _make_simulator(self, trace, run_seed):
        if self.parallel_parts >= 2:
            from repro.rsfq.parallel import ParallelSimulator

            kwargs = {}
            if self.jitter_mode is not None:
                kwargs["jitter_mode"] = self.jitter_mode
            return ParallelSimulator(
                self.netlist,
                parts=self.parallel_parts,
                hints=self.partition_hints,
                strict=self.strict,
                trace=trace,
                jitter_ps=self.jitter_ps,
                seed=run_seed,
                faults=self.faults,
                **kwargs,
            )
        kwargs = {}
        if self.jitter_mode is not None:
            kwargs["jitter_mode"] = self.jitter_mode
        return Simulator(
            self.netlist,
            strict=self.strict,
            trace=trace,
            jitter_ps=self.jitter_ps,
            seed=run_seed,
            faults=self.faults,
            **kwargs,
        )

    def _traced_engine(self):
        """The lazily-built :class:`~repro.rsfq.trace.TraceEngine`."""
        if self._trace_engine is None:
            from repro.rsfq.trace import TraceEngine

            cache = self._trace_cache
            if cache is not None:
                from repro.ssnn.compile import resolve_plan_cache

                cache = resolve_plan_cache(cache)
            self._trace_engine = TraceEngine(self.netlist, cache=cache)
        return self._trace_engine

    def trace_stats(self) -> dict:
        """Record/replay/fallback/cache counters of the traced engine
        (all zeros when ``engine="event"`` or nothing ran yet)."""
        if self._trace_engine is None:
            return {"records": 0, "replays": 0, "fallbacks": 0,
                    "cache_hits": 0, "cache_misses": 0}
        return dict(self._trace_engine.stats)

    def _run_traced(
        self,
        stimuli: Sequence[Stimulus],
        until: Optional[float],
        max_events: int,
        run_seed,
    ) -> Optional[RunResult]:
        """Serve one run from the trace layer, or None for fallback."""
        if until is not None or self.parallel_parts >= 2:
            from repro.rsfq.trace import GLOBAL_TRACE_COUNTERS

            GLOBAL_TRACE_COUNTERS.bump("fallbacks")
            return None
        engine = self._traced_engine()
        start = _time.perf_counter()
        episode = engine.replay_episode(
            (tuple(stimuli),),
            jitter_ps=self.jitter_ps,
            seed=run_seed,
            jitter_mode=self.jitter_mode or "global",
            faults=self.faults,
            strict=self.strict,
            max_events=max_events,
            want_trace=self.record_traces,
        )
        wall = _time.perf_counter() - start
        if episode is None:
            return None
        stats = RunStats(
            events=episode.events,
            final_time_ps=episode.final_time_ps,
            delivered_pulses=episode.events,
            violations=len(episode.violations),
            wall_time_s=wall,
        )
        self.stats.record(stats)
        result = RunResult(
            index=self._runs,
            stats=stats,
            trace=episode.trace,
            violations=list(episode.violations),
            seed=run_seed,
            fault_counts=dict(episode.fault_counts),
        )
        self._runs += 1
        return result

    # -- execution ---------------------------------------------------------

    def run(
        self,
        stimuli: Sequence[Stimulus],
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        seed: Optional[int] = None,
    ) -> RunResult:
        """Execute one stimulus set on a freshly-reset circuit.

        ``seed`` overrides the session's jitter seed for this run only;
        passing the same seed twice yields byte-identical traces (the
        determinism contract the golden-trace tests rely on).
        """
        run_seed = self.seed if seed is None else seed
        if self.engine == "traced":
            result = self._run_traced(stimuli, until, max_events,
                                      run_seed)
            if result is not None:
                return result
        trace = PulseTrace() if self.record_traces else None
        # Jittered runs get a fresh simulator so each run's jitter stream
        # starts from its seed (per-run determinism); ideal runs reuse one
        # cached simulator.  The fan-out table is shared via the netlist
        # memo either way, so both paths skip re-elaboration.
        fresh = (
            self._sim is None
            or seed is not None
            or trace is not None
            or self.jitter_ps > 0.0
        )
        if fresh:
            sim = self._make_simulator(trace, run_seed)
            if seed is None and trace is None and self.jitter_ps == 0.0:
                self._sim = sim
        else:
            sim = self._sim
        sim.reset()
        for cell, port, time in stimuli:
            sim.schedule_input(cell, port, time)
        start = _time.perf_counter()
        final = sim.run(until=until, max_events=max_events)
        wall = _time.perf_counter() - start
        stats = RunStats(
            events=sim.events_processed,
            final_time_ps=final,
            delivered_pulses=sim.delivered_pulses,
            violations=len(sim.violations),
            wall_time_s=wall,
        )
        self.stats.record(stats)
        result = RunResult(
            index=self._runs,
            stats=stats,
            trace=trace,
            violations=list(sim.violations),
            seed=run_seed,
            fault_counts=sim.fault_counts(),
        )
        self._runs += 1
        return result

    def run_batch(
        self,
        batches: Iterable[Sequence[Stimulus]],
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        seeds: Optional[Sequence[Optional[int]]] = None,
    ) -> List[RunResult]:
        """Execute several stimulus sets, one :class:`RunResult` each.

        ``seeds`` (when given) supplies one jitter seed per run -- e.g.
        ``seeds=range(trials)`` for a Monte-Carlo yield study.
        """
        batches = list(batches)
        if seeds is not None:
            seeds = list(seeds)
            if len(seeds) != len(batches):
                from repro.errors import ConfigurationError

                raise ConfigurationError(
                    f"got {len(seeds)} seeds for {len(batches)} runs"
                )
        return [
            self.run(
                stimuli,
                until=until,
                max_events=max_events,
                seed=None if seeds is None else seeds[i],
            )
            for i, stimuli in enumerate(batches)
        ]
