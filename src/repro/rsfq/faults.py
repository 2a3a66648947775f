"""Composable fault injection for the RSFQ discrete-event engine.

Real RSFQ chips do not only jitter: SFQ pulses are *dropped* when a bias
margin is exceeded, *escape* (duplicate) across parasitic couplings, arrive
*late* when a bias line sags, junctions get *stuck* after a fabrication
defect, and trapped flux quanta silently corrupt stored cell state (the
failure modes SuperSNN-style physical-realizability analyses treat as
first-class design constraints; see ``docs/FAULTS.md`` for the taxonomy).
This module models all five as a composable :class:`FaultModel` attached to
:class:`repro.rsfq.simulator.Simulator` at construction:

* decisions draw from **deterministic per-site streams** -- one
  :class:`random.Random` per wire (and per stuck-cell candidate), seeded
  from ``(model seed, stable site identity)`` exactly like the per-wire
  jitter streams.  Because every wire is driven by a single output
  port (RSFQ fan-out is one), the k-th pulse on a wire always consumes that
  wire's k-th draws, so fault outcomes are independent of global event
  interleaving and **bit-identical between the event loop and the trace
  engine** (:mod:`repro.rsfq.trace`) for any seed;
* every injected fault is appended to an **injection log**
  (:class:`InjectionRecord`); :func:`canonical_log` produces an
  engine-independent ordering so event-loop and traced logs compare
  equal;
* the zero-fault configuration stays on the engine's allocation-free fast
  path: the simulator binds its faulty delivery variant only when a model
  with at least one spec is attached (construction-time specialisation,
  see ``Simulator._bind_deliver``).

Fault kinds
-----------

``pulse_drop``
    Each pulse traversing a targeted wire is lost with ``probability``.
``pulse_duplicate``
    Each pulse traversing a targeted wire spawns an echo pulse
    ``delay_ps`` later with ``probability`` (a pulse escape re-entering
    the line).
``extra_delay``
    Each pulse traversing a targeted wire arrives ``delay_ps`` late with
    ``probability`` (late pulse / bias sag).
``stuck_cell``
    A targeted cell is stuck (dead junction): selected once per cell at
    bind time with ``probability``; a stuck cell swallows every arrival,
    including external stimuli.
``flux_trap``
    With ``probability`` per pulse delivered into a targeted cell, a flux
    quantum traps in the cell immediately before the arrival is processed:
    the cell's stored state is corrupted via :meth:`Cell.flux_trap
    <repro.rsfq.cells.Cell.flux_trap>` (stateful cells flip their stored
    bit; stateless cells have no flux to trap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultModel",
    "InjectionRecord",
    "canonical_log",
    "fault_site_rng",
]

#: The supported fault kinds (see module docstring).
FAULT_KINDS = (
    "pulse_drop",
    "pulse_duplicate",
    "extra_delay",
    "stuck_cell",
    "flux_trap",
)

#: Kinds whose decisions are drawn per pulse on a wire.
_WIRE_KINDS = ("pulse_drop", "pulse_duplicate", "extra_delay", "flux_trap")


def fault_site_rng(seed, site: str) -> random.Random:
    """The deterministic fault stream of one site (wire or cell).

    String seeding uses CPython's stable sha512-based path, so the stream
    depends only on ``(seed, site)`` -- never on hash randomisation or
    event interleaving.  Fault streams
    are namespaced apart from the per-wire jitter streams so
    attaching a fault model never perturbs jitter draws (and vice versa).
    """
    return random.Random(f"fault|{seed!r}|{site}")


@dataclass(frozen=True)
class InjectionRecord:
    """One injected fault.

    Attributes:
        time: Simulation time (ps) of the affected arrival.
        kind: Fault kind (one of :data:`FAULT_KINDS`).
        site: Stable site identity -- the wire key for wire faults
            (``src.port->dst.port#id``), ``input:cell.port`` for swallowed
            external stimuli, or the cell name for bind-time stuck marks.
        cell: Name of the cell whose behaviour the fault affected.
        ordinal: Per-``(site, kind)`` sequence number, counted in pulse
            order along the site -- identical between engines.
    """

    time: float
    kind: str
    site: str
    cell: str
    ordinal: int

    def sort_key(self) -> tuple:
        return (self.time, self.site, self.kind, self.ordinal)


def canonical_log(records: Sequence[InjectionRecord]) -> Tuple[InjectionRecord, ...]:
    """Engine-independent ordering of an injection log.

    Within one site and kind, ordinals follow pulse order along that site
    (identical in both engines); across sites, ``(time, site, kind,
    ordinal)`` is a total order, so the canonical logs of an event-loop and
    a traced run of the same seeded workload compare equal.
    """
    return tuple(sorted(records, key=InjectionRecord.sort_key))


@dataclass(frozen=True)
class FaultSpec:
    """One fault process.

    Args:
        kind: One of :data:`FAULT_KINDS`.
        probability: Per-decision probability in ``[0, 1]`` (per pulse for
            wire kinds; per cell, once at bind time, for ``stuck_cell``).
        cells: Optional cell-name targeting.  Wire kinds match wires whose
            source *or* destination is listed; ``flux_trap`` matches wires
            into a listed cell; ``stuck_cell`` marks listed cells.  ``None``
            targets everything.
        wires: Optional wire targeting by ``"src.src_port->dst.dst_port"``
            string (see :meth:`repro.rsfq.netlist.FanoutTable.wire_key`,
            without the ``#id`` suffix).  ``None`` targets every wire.
        delay_ps: Echo offset for ``pulse_duplicate`` / added latency for
            ``extra_delay`` (must be >= 0: a fault cannot deliver a
            pulse before it was sent).
    """

    kind: str
    probability: float = 1.0
    cells: Optional[frozenset] = None
    wires: Optional[frozenset] = None
    delay_ps: float = 5.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind '{self.kind}'; "
                f"available: {list(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultInjectionError(
                f"{self.kind}: probability {self.probability} outside [0, 1]"
            )
        if self.delay_ps < 0.0:
            raise FaultInjectionError(
                f"{self.kind}: delay_ps must be >= 0 (negative extra delay "
                "would deliver a pulse before it was sent)"
            )
        if self.cells is not None:
            object.__setattr__(self, "cells", frozenset(self.cells))
        if self.wires is not None:
            object.__setattr__(self, "wires", frozenset(self.wires))

    def matches_wire(self, wire) -> bool:
        """Does this (wire-kind) spec apply to pulses on ``wire``?"""
        if self.wires is not None:
            key = f"{wire.src}.{wire.src_port}->{wire.dst}.{wire.dst_port}"
            if key not in self.wires:
                return False
        if self.cells is not None:
            if self.kind == "flux_trap":
                return wire.dst in self.cells
            return wire.src in self.cells or wire.dst in self.cells
        return True


class FaultModel:
    """An immutable, composable set of :class:`FaultSpec` processes plus a
    seed for the deterministic per-site decision streams.

    Models compose by concatenation (:meth:`extended`, :meth:`compose`) and
    re-seed cheaply (:meth:`reseeded`) -- the campaign harness sweeps
    ``FaultModel.single(kind, p).reseeded(trial_seed)`` grids.  A model is
    *config only*: every simulator binds its own mutable runtime state, so
    one model can back many engines without sharing streams.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed=0,
                 max_records: int = 200_000):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        if max_records < 0:
            raise FaultInjectionError("max_records must be >= 0")
        self.max_records = max_records

    # -- construction helpers ---------------------------------------------

    @classmethod
    def single(cls, kind: str, probability: float = 1.0, seed=0,
               cells=None, wires=None, delay_ps: float = 5.0,
               ) -> "FaultModel":
        """A model with one spec (the common campaign building block)."""
        return cls(
            [FaultSpec(kind=kind, probability=probability,
                       cells=None if cells is None else frozenset(cells),
                       wires=None if wires is None else frozenset(wires),
                       delay_ps=delay_ps)],
            seed=seed,
        )

    @classmethod
    def compose(cls, *models: "FaultModel", seed=None) -> "FaultModel":
        """Concatenate several models' specs into one (first model's seed
        wins unless ``seed`` is given)."""
        specs: List[FaultSpec] = []
        for model in models:
            specs.extend(model.specs)
        if seed is None:
            seed = models[0].seed if models else 0
        return cls(specs, seed=seed)

    def extended(self, *specs: FaultSpec) -> "FaultModel":
        """A new model with ``specs`` appended (same seed)."""
        return FaultModel(self.specs + tuple(specs), seed=self.seed,
                          max_records=self.max_records)

    def reseeded(self, seed) -> "FaultModel":
        """The same fault processes under a fresh decision seed (one
        Monte-Carlo trial of the same physical failure hypothesis)."""
        return FaultModel(self.specs, seed=seed,
                          max_records=self.max_records)

    # -- properties --------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when at least one spec is attached (an empty model keeps
        the engine on its zero-fault fast path)."""
        return bool(self.specs)

    def bind(self, fanout) -> "BoundFaults":
        """Create this model's per-simulator runtime state over an
        elaborated :class:`~repro.rsfq.netlist.FanoutTable`."""
        return BoundFaults(self, fanout)

    def __repr__(self) -> str:
        kinds = ",".join(s.kind for s in self.specs) or "inactive"
        return f"<FaultModel [{kinds}] seed={self.seed!r}>"


class _FluxTrapProxy:
    """Arrival interceptor: corrupts the target cell's stored state, then
    forwards the pulse.

    Queue entries normally index the fan-out table's cell list; a trapped
    pulse instead indexes one of these proxies (appended past the real
    cells in the simulator's cell view), so the corruption executes at the
    pulse's *arrival* time, in event order, like any other arrival.
    """

    __slots__ = ("target", "name")

    def __init__(self, target):
        self.target = target
        self.name = target.name  # trace records stay channel-accurate

    def receive(self, port: str, time: float, sim) -> None:
        self.target.flux_trap()
        self.target.receive(port, time, sim)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<_FluxTrapProxy for {self.target!r}>"


class BoundFaults:
    """Mutable per-simulator runtime of a :class:`FaultModel`.

    Holds the per-wire spec tables, the stuck-cell set, the lazily-created
    decision streams, the per-site ordinals and the injection log.  The
    heavy lifting happens in :meth:`route_pulse`, called by the simulator's
    faulty delivery variant once per pulse per wire.
    """

    def __init__(self, model: FaultModel, fanout):
        self.model = model
        self.fanout = fanout
        self.log: List[InjectionRecord] = []
        #: Records suppressed after the model's ``max_records`` cap.
        self.suppressed_records = 0
        #: Per-kind injection totals (cheap health signal).
        self.counts: Dict[str, int] = {}
        #: Lazily-created per-wire decision streams and per-(site, kind)
        #: ordinal counters.
        self._streams: Dict[int, random.Random] = {}
        self._ordinals: Dict[Tuple[str, str], int] = {}

        self._validate_targets(model, fanout)

        # wire_id -> tuple of the wire-kind specs that can fire on it
        # (probability > 0).  Wires without one are omitted, so such a
        # wire costs one dict miss and never seeds a decision stream: a
        # p=0 spec never draws.
        self.wire_specs: Dict[int, Tuple[FaultSpec, ...]] = {}
        for wid, wire in enumerate(fanout.wires):
            applicable = tuple(
                s for s in model.specs
                if s.kind in _WIRE_KINDS and s.probability > 0.0
                and s.matches_wire(wire)
            )
            if applicable:
                self.wire_specs[wid] = applicable

        # Stuck cells: one bind-time draw per candidate, from the cell's
        # own stream -- deterministic per (seed, cell name), so identical
        # across engines.
        stuck: set = set()
        for spec in model.specs:
            if spec.kind != "stuck_cell":
                continue
            names = (sorted(spec.cells) if spec.cells is not None
                     else [c.name for c in fanout.cell_list])
            for name in names:
                idx = fanout.cell_index.get(name)
                if idx is None or idx in stuck:
                    continue
                if spec.probability >= 1.0:
                    hit = True
                else:
                    rng = fault_site_rng(model.seed, f"stuck:{name}")
                    hit = rng.random() < spec.probability
                if hit:
                    stuck.add(idx)
        self.stuck = frozenset(stuck)
        self._log_stuck_marks()

        # Flux-trap proxies: one per input port of any trappable cell,
        # appended past the real cells so queue entries can address them.
        # Index layout is a pure function of (fanout, model), hence
        # identical across engines.
        self._has_traps = any(s.kind == "flux_trap" for s in model.specs)
        cells_view = list(fanout.cell_list)
        ports_view = list(fanout.input_ports)
        self.trap_index: Dict[Tuple[int, int], int] = {}
        if self._has_traps:
            trappable = set()
            for wid, specs in self.wire_specs.items():
                if any(s.kind == "flux_trap" for s in specs):
                    wire = fanout.wires[wid]
                    trappable.add(fanout.cell_index[wire.dst])
            for ci in sorted(trappable):
                cell = fanout.cell_list[ci]
                for pi, port in enumerate(fanout.input_ports[ci]):
                    self.trap_index[(ci, pi)] = len(cells_view)
                    cells_view.append(_FluxTrapProxy(cell))
                    ports_view.append((port,))
        self.cells_view: Tuple = tuple(cells_view)
        self.ports_view: Tuple = tuple(ports_view)

    @staticmethod
    def _validate_targets(model: FaultModel, fanout) -> None:
        known_cells = set(fanout.cells)
        known_wires = {
            f"{w.src}.{w.src_port}->{w.dst}.{w.dst_port}"
            for w in fanout.wires
        }
        for spec in model.specs:
            if spec.cells is not None:
                missing = sorted(set(spec.cells) - known_cells)
                if missing:
                    raise FaultInjectionError(
                        f"{spec.kind}: unknown target cells {missing}"
                    )
            if spec.wires is not None:
                missing = sorted(set(spec.wires) - known_wires)
                if missing:
                    raise FaultInjectionError(
                        f"{spec.kind}: unknown target wires {missing}"
                    )

    # -- bookkeeping -------------------------------------------------------

    def _record(self, time: float, kind: str, site: str, cell: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self.log) >= self.model.max_records:
            self.suppressed_records += 1
            return
        key = (site, kind)
        ordinal = self._ordinals.get(key, 0)
        self._ordinals[key] = ordinal + 1
        self.log.append(InjectionRecord(
            time=time, kind=kind, site=site, cell=cell, ordinal=ordinal,
        ))

    def _log_stuck_marks(self) -> None:
        """Log the bind-time stuck marks, in cell-name order."""
        for name in sorted(
            self.fanout.cell_list[idx].name for idx in self.stuck
        ):
            self._record(0.0, "stuck_cell", name, name)

    def injections(self) -> int:
        """Total injected faults (including suppressed log entries)."""
        return sum(self.counts.values())

    def reset(self) -> None:
        """Restart every decision stream from the model seed and clear the
        log/ordinals -- called by ``Simulator.reset`` so reused sessions
        replay identical fault sequences instead of leaking stream state
        between batch samples."""
        self._streams.clear()
        self._ordinals.clear()
        self.log.clear()
        self.suppressed_records = 0
        self.counts.clear()
        # Re-log bind-time stuck marks (they are part of the fault state).
        self._log_stuck_marks()

    # -- the per-pulse decision procedure ---------------------------------

    def route_pulse(self, wid: int, dst_idx: int, dst_port_idx: int,
                    arrival: float):
        """Apply this wire's fault processes to one delivered pulse.

        Returns the queue entries to push as ``(time, cell_view_idx,
        port_idx)`` tuples: usually one (the pulse itself, possibly
        delayed or rerouted through a flux-trap proxy), zero when the
        pulse is dropped or its destination is stuck, or two when an echo
        pulse is spawned.  Decision draws come from the wire's stream in
        pulse order, so the outcome is interleaving-independent.
        """
        site = None
        if dst_idx in self.stuck:
            site = self.fanout.wire_key(wid)
            self._record(
                arrival, "stuck_cell", site,
                self.fanout.cell_list[dst_idx].name,
            )
            return ()
        specs = self.wire_specs.get(wid)
        if not specs:
            return ((arrival, dst_idx, dst_port_idx),)
        rng = self._streams.get(wid)
        if rng is None:
            rng = self._streams[wid] = fault_site_rng(
                self.model.seed, self.fanout.wire_key(wid)
            )
        random_ = rng.random
        dst_name = None
        trapped = False
        echoes: List[Tuple[float, int, int]] = []
        for spec in specs:
            if random_() >= spec.probability:
                continue
            if site is None:
                site = self.fanout.wire_key(wid)
                dst_name = self.fanout.cell_list[dst_idx].name
            kind = spec.kind
            if kind == "pulse_drop":
                self._record(arrival, kind, site, dst_name)
                return tuple(echoes)  # the pulse is gone; echoes stand
            if kind == "extra_delay":
                arrival += spec.delay_ps
                self._record(arrival, kind, site, dst_name)
            elif kind == "pulse_duplicate":
                echo_time = arrival + spec.delay_ps
                echoes.append((echo_time, dst_idx, dst_port_idx))
                self._record(echo_time, kind, site, dst_name)
            elif kind == "flux_trap":
                trapped = True
                self._record(arrival, kind, site, dst_name)
        if trapped:
            idx = self.trap_index[(dst_idx, dst_port_idx)]
            main = (arrival, idx, 0)
        else:
            main = (arrival, dst_idx, dst_port_idx)
        if echoes:
            return (main, *echoes)
        return (main,)

    def swallow_external(self, cell_idx: int, cell_name: str, port: str,
                         time: float) -> bool:
        """Swallow (and log) an external stimulus aimed at a stuck cell.

        Returns True when the pulse must not be scheduled.  Decided purely
        from the bind-time stuck set.
        """
        if cell_idx not in self.stuck:
            return False
        self._record(time, "stuck_cell", f"input:{cell_name}.{port}",
                     cell_name)
        return True
