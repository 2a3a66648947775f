"""Cell base class and constraint bookkeeping for RSFQ circuits.

A :class:`Cell` reacts to SFQ pulses on named input ports.  Subclasses define
``INPUTS``, ``OUTPUTS``, per-cell resource figures (Josephson-junction count,
area, delay) and the ``on_pulse`` behaviour.  Timing-constraint checking is
handled here so every cell gets it uniformly: each arrival is checked against
the most recent arrival on the ports named by ``CONSTRAINTS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rsfq.constraints import INTERVAL_EPSILON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.rsfq.simulator import Simulator


@dataclass(frozen=True)
class Violation:
    """A recorded timing-constraint violation.

    Attributes:
        component: Name of the violating cell.
        cell_type: Cell class name (e.g. ``"NDRO"``).
        port_a: Port whose earlier pulse was too recent.
        port_b: Port the offending pulse arrived on.
        required: Minimum allowed interval in ps.
        actual: Observed interval in ps.
        time: Arrival time of the offending pulse.
    """

    component: str
    cell_type: str
    port_a: str
    port_b: str
    required: float
    actual: float
    time: float

    def __str__(self) -> str:
        return (
            f"{self.cell_type} '{self.component}': pulse on '{self.port_b}' at "
            f"{self.time:.2f} ps lags '{self.port_a}' by {self.actual:.2f} ps "
            f"(minimum {self.required:.2f} ps)"
        )


class Cell:
    """Base class for all RSFQ cells.

    Class attributes:
        INPUTS / OUTPUTS: Port name tuples.
        CONSTRAINTS: Mapping ``(port_a, port_b) -> min_lag_ps``; a pulse on
            ``port_b`` must lag the last pulse on ``port_a`` by at least the
            given interval.
        JJ_COUNT: Josephson junctions in the cell (resource model).
        AREA_UM2: Cell area in square micrometres.
        DELAY_PS: Input-to-output propagation delay.
        STATIC_POWER_NW: Static bias-current power draw in nanowatts.

    Instances use ``__slots__`` (the simulator allocates none of its own
    per-event objects, so per-cell attribute access is the next cost):
    subclasses adding state must declare their own ``__slots__`` tuple
    (an empty one when they add nothing).

    ``CONSTRAINTS_BY_PORT`` is derived automatically per subclass: it
    groups the constraint families by *arriving* port so the hot path
    checks only the rules that can fire for the current pulse instead of
    scanning the whole table (a CB3 has 9 families but at most 3 per
    port).  Each rule carries its margin key ``(class name, port_a,
    port_b)``, so a checked arrival builds no tuple.
    """

    __slots__ = ("name", "_last_arrival", "switch_count")

    INPUTS: Tuple[str, ...] = ()
    OUTPUTS: Tuple[str, ...] = ()
    CONSTRAINTS: Mapping[Tuple[str, str], float] = {}
    #: Arriving port -> ((port_a, min_lag, margin_key), ...); derived, do
    #: not set.
    CONSTRAINTS_BY_PORT: Mapping[str, Tuple[tuple, ...]] = {}

    JJ_COUNT: int = 0
    AREA_UM2: float = 0.0
    DELAY_PS: float = 0.0
    STATIC_POWER_NW: float = 0.0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        by_port: Dict[str, list] = {}
        for (port_a, port_b), min_lag in cls.CONSTRAINTS.items():
            by_port.setdefault(port_b, []).append(
                (port_a, min_lag, (cls.__name__, port_a, port_b))
            )
        cls.CONSTRAINTS_BY_PORT = {
            port: tuple(rules) for port, rules in by_port.items()
        }

    def __init__(self, name: str):
        if not name:
            raise ConfigurationError("cell name must be non-empty")
        self.name = name
        self._last_arrival: Dict[str, float] = {}
        #: Number of pulses processed; used by the dynamic power model.
        self.switch_count = 0

    # -- behaviour -------------------------------------------------------

    def receive(self, port: str, time: float, sim: "Simulator") -> None:
        """Process a pulse arrival: check constraints, then dispatch.

        The constraint and margin loop is inlined here (margins follow
        :meth:`~repro.rsfq.simulator.Simulator.record_margin`) because
        ``receive`` runs once per event: one saved method call per event
        is a measurable slice of the per-event constant factor on
        gate-level workloads.
        """
        if port not in self.INPUTS:
            raise ConfigurationError(
                f"cell '{self.name}' ({type(self).__name__}) has no input "
                f"port '{port}'; ports are {self.INPUTS}"
            )
        last_arrival = self._last_arrival
        rules = self.CONSTRAINTS_BY_PORT.get(port)
        if rules is not None:
            margins = sim.margins
            for port_a, min_lag, key in rules:
                last = last_arrival.get(port_a)
                if last is None:
                    continue
                actual = time - last
                current = margins.get(key)
                if current is None or actual < current[1]:
                    margins[key] = (min_lag, actual)
                if actual + INTERVAL_EPSILON < min_lag:
                    sim.report_violation(
                        Violation(
                            component=self.name,
                            cell_type=key[0],
                            port_a=port_a,
                            port_b=port,
                            required=min_lag,
                            actual=actual,
                            time=time,
                        )
                    )
        last_arrival[port] = time
        self.switch_count += 1
        self.on_pulse(port, time, sim)

    def on_pulse(self, port: str, time: float, sim: "Simulator") -> None:
        """Cell-specific reaction to a pulse; subclasses override."""
        raise NotImplementedError

    def emit(self, port: str, time: float, sim: "Simulator") -> None:
        """Send a pulse out of ``port`` at ``time`` (plus wire delays),
        checking the port name.  Library cells, whose output port is
        fixed, call ``sim.deliver`` directly instead."""
        if port not in self.OUTPUTS:
            raise ConfigurationError(
                f"cell '{self.name}' ({type(self).__name__}) has no output "
                f"port '{port}'; ports are {self.OUTPUTS}"
            )
        sim.deliver(self, port, time)

    def reset_state(self) -> None:
        """Return the cell to its power-on state (between experiments)."""
        self._last_arrival.clear()
        self.switch_count = 0

    def flux_trap(self) -> bool:
        """Corrupt the cell's stored flux state (fault injection hook).

        Models a flux quantum trapping in the cell's storage loop: cells
        that hold state (DFF/NDRO stored bit, TFF phase) flip it; cells
        without internal flux storage (JTLs, splitters, confluence
        buffers, probes) have nothing to trap and return False.  Called by
        the :mod:`repro.rsfq.faults` machinery immediately before the
        affected pulse arrival is processed, so corruption is ordered like
        any other event.

        Returns True when the cell had state to corrupt.
        """
        return False

    def last_arrival(self, port: str) -> Optional[float]:
        """Time of the most recent pulse on ``port``, or None."""
        return self._last_arrival.get(port)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} '{self.name}'>"
