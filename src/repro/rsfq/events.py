"""Event primitives for the RSFQ discrete-event simulator.

The hot path of the engine never allocates an event *object*: queue
entries are plain ``(time, seq, target, port)`` tuples, where ``target``
and ``port`` are whatever the pusher chose to store -- the
:class:`repro.rsfq.simulator.Simulator` stores the integer cell / port
indices of the elaborated :class:`repro.rsfq.netlist.FanoutTable`, while
standalone users may store strings.  :class:`PulseEvent` objects exist
only as a *materialisation boundary* for tracing, debugging and error
messages (:meth:`EventQueue.pop_event` / :meth:`PulseEvent.from_entry`).

:class:`EventQueue` is a binary min-heap (O(log n) per operation
regardless of schedule shape) and deterministic: simultaneous events pop
in schedule (sequence) order, because the heap keys compare
``(time, seq)`` first and ``seq`` is unique.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: A queue entry: ``(time, seq, target, port)``.  ``target``/``port`` are
#: opaque to the queue (integer indices on the simulator fast path).
Entry = Tuple[float, int, object, object]


@dataclass(frozen=True)
class PulseEvent:
    """An SFQ pulse arriving at a cell input port (debug/trace view).

    The engine itself moves bare tuples; ``PulseEvent`` is only built at
    trace and debugging boundaries via :meth:`from_entry`.

    Attributes:
        time: Arrival time in picoseconds.
        seq: Tie-breaking sequence number (schedule order) so that
            simultaneous events are processed deterministically.
        component: Destination cell (name or elaborated index).
        port: Destination input port (name or elaborated index).
    """

    time: float
    seq: int
    component: object
    port: object

    @classmethod
    def from_entry(cls, entry: Entry) -> "PulseEvent":
        """Materialise a queue entry tuple into an event object."""
        time, seq, component, port = entry
        return cls(time=time, seq=seq, component=component, port=port)

    def sort_key(self) -> tuple:
        return (self.time, self.seq)


@dataclass
class EventQueue:
    """A deterministic min-heap of ``(time, seq, target, port)`` tuples."""

    _heap: List[Entry] = field(default_factory=list)
    _seq: int = 0

    def push(self, time: float, target, port) -> Entry:
        """Schedule a pulse arrival; returns the stored entry tuple."""
        entry = (time, self._seq, target, port)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self) -> Optional[Entry]:
        """Remove and return the earliest entry tuple, or None when empty."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def pop_event(self) -> Optional[PulseEvent]:
        """Like :meth:`pop` but materialises a :class:`PulseEvent`."""
        entry = self.pop()
        return None if entry is None else PulseEvent.from_entry(entry)

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest pending entry without removing it."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def clear(self) -> None:
        self._heap.clear()
