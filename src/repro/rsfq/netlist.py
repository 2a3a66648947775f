"""Netlist: named cells plus delayed point-to-point wires.

RSFQ cells have a fan-out of one, so a wire connects exactly one output port
to exactly one input port; fan-out is built explicitly from SPL cells and
fan-in from CB cells, exactly as on the real chip.  Wires carry a
transmission delay and a JTL-repeater count used by the resource model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import ConfigurationError
from repro.rsfq.cells import Cell

CellRef = Union[Cell, str]


@dataclass(frozen=True)
class FanoutTable:
    """Pre-resolved, integer-indexed routing of a netlist, memoised per
    topology version.

    Built once by :meth:`Netlist.elaborate` and shared by every simulator
    run over the same circuit.  Cells and ports are resolved to integer
    indices *at elaboration time*, so the event loop's hot path moves bare
    ``(time, seq, cell_idx, port_idx)`` tuples and performs list indexing
    instead of string-keyed dict lookups per pulse.

    Attributes:
        version: The netlist topology version this table was built from
            (used to detect staleness after further construction).
        routes: Output-port routing, ``(src, src_port)`` -> destinations
            as ``(dst_name, dst_port, delay)`` (string view, kept for
            analysis tools and backwards compatibility).
        cells: Cell-name -> cell object mapping.
        cell_list: Cells in index order (``cell_list[cell_idx]``).
        cell_index: Cell-name -> integer index.
        input_ports: Per-cell tuple of input port names, indexed by
            ``[cell_idx][port_idx]`` (aliases ``cell.INPUTS``).
        routes_idx: ``(src_name, src_port)`` -> tuple of pre-resolved
            ``(dst_idx, dst_port_idx, delay, wire_id)`` destinations.
            ``wire_id`` indexes :attr:`wires` and keys the per-wire
            jitter streams.
        wires: All wires in construction order (``wires[wire_id]``).
    """

    version: int
    routes: Dict[Tuple[str, str], Tuple[Tuple[str, str, float], ...]]
    cells: Dict[str, Cell]
    cell_list: Tuple[Cell, ...]
    cell_index: Dict[str, int]
    input_ports: Tuple[Tuple[str, ...], ...]
    routes_idx: Dict[Tuple[str, str], Tuple[Tuple[int, int, float, int], ...]]
    wires: Tuple["Wire", ...]

    def fanout(self, cell_name: str, port: str) -> Tuple[Tuple[str, str, float], ...]:
        """Destinations driven by ``cell_name.port`` (possibly empty)."""
        return self.routes.get((cell_name, port), ())

    def resolve_endpoint(self, cell_name: str, port: str) -> Tuple[int, int]:
        """``(cell_idx, port_idx)`` of an input endpoint (cold path)."""
        cell_idx = self.cell_index[cell_name]
        return cell_idx, self.input_ports[cell_idx].index(port)

    def wire_key(self, wire_id: int) -> str:
        """A stable textual identity for a wire (seed material for the
        per-wire jitter streams -- see
        :func:`~repro.rsfq.simulator.wire_jitter_rng`)."""
        w = self.wires[wire_id]
        return f"{w.src}.{w.src_port}->{w.dst}.{w.dst_port}#{wire_id}"


@dataclass(frozen=True)
class Wire:
    """A directed connection between two cell ports.

    Attributes:
        src / src_port: Driving cell name and output port.
        dst / dst_port: Receiving cell name and input port.
        delay: Transmission delay in ps.
        jtl_count: Number of JTL repeater segments modelled along the wire
            (wiring resource; delay already includes their contribution).
    """

    src: str
    src_port: str
    dst: str
    dst_port: str
    delay: float = 0.0
    jtl_count: int = 0


class Netlist:
    """A circuit: cells, wires, and named external input pins."""

    #: Default wire delay (ps) when none is given: a short passive stub.
    DEFAULT_WIRE_DELAY = 1.0

    def __init__(self, name: str):
        self.name = name
        self.cells: Dict[str, Cell] = {}
        self._wires_by_src: Dict[Tuple[str, str], List[Wire]] = {}
        self.wires: List[Wire] = []
        #: Bumped on every structural change (add/connect); lets memoised
        #: elaborations detect staleness without hashing the whole graph.
        self.topology_version = 0
        self._elaborated: FanoutTable = None

    # -- construction ------------------------------------------------------

    def add(self, cell: Cell) -> Cell:
        """Register a cell; names must be unique within the netlist."""
        if cell.name in self.cells:
            raise ConfigurationError(
                f"duplicate cell name '{cell.name}' in netlist '{self.name}'"
            )
        self.cells[cell.name] = cell
        self.topology_version += 1
        return cell

    def connect(
        self,
        src: CellRef,
        src_port: str,
        dst: CellRef,
        dst_port: str,
        delay: float = None,
        jtl_count: int = 0,
    ) -> Wire:
        """Wire ``src.src_port`` to ``dst.dst_port``.

        Enforces the RSFQ fan-out-of-one rule: each output port may drive at
        most one wire.  Use an :class:`repro.rsfq.library.SPL` to fan out.
        """
        src_cell = self._resolve(src)
        dst_cell = self._resolve(dst)
        if src_port not in src_cell.OUTPUTS:
            raise ConfigurationError(
                f"'{src_cell.name}' has no output port '{src_port}'"
            )
        if dst_port not in dst_cell.INPUTS:
            raise ConfigurationError(
                f"'{dst_cell.name}' has no input port '{dst_port}'"
            )
        key = (src_cell.name, src_port)
        if self._wires_by_src.get(key):
            raise ConfigurationError(
                f"output {src_cell.name}.{src_port} already drives a wire; "
                "RSFQ fan-out is 1 -- insert an SPL to branch"
            )
        wire = Wire(
            src=src_cell.name,
            src_port=src_port,
            dst=dst_cell.name,
            dst_port=dst_port,
            delay=self.DEFAULT_WIRE_DELAY if delay is None else delay,
            jtl_count=jtl_count,
        )
        self._wires_by_src.setdefault(key, []).append(wire)
        self.wires.append(wire)
        self.topology_version += 1
        return wire

    def _resolve(self, ref: CellRef) -> Cell:
        if isinstance(ref, Cell):
            if self.cells.get(ref.name) is not ref:
                raise ConfigurationError(
                    f"cell '{ref.name}' is not part of netlist '{self.name}'"
                )
            return ref
        if ref not in self.cells:
            raise ConfigurationError(
                f"no cell named '{ref}' in netlist '{self.name}'"
            )
        return self.cells[ref]

    # -- queries -----------------------------------------------------------

    def fanout(self, src: CellRef, src_port: str) -> List[Wire]:
        """Wires driven by the given output port (0 or 1 entries)."""
        src_cell = self._resolve(src)
        return list(self._wires_by_src.get((src_cell.name, src_port), ()))

    def elaborate(self) -> FanoutTable:
        """Pre-resolved routing table, memoised per topology version.

        The returned :class:`FanoutTable` is rebuilt only when cells or
        wires have been added since the last call, so repeated simulator
        construction / batched runs over the same netlist amortise the
        elaboration cost.
        """
        cached = self._elaborated
        if cached is not None and cached.version == self.topology_version:
            return cached
        routes = {
            key: tuple((w.dst, w.dst_port, w.delay) for w in wires)
            for key, wires in self._wires_by_src.items()
        }
        cell_list = tuple(self.cells.values())
        cell_index = {cell.name: i for i, cell in enumerate(cell_list)}
        input_ports = tuple(cell.INPUTS for cell in cell_list)
        wire_ids = {id(w): i for i, w in enumerate(self.wires)}
        routes_idx = {
            key: tuple(
                (
                    cell_index[w.dst],
                    input_ports[cell_index[w.dst]].index(w.dst_port),
                    w.delay,
                    wire_ids[id(w)],
                )
                for w in wires
            )
            for key, wires in self._wires_by_src.items()
        }
        self._elaborated = FanoutTable(
            version=self.topology_version,
            routes=routes,
            cells=dict(self.cells),
            cell_list=cell_list,
            cell_index=cell_index,
            input_ports=input_ports,
            routes_idx=routes_idx,
            wires=tuple(self.wires),
        )
        return self._elaborated

    def cells_of_type(self, cell_type: type) -> List[Cell]:
        """All cells that are instances of ``cell_type``."""
        return [c for c in self.cells.values() if isinstance(c, cell_type)]

    def logic_jj_count(self) -> int:
        """Total JJs in functional cells (excludes wire JTL repeaters)."""
        return sum(c.JJ_COUNT for c in self.cells.values())

    def wiring_jj_count(self) -> int:
        """Total JJs in JTL repeaters along wires."""
        from repro.rsfq.library import JTL

        return sum(w.jtl_count * JTL.JJ_COUNT for w in self.wires)

    def total_jj_count(self) -> int:
        """Logic plus wiring JJs."""
        return self.logic_jj_count() + self.wiring_jj_count()

    def cell_histogram(self) -> Dict[str, int]:
        """Cell-type name -> instance count (for resource reports)."""
        hist: Dict[str, int] = {}
        for cell in self.cells.values():
            key = type(cell).__name__
            hist[key] = hist.get(key, 0) + 1
        return hist

    def reset_state(self) -> None:
        """Reset every cell to its power-on state."""
        for cell in self.cells.values():
            cell.reset_state()

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterable[Cell]:
        return iter(self.cells.values())

    def __repr__(self) -> str:
        return (
            f"<Netlist '{self.name}': {len(self.cells)} cells, "
            f"{len(self.wires)} wires>"
        )
