"""RSFQ standard-cell library (SIMIT-Nb03-like).

Behavioural models of the cells used by SUSHI (paper section 2.1.2), with
Josephson-junction counts, areas, delays and static-power figures in the
style of the SIMIT-Nb03 library.  The absolute resource values are estimates
calibrated against the paper's published totals (Table 2, Fig. 13); see
``repro.resources.cell_costs`` for the calibration.

Cells:

* :class:`JTL` -- Josephson transmission line segment (wiring).
* :class:`SPL` / :class:`SPL3` -- 1-to-2 / 1-to-3 pulse splitters.
* :class:`CB` / :class:`CB3` -- 2-to-1 / 3-to-1 confluence buffers.
* :class:`DFF` -- destructive-readout storage (release on clk).
* :class:`NDRO` -- non-destructive readout; set by din, cleared by rst,
  emits on clk while set (a configurable switch).
* :class:`TFFL` / :class:`TFFR` -- toggle flip-flops emitting on the 0->1 /
  1->0 flip respectively.
* :class:`DCSFQ` / :class:`SFQDC` -- IO converters between DC levels and SFQ
  pulses (modelled as delays with resource cost).
* :class:`Probe` -- zero-cost measurement sink recording pulse times.
"""

from __future__ import annotations

from typing import List

from repro.rsfq import constraints as K
from repro.rsfq.cells import Cell


class JTL(Cell):
    """Josephson transmission line segment: a powered wire repeater."""

    __slots__ = ()

    INPUTS = ("din",)
    OUTPUTS = ("dout",)
    CONSTRAINTS = {("din", "din"): K.MIN_PULSE_INTERVAL}
    JJ_COUNT = 2
    AREA_UM2 = 1540.0
    DELAY_PS = 3.4
    STATIC_POWER_NW = 77.0

    def on_pulse(self, port, time, sim):
        sim.deliver(self, "dout", time + self.DELAY_PS)


class SPL(Cell):
    """1-to-2 splitter: every input pulse is duplicated on both outputs."""

    __slots__ = ()

    INPUTS = ("din",)
    OUTPUTS = ("doutA", "doutB")
    CONSTRAINTS = {("din", "din"): K.MIN_PULSE_INTERVAL}
    JJ_COUNT = 3
    AREA_UM2 = 2310.0
    DELAY_PS = 5.1
    STATIC_POWER_NW = 116.0

    def on_pulse(self, port, time, sim):
        t = time + self.DELAY_PS
        sim.deliver(self, "doutA", t)
        sim.deliver(self, "doutB", t)


class SPL3(Cell):
    """1-to-3 splitter (a fused pair of SPLs)."""

    __slots__ = ()

    INPUTS = ("din",)
    OUTPUTS = ("doutA", "doutB", "doutC")
    CONSTRAINTS = {("din", "din"): K.MIN_PULSE_INTERVAL}
    JJ_COUNT = 5
    AREA_UM2 = 3850.0
    DELAY_PS = 7.6
    STATIC_POWER_NW = 193.0

    def on_pulse(self, port, time, sim):
        t = time + self.DELAY_PS
        sim.deliver(self, "doutA", t)
        sim.deliver(self, "doutB", t)
        sim.deliver(self, "doutC", t)


class CB(Cell):
    """2-to-1 confluence buffer: pulses on either input appear on dout."""

    __slots__ = ()

    INPUTS = ("dinA", "dinB")
    OUTPUTS = ("dout",)
    CONSTRAINTS = {
        ("dinA", "dinA"): K.MIN_PULSE_INTERVAL,
        ("dinB", "dinB"): K.MIN_PULSE_INTERVAL,
        ("dinA", "dinB"): K.CB_CROSS_INTERVAL,
        ("dinB", "dinA"): K.CB_CROSS_INTERVAL,
    }
    JJ_COUNT = 7
    AREA_UM2 = 3080.0
    DELAY_PS = 5.6
    STATIC_POWER_NW = 154.0

    def on_pulse(self, port, time, sim):
        sim.deliver(self, "dout", time + self.DELAY_PS)


class CB3(Cell):
    """3-to-1 confluence buffer (a fused pair of CBs)."""

    __slots__ = ()

    INPUTS = ("dinA", "dinB", "dinC")
    OUTPUTS = ("dout",)
    CONSTRAINTS = {
        ("dinA", "dinA"): K.MIN_PULSE_INTERVAL,
        ("dinB", "dinB"): K.MIN_PULSE_INTERVAL,
        ("dinC", "dinC"): K.MIN_PULSE_INTERVAL,
        ("dinA", "dinB"): K.CB_CROSS_INTERVAL,
        ("dinB", "dinA"): K.CB_CROSS_INTERVAL,
        ("dinA", "dinC"): K.CB_CROSS_INTERVAL,
        ("dinC", "dinA"): K.CB_CROSS_INTERVAL,
        ("dinB", "dinC"): K.CB_CROSS_INTERVAL,
        ("dinC", "dinB"): K.CB_CROSS_INTERVAL,
    }
    JJ_COUNT = 11
    AREA_UM2 = 4930.0
    DELAY_PS = 8.4
    STATIC_POWER_NW = 246.0

    def on_pulse(self, port, time, sim):
        sim.deliver(self, "dout", time + self.DELAY_PS)


class DFF(Cell):
    """D flip-flop: stores one pulse on din, releases it on clk."""

    __slots__ = ("stored",)

    INPUTS = ("din", "clk")
    OUTPUTS = ("dout",)
    CONSTRAINTS = {
        ("din", "din"): K.MIN_PULSE_INTERVAL,
        ("din", "clk"): K.DFF_DIN_TO_CLK,
        ("clk", "clk"): K.MIN_PULSE_INTERVAL,
    }
    JJ_COUNT = 6
    AREA_UM2 = 3700.0
    DELAY_PS = 6.3
    STATIC_POWER_NW = 185.0

    def __init__(self, name: str):
        super().__init__(name)
        self.stored = False

    def on_pulse(self, port, time, sim):
        if port == "din":
            self.stored = True
        elif port == "clk" and self.stored:
            self.stored = False
            sim.deliver(self, "dout", time + self.DELAY_PS)

    def reset_state(self):
        super().reset_state()
        self.stored = False

    def flux_trap(self):
        """A trapped flux quantum toggles the storage loop."""
        self.stored = not self.stored
        return True


class NDRO(Cell):
    """Non-destructive readout: a flux-stored configurable switch.

    ``din`` sets the internal state, ``rst`` clears it, and each ``clk``
    pulse is forwarded to ``dout`` while the state is set (the read does not
    destroy the state).  SUSHI uses NDROs as the set0/set1 gates of the state
    controller and as the crosspoint enable switches of the mesh network.
    """

    __slots__ = ("stored",)

    INPUTS = ("din", "rst", "clk")
    OUTPUTS = ("dout",)
    CONSTRAINTS = {
        ("din", "rst"): K.NDRO_DIN_RST_SEPARATION,
        ("rst", "din"): K.NDRO_DIN_RST_SEPARATION,
        ("din", "clk"): K.NDRO_DIN_TO_CLK,
        ("rst", "clk"): K.NDRO_RST_TO_CLK,
        ("clk", "clk"): K.NDRO_CLK_TO_CLK,
    }
    JJ_COUNT = 13
    AREA_UM2 = 6160.0
    DELAY_PS = 7.2
    STATIC_POWER_NW = 339.0

    def __init__(self, name: str):
        super().__init__(name)
        self.stored = False

    def on_pulse(self, port, time, sim):
        if port == "din":
            self.stored = True
        elif port == "rst":
            self.stored = False
        elif port == "clk" and self.stored:
            sim.deliver(self, "dout", time + self.DELAY_PS)

    def reset_state(self):
        super().reset_state()
        self.stored = False

    def flux_trap(self):
        """A trapped flux quantum toggles the NDRO storage loop."""
        self.stored = not self.stored
        return True


class _TFFBase(Cell):
    """Shared behaviour of TFFL/TFFR: toggle on every din pulse."""

    __slots__ = ("state",)

    INPUTS = ("din",)
    OUTPUTS = ("dout",)
    CONSTRAINTS = {("din", "din"): K.TFF_MIN_INTERVAL}
    JJ_COUNT = 10
    AREA_UM2 = 4620.0
    DELAY_PS = 6.9
    STATIC_POWER_NW = 246.0
    #: Emit when the state flips *to* this value.
    EMIT_ON_STATE = True

    def __init__(self, name: str):
        super().__init__(name)
        self.state = False

    def on_pulse(self, port, time, sim):
        self.state = not self.state
        if self.state == self.EMIT_ON_STATE:
            sim.deliver(self, "dout", time + self.DELAY_PS)

    def reset_state(self):
        super().reset_state()
        self.state = False

    def flux_trap(self):
        """A trapped flux quantum flips the TFF phase."""
        self.state = not self.state
        return True


class TFFL(_TFFBase):
    """Toggle flip-flop emitting a pulse on the 0 -> 1 flip."""

    __slots__ = ()

    EMIT_ON_STATE = True


class TFFR(_TFFBase):
    """Toggle flip-flop emitting a pulse on the 1 -> 0 flip."""

    __slots__ = ()

    EMIT_ON_STATE = False


class DCSFQ(Cell):
    """DC-to-SFQ input converter: one pulse per input edge (pass-through)."""

    __slots__ = ()

    INPUTS = ("din",)
    OUTPUTS = ("dout",)
    CONSTRAINTS = {("din", "din"): K.MIN_PULSE_INTERVAL}
    JJ_COUNT = 8
    AREA_UM2 = 4010.0
    DELAY_PS = 5.8
    STATIC_POWER_NW = 200.0

    def on_pulse(self, port, time, sim):
        sim.deliver(self, "dout", time + self.DELAY_PS)


class SFQDC(Cell):
    """SFQ-to-DC output amplifier stack driving room-temperature equipment.

    Output drivers are by far the largest IO cells in RSFQ designs: they
    stack amplifying junctions to produce an oscilloscope-visible level
    toggle per pulse (paper Fig. 14 / Fig. 16).
    """

    __slots__ = ()

    INPUTS = ("din",)
    OUTPUTS = ("dout",)
    CONSTRAINTS = {("din", "din"): K.MIN_PULSE_INTERVAL}
    JJ_COUNT = 52
    AREA_UM2 = 26400.0
    DELAY_PS = 11.4
    STATIC_POWER_NW = 1480.0

    def on_pulse(self, port, time, sim):
        sim.deliver(self, "dout", time + self.DELAY_PS)


class Probe(Cell):
    """Measurement sink: records pulse arrival times (no hardware cost)."""

    __slots__ = ("times",)

    INPUTS = ("din",)
    OUTPUTS = ()
    CONSTRAINTS = {}
    JJ_COUNT = 0
    AREA_UM2 = 0.0
    DELAY_PS = 0.0
    STATIC_POWER_NW = 0.0

    def __init__(self, name: str):
        super().__init__(name)
        self.times: List[float] = []

    def on_pulse(self, port, time, sim):
        self.times.append(time)

    def reset_state(self):
        super().reset_state()
        self.times = []


#: All instantiable cell classes, for library-wide tests and accounting.
ALL_CELLS = (JTL, SPL, SPL3, CB, CB3, DFF, NDRO, TFFL, TFFR, DCSFQ, SFQDC, Probe)
