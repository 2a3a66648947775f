"""Monte-Carlo resilience campaigns over the fault-injection subsystem.

A campaign answers the question the paper's robustness discussion leaves
open for a reproduction: *how quickly does a SUSHI-style pulse pipeline
degrade as physical fault rates rise?*  It sweeps a grid of fault
probability x jitter sigma x Monte-Carlo seeds over a reference pulse
pipeline, measures the **bit-error rate** (BER) of the delivered pulse
stream, and reports violation counts and margin degradation alongside.

Everything is deterministic: each grid point's trials derive their fault
seeds from ``(campaign seed, trial index)`` via
:meth:`~repro.rsfq.faults.FaultModel.reseeded`, so a campaign's numbers
are bit-stable across hosts and engines -- the CI smoke job pins them in
``benchmarks/BENCH_faults.json``.

BER definition
--------------

The default workload injects one SFQ pulse every ``pulse_interval_ps``
(200 ps -- comfortably wider than any fault echo/delay the default specs
introduce) into a JTL chain and probes the far end.  Each input pulse
owns one arrival *window*; a window is correct iff exactly one probe
pulse lands in it.  Dropped pulses leave empty windows, duplicated
pulses overfill them, large extra delays push pulses into a neighbour's
window -- all count as bit errors::

    BER = erroneous windows / total windows   (over all trials)

Typical use::

    from repro.harness.campaign import CampaignConfig, run_resilience_campaign

    result = run_resilience_campaign(CampaignConfig(
        kinds=("pulse_drop", "pulse_duplicate"),
        probabilities=(0.0, 0.01, 0.05),
        trials=5,
    ))
    print(result.summary())
    print(result.chart("pulse_drop"))
    result.save("campaign.json")
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harness.charts import line_chart
from repro.harness.reporting import format_table
from repro.rsfq.faults import FAULT_KINDS, FaultModel
from repro.rsfq.library import JTL, Probe
from repro.rsfq.netlist import Netlist
from repro.rsfq.simulator import Simulator, margin_report_rows
from repro.rsfq.trace import TraceEngine

__all__ = [
    "CampaignConfig",
    "CampaignPoint",
    "CampaignResult",
    "run_resilience_campaign",
    "build_reference_pipeline",
]


@dataclass(frozen=True)
class CampaignConfig:
    """One resilience campaign's sweep grid and workload parameters.

    Attributes:
        kinds: Fault kinds to sweep (each gets its own probability curve).
        probabilities: Per-decision fault probabilities, swept per kind.
        jitter_sigmas: Wire-jitter standard deviations (ps) crossed with
            the probability grid.
        trials: Monte-Carlo trials per grid point (fresh fault + jitter
            seeds each, derived from ``seed``).
        seed: Campaign master seed.
        chain_length: JTL stages in the reference pipeline.
        n_pulses: Input pulses per trial (= BER bits per trial).
        pulse_interval_ps: Input pulse spacing; also the BER window width.
        fault_delay_ps: ``delay_ps`` for duplicate/extra-delay specs.
        max_events: Runaway guard per trial.
        deadline_s: Optional wall-clock guard per trial (see
            :meth:`repro.rsfq.simulator.Simulator.run`).
    """

    kinds: Tuple[str, ...] = ("pulse_drop",)
    probabilities: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.1)
    jitter_sigmas: Tuple[float, ...] = (0.0,)
    trials: int = 3
    seed: int = 0
    chain_length: int = 24
    n_pulses: int = 32
    pulse_interval_ps: float = 200.0
    fault_delay_ps: float = 5.0
    max_events: int = 10_000_000
    deadline_s: Optional[float] = None

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind '{kind}'; "
                    f"available: {list(FAULT_KINDS)}"
                )
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.chain_length < 1:
            raise ConfigurationError("chain_length must be >= 1")
        if self.n_pulses < 1:
            raise ConfigurationError("n_pulses must be >= 1")
        if self.pulse_interval_ps <= 0:
            raise ConfigurationError("pulse_interval_ps must be > 0")
        for p in self.probabilities:
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"probability {p} outside [0, 1]"
                )


@dataclass
class CampaignPoint:
    """Aggregated measurements of one ``(kind, probability, jitter)`` grid
    point across its Monte-Carlo trials."""

    kind: str
    probability: float
    jitter_ps: float
    trials: int
    bits: int
    bit_errors: int
    ber: float
    injections: int
    violations: int
    events: int
    worst_slack_ps: Optional[float]

    def to_row(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "p": self.probability,
            "jitter_ps": self.jitter_ps,
            "BER": round(self.ber, 6),
            "bit_errors": self.bit_errors,
            "bits": self.bits,
            "injections": self.injections,
            "violations": self.violations,
            "worst_slack_ps": (
                "-" if self.worst_slack_ps is None
                else round(self.worst_slack_ps, 2)
            ),
        }


@dataclass
class CampaignResult:
    """All grid points of one campaign plus serialisation/chart hooks."""

    config: CampaignConfig
    points: List[CampaignPoint] = field(default_factory=list)

    # -- queries -----------------------------------------------------------

    def curve(self, kind: str, jitter_ps: float = 0.0,
              ) -> Tuple[List[float], List[float]]:
        """``(probabilities, BERs)`` of one kind's degradation curve."""
        pts = sorted(
            (pt for pt in self.points
             if pt.kind == kind and pt.jitter_ps == jitter_ps),
            key=lambda pt: pt.probability,
        )
        return [pt.probability for pt in pts], [pt.ber for pt in pts]

    def ber_monotone(self, tolerance: float = 0.0) -> bool:
        """True when every (kind, jitter) curve's BER is non-decreasing in
        fault probability (within ``tolerance``) -- the sanity property
        the CI smoke job asserts."""
        seen = {(pt.kind, pt.jitter_ps) for pt in self.points}
        for kind, jitter in seen:
            _, bers = self.curve(kind, jitter)
            for lo, hi in zip(bers, bers[1:]):
                if hi + tolerance < lo:
                    return False
        return True

    def zero_probability_clean(self) -> bool:
        """True when every p=0 point recorded BER 0, zero injections and
        zero violations (the no-fault baseline really is fault-free)."""
        return all(
            pt.ber == 0.0 and pt.injections == 0 and pt.violations == 0
            for pt in self.points if pt.probability == 0.0
        )

    # -- rendering ---------------------------------------------------------

    def summary(self) -> str:
        """Aligned text table of every grid point."""
        return format_table(
            [pt.to_row() for pt in self.points],
            title=(
                f"resilience campaign: {self.config.trials} trials/point, "
                f"{self.config.n_pulses}-bit stream over "
                f"{self.config.chain_length}-stage pipeline"
            ),
        )

    def chart(self, kind: Optional[str] = None) -> str:
        """ASCII BER-vs-probability chart (one series per (kind, jitter)
        combination; restrict with ``kind``)."""
        series: Dict[str, Sequence[float]] = {}
        x_values: Optional[List[float]] = None
        for k in (self.config.kinds if kind is None else (kind,)):
            for sigma in self.config.jitter_sigmas:
                xs, ys = self.curve(k, sigma)
                if not xs:
                    continue
                label = k if sigma == 0.0 else f"{k}@{sigma:g}ps"
                series[label] = ys
                x_values = xs
        if not series or x_values is None:
            raise ConfigurationError(
                f"no campaign points for kind={kind!r}"
            )
        return line_chart(
            x_values, series,
            title="BER vs fault probability", y_label="BER",
        )

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        cfg = asdict(self.config)
        return {
            "schema": "repro.campaign/v1",
            "config": cfg,
            "points": [asdict(pt) for pt in self.points],
            "ber_monotone": self.ber_monotone(),
            "zero_probability_clean": self.zero_probability_clean(),
        }

    def save(self, path) -> None:
        """Write the campaign artifact as pretty-printed JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_reference_pipeline(chain_length: int) -> Tuple[Netlist, Probe]:
    """The campaign's default workload: a ``chain_length``-stage JTL chain
    with a probe on the far end (the minimal circuit in which every fault
    kind is observable as a bit error)."""
    net = Netlist("resilience-pipeline")
    prev = None
    for i in range(chain_length):
        cell = net.add(JTL(f"j{i}"))
        if prev is not None:
            net.connect(prev, "dout", cell, "din")
        prev = cell
    probe = net.add(Probe("probe"))
    net.connect(prev, "dout", probe, "din")
    return net, probe


def _window_errors(times: Sequence[float], n_pulses: int,
                   interval: float, latency: float) -> int:
    """Count BER windows that did not receive exactly one pulse."""
    counts = [0] * n_pulses
    stray = 0
    for t in times:
        k = int(round((t - latency) / interval))
        if 0 <= k < n_pulses:
            counts[k] += 1
        else:
            stray += 1  # pushed clear out of the stream -- count below
    errors = sum(1 for c in counts if c != 1)
    # A stray pulse beyond the last window is already someone's missing
    # pulse (counted above) or a duplicate escapee; only count it when it
    # did not already surface as a window error.
    return min(errors + max(stray - errors, 0), n_pulses)


def _trial_model(kind: str, probability: float, delay_ps: float,
                 seed, trial: int) -> FaultModel:
    """The trial's fault model: one spec, reseeded per (seed, trial)."""
    return FaultModel.single(
        kind, probability=probability, delay_ps=delay_ps,
        seed=f"campaign|{seed!r}|{trial}",
    )


def run_resilience_campaign(
    config: CampaignConfig = CampaignConfig(),
    netlist_factory=None,
) -> CampaignResult:
    """Sweep the campaign grid and return the aggregated result.

    ``netlist_factory`` overrides the workload: a callable returning
    ``(netlist, probe)`` like :func:`build_reference_pipeline` (the
    default).  Each trial constructs a fresh workload so cell state and
    probes never leak between grid points.

    Every trial runs through one :class:`~repro.rsfq.trace.TraceEngine`:
    the stimulus schedule is identical across trials and grid points, so
    a single recording serves every zero-injection trial as a vectorized
    replay, and injecting or divergent trials fall back to the event
    engine with bit-identical results (see docs/ENGINE.md).
    """
    factory = netlist_factory or (
        lambda: build_reference_pipeline(config.chain_length)
    )
    interval = config.pulse_interval_ps
    result = CampaignResult(config=config)
    trace_engine = TraceEngine(factory()[0])

    # Chain latency: probe arrival time of an unfaulted pulse, measured
    # once on a clean run (robust to custom factories).
    net, probe = factory()
    sim = Simulator(net)
    sim.schedule_input(next(iter(net.cells)), "din", 0.0)
    sim.run(max_events=config.max_events)
    latency = probe.times[0] if probe.times else 0.0

    for kind in config.kinds:
        for sigma in config.jitter_sigmas:
            for p in config.probabilities:
                bits = 0
                bit_errors = 0
                injections = 0
                violations = 0
                events = 0
                worst_slack: Optional[float] = None
                for trial in range(config.trials):
                    net, probe = factory()
                    model = _trial_model(
                        kind, p, config.fault_delay_ps, config.seed, trial
                    )
                    # String seeds use CPython's stable sha512 seeding in
                    # the per-wire streams, so trial jitter is
                    # reproducible across hosts and processes.
                    jitter_seed = f"campaign-jitter|{config.seed!r}|{trial}"
                    first = next(iter(net.cells))
                    stimuli = [
                        (first, "din", k * interval)
                        for k in range(config.n_pulses)
                    ]
                    episode = trace_engine.run_episode(
                        (stimuli,), jitter_ps=sigma, seed=jitter_seed,
                        faults=model, max_events=config.max_events,
                        deadline_s=config.deadline_s, netlist=net,
                    )
                    bits += config.n_pulses
                    bit_errors += _window_errors(
                        probe.times, config.n_pulses, interval, latency
                    )
                    injections += sum(episode.fault_counts.values())
                    violations += len(episode.violations)
                    events += episode.events
                    for row in margin_report_rows(episode.margins):
                        slack = row["slack_ps"]
                        if worst_slack is None or slack < worst_slack:
                            worst_slack = slack
                result.points.append(CampaignPoint(
                    kind=kind,
                    probability=p,
                    jitter_ps=sigma,
                    trials=config.trials,
                    bits=bits,
                    bit_errors=bit_errors,
                    ber=bit_errors / bits if bits else 0.0,
                    injections=injections,
                    violations=violations,
                    events=events,
                    worst_slack_ps=worst_slack,
                ))
    return result
