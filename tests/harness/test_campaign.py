"""Tests for the Monte-Carlo resilience campaign harness.

Contract: campaigns are bit-deterministic given their seed, the p=0
baseline is perfectly clean, BER degrades monotonically in fault
probability for the drop process, and the campaign's trace-engine trials
measure what a fresh event-engine simulator per trial measures.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.campaign import (
    CampaignConfig,
    CampaignPoint,
    CampaignResult,
    _trial_model,
    _window_errors,
    build_reference_pipeline,
    run_resilience_campaign,
)
from repro.rsfq import Simulator
from repro.rsfq.trace import GLOBAL_TRACE_COUNTERS


SMALL = CampaignConfig(
    kinds=("pulse_drop",),
    probabilities=(0.0, 0.05, 0.3),
    trials=2,
    chain_length=8,
    n_pulses=16,
)


@pytest.fixture(scope="module")
def small_result():
    return run_resilience_campaign(SMALL)


class TestConfigValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            CampaignConfig(kinds=("gamma_ray",))

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError, match="trials"):
            CampaignConfig(trials=0)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            CampaignConfig(probabilities=(0.0, 1.5))

    def test_bad_workload_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(chain_length=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(n_pulses=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(pulse_interval_ps=0.0)


class TestReferencePipeline:
    def test_pipeline_delivers_one_pulse_per_input(self):
        from repro.rsfq import Simulator

        net, probe = build_reference_pipeline(5)
        sim = Simulator(net)
        for k in range(4):
            sim.schedule_input("j0", "din", k * 200.0)
        sim.run()
        assert len(probe.times) == 4


class TestCampaignProperties:
    def test_zero_probability_clean(self, small_result):
        assert small_result.zero_probability_clean()
        p0 = [pt for pt in small_result.points if pt.probability == 0.0]
        assert p0 and all(
            pt.ber == 0.0 and pt.injections == 0 for pt in p0
        )

    def test_ber_monotone_in_drop_probability(self, small_result):
        assert small_result.ber_monotone()
        _, bers = small_result.curve("pulse_drop")
        assert bers[0] == 0.0
        assert bers[-1] > 0.0  # p=0.3 over 8 wires visibly degrades

    def test_injections_grow_with_probability(self, small_result):
        pts = sorted(
            (pt for pt in small_result.points),
            key=lambda pt: pt.probability,
        )
        injections = [pt.injections for pt in pts]
        assert injections == sorted(injections)

    def test_campaign_is_deterministic(self, small_result):
        again = run_resilience_campaign(SMALL)
        assert [pt.to_row() for pt in again.points] == \
            [pt.to_row() for pt in small_result.points]

    def test_jitter_axis_is_swept(self):
        result = run_resilience_campaign(CampaignConfig(
            kinds=("pulse_drop",), probabilities=(0.0,),
            jitter_sigmas=(0.0, 1.0), trials=1,
            chain_length=4, n_pulses=4,
        ))
        sigmas = {pt.jitter_ps for pt in result.points}
        assert sigmas == {0.0, 1.0}
        # Mild jitter does not corrupt a widely-spaced clean stream.
        assert all(pt.ber == 0.0 for pt in result.points)

    def test_duplicate_kind_overfills_windows(self):
        result = run_resilience_campaign(CampaignConfig(
            kinds=("pulse_duplicate",), probabilities=(0.0, 1.0),
            trials=1, chain_length=4, n_pulses=8,
        ))
        _, bers = result.curve("pulse_duplicate")
        assert bers == [0.0, 1.0]


class TestRenderingAndSerialisation:
    def test_summary_lists_every_point(self, small_result):
        text = small_result.summary()
        assert "resilience campaign" in text
        assert text.count("pulse_drop") == len(small_result.points)

    def test_chart_renders_series(self, small_result):
        chart = small_result.chart("pulse_drop")
        assert "BER vs fault probability" in chart
        assert "pulse_drop" in chart

    def test_chart_unknown_kind_raises(self, small_result):
        with pytest.raises(ConfigurationError, match="no campaign points"):
            small_result.chart("flux_trap")

    def test_json_roundtrip(self, small_result, tmp_path):
        path = tmp_path / "campaign.json"
        small_result.save(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.campaign/v1"
        assert payload["ber_monotone"] is True
        assert payload["zero_probability_clean"] is True
        assert len(payload["points"]) == len(small_result.points)
        assert payload["config"]["kinds"] == list(SMALL.kinds)

    def test_empty_result_is_vacuously_healthy(self):
        empty = CampaignResult(config=SMALL)
        assert empty.ber_monotone()
        assert empty.zero_probability_clean()


def event_engine_points(config):
    """Every grid point of ``config`` computed on the event engine: a
    fresh :class:`Simulator` per trial, with the campaign's seeds, fault
    models and BER windows (the oracle for the traced campaign)."""
    interval = config.pulse_interval_ps
    net, probe = build_reference_pipeline(config.chain_length)
    sim = Simulator(net)
    sim.schedule_input("j0", "din", 0.0)
    sim.run()
    latency = probe.times[0]
    points = []
    for kind in config.kinds:
        for sigma in config.jitter_sigmas:
            for p in config.probabilities:
                bit_errors = injections = violations = events = 0
                slacks = []
                for trial in range(config.trials):
                    net, probe = build_reference_pipeline(
                        config.chain_length
                    )
                    sim = Simulator(
                        net, jitter_ps=sigma,
                        seed=f"campaign-jitter|{config.seed!r}|{trial}",
                        faults=_trial_model(kind, p, config.fault_delay_ps,
                                            config.seed, trial),
                    )
                    for k in range(config.n_pulses):
                        sim.schedule_input("j0", "din", k * interval)
                    sim.run()
                    bit_errors += _window_errors(
                        probe.times, config.n_pulses, interval, latency
                    )
                    injections += sum(sim.fault_counts().values())
                    violations += len(sim.violations)
                    events += sim.events_processed
                    slacks += [row["slack_ps"]
                               for row in sim.margin_report()]
                bits = config.trials * config.n_pulses
                points.append(CampaignPoint(
                    kind=kind, probability=p, jitter_ps=sigma,
                    trials=config.trials, bits=bits, bit_errors=bit_errors,
                    ber=bit_errors / bits, injections=injections,
                    violations=violations, events=events,
                    worst_slack_ps=min(slacks) if slacks else None,
                ))
    return points


class TestTracedCampaignEngine:
    """The campaign's trace-engine trials match the event engine."""

    def test_traced_campaign_matches_event_campaign(self):
        config = CampaignConfig(
            kinds=("pulse_drop",), probabilities=(0.0, 0.1),
            jitter_sigmas=(0.0, 0.3), trials=2,
            chain_length=8, n_pulses=8,
        )
        GLOBAL_TRACE_COUNTERS.reset()
        traced = run_resilience_campaign(config)
        counts = GLOBAL_TRACE_COUNTERS.snapshot()
        # Both ways through the trace engine were taken: p=0 trials
        # replay, injecting trials fall back to the event engine.
        assert counts["replays"] > 0 and counts["fallbacks"] > 0
        assert traced.points == event_engine_points(config)
