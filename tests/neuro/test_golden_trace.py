"""Golden pulse-trace snapshot tests for the Fig. 16 bring-up circuit.

The 2-NPE bring-up script (`two_npe_bringup_trace`) drives the fabricated
chip's configuration -- one row NPE relaying into one column NPE -- through
a fixed little inference.  At ``jitter_ps=0`` the gate-level simulation is
fully deterministic, so the resulting :class:`PulseTrace` must match the
serialized reference in ``tests/golden/`` event for event.  Any change to
cell timing, netlist elaboration order, event-queue tie-breaking, or the
driver protocol shows up here as an exact-sequence diff.

Regenerate the golden file (after an *intentional* timing change) with::

    PYTHONPATH=src python -c "
    from repro.neuro.bringup import two_npe_bringup_trace
    two_npe_bringup_trace().save('tests/golden/two_npe_pulse_trace.json')"
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.neuro.bringup import two_npe_bringup_trace
from repro.rsfq.waveform import PulseTrace

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "two_npe_pulse_trace.json"


@pytest.fixture(scope="module")
def golden_trace() -> PulseTrace:
    return PulseTrace.load(GOLDEN)


class TestGoldenSnapshot:
    def test_bringup_trace_matches_golden_exactly(self, golden_trace):
        trace = two_npe_bringup_trace()
        assert trace.events() == golden_trace.events()
        assert trace == golden_trace

    def test_golden_trace_is_nonempty(self, golden_trace):
        events = golden_trace.events()
        assert len(events) > 100  # a real inference, not a stub
        # Events are (component, port, time) with monotone non-decreasing
        # times: the trace records delivery order.
        times = [t for _, _, t in events]
        assert times == sorted(times)

    def test_golden_trace_contains_a_fire(self, golden_trace):
        # The script's third excitatory pass crosses the threshold; the
        # column NPE's fire path must appear in the reference trace.
        components = {component for component, _, _ in golden_trace.events()}
        assert any("col0" in c for c in components)
        assert any("rowline0" in c for c in components)

    def test_trace_round_trips_through_payload(self, golden_trace):
        payload = golden_trace.to_payload()
        assert payload["version"] == 1
        restored = PulseTrace.from_payload(payload)
        assert restored == golden_trace

    def test_golden_file_is_versioned_json(self):
        payload = json.loads(GOLDEN.read_text())
        assert payload["version"] == 1
        assert all({"component", "port", "time"} <= set(e) for e in payload["events"])


class TestJitterDeterminism:
    def test_identical_seeds_give_identical_traces(self):
        a = two_npe_bringup_trace(jitter_ps=1.5, seed=7)
        b = two_npe_bringup_trace(jitter_ps=1.5, seed=7)
        assert a == b
        assert a.events() == b.events()

    def test_different_seeds_give_different_traces(self):
        a = two_npe_bringup_trace(jitter_ps=1.5, seed=7)
        b = two_npe_bringup_trace(jitter_ps=1.5, seed=8)
        assert a != b

    def test_jittered_trace_differs_from_clean(self, golden_trace):
        jittered = two_npe_bringup_trace(jitter_ps=1.5, seed=7)
        assert jittered != golden_trace
        # ... but only in timing, not in which pulses exist.
        assert len(jittered.events()) == len(golden_trace.events())

    def test_zero_jitter_ignores_seed(self, golden_trace):
        # With no jitter the seed must not perturb the event sequence.
        assert two_npe_bringup_trace(jitter_ps=0.0, seed=123) == golden_trace


class TestPayloadValidation:
    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            PulseTrace.from_payload({"events": []})  # missing version
        with pytest.raises(ConfigurationError):
            PulseTrace.from_payload({"version": 99, "events": []})
        with pytest.raises(ConfigurationError):
            PulseTrace.from_payload({"version": 1, "events": [{"component": "x"}]})

    def test_save_load_round_trip(self, tmp_path):
        trace = two_npe_bringup_trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        assert PulseTrace.load(path) == trace
