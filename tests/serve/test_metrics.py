"""Edge-case tests for serving metrics and Prometheus exposition.

Covers the corners the gateway depends on: a zero-request snapshot must
not divide by zero, a single latency sample pins every percentile, and
the bounded latency window truncates oldest-first.
"""

import re

import pytest

from repro.obs import render_prometheus
from repro.serve.metrics import (
    BREAKER_STATES,
    MetricsRecorder,
    ServerStats,
    _percentile,
    server_stats_families,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert _percentile([], 0.5) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 0.5, 0.95, 1.0):
            assert _percentile([7.5], q) == 7.5

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 0.5) == 3.0
        assert _percentile(values, 1.0) == 5.0


class TestSnapshotEdges:
    def test_zero_request_snapshot(self):
        """A fresh recorder snapshots all-zero without dividing by
        zero (uptime, mean_batch, percentiles)."""
        stats = MetricsRecorder().snapshot()
        assert stats.requests == 0
        assert stats.completed == 0
        assert stats.mean_batch == 0.0
        assert stats.latency_ms_p50 == 0.0
        assert stats.latency_ms_max == 0.0
        assert stats.fps == 0.0
        assert stats.sops == 0.0
        assert stats.pending == 0

    def test_single_sample_percentiles_collapse(self):
        recorder = MetricsRecorder()
        recorder.record_submit()
        recorder.record_batch(1, synops=10, latencies_ms=[3.5])
        stats = recorder.snapshot()
        assert stats.latency_ms_p50 == 3.5
        assert stats.latency_ms_p95 == 3.5
        assert stats.latency_ms_max == 3.5
        assert stats.mean_batch == 1.0

    def test_latency_window_truncates_oldest(self):
        recorder = MetricsRecorder(latency_window=8)
        recorder.record_submit(20)
        # 20 latencies through a window of 8: only the newest 8
        # (values 12..19) survive for percentiles.
        recorder.record_batch(
            20, synops=0, latencies_ms=[float(i) for i in range(20)]
        )
        stats = recorder.snapshot()
        assert len(recorder._latencies) == 8
        assert stats.latency_ms_p50 == 16.0  # median of 12..19
        assert stats.latency_ms_max == 19.0
        # Counters are NOT windowed -- all 20 completions counted.
        assert stats.completed == 20

    def test_pending_never_negative(self):
        recorder = MetricsRecorder()
        # Resolutions without a matching submit (e.g. direct batch
        # accounting in tests) must clamp instead of going negative.
        recorder.record_batch(3, synops=0, latencies_ms=[1.0, 1.0, 1.0])
        assert recorder.snapshot().pending == 0

    def test_every_resolution_kind_reduces_pending(self):
        recorder = MetricsRecorder()
        recorder.record_submit(4)
        recorder.record_batch(1, synops=0, latencies_ms=[1.0])
        recorder.record_failure()
        recorder.record_expired()
        recorder.record_cancelled()
        assert recorder.snapshot().pending == 0

    def test_to_dict_round_trips_every_field(self):
        stats = MetricsRecorder().snapshot(
            breaker_state="open", queue_depth=3
        )
        payload = stats.to_dict()
        assert payload["breaker_state"] == "open"
        assert payload["queue_depth"] == 3
        # to_dict is the monitoring wire contract: every dataclass
        # field must appear.
        assert set(payload) == set(ServerStats.__dataclass_fields__)


PROM_LINE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(-?[0-9.e+E-]+)$"
)


class TestPrometheusExposition:
    def test_render_counters_and_gauges(self):
        text = render_prometheus([
            ("x_total", "counter", "Help text", [(None, 3)]),
            ("y", "gauge", "A gauge", [(None, 1.5)]),
        ])
        assert "# HELP x_total Help text" in text
        assert "# TYPE x_total counter" in text
        assert "\nx_total 3\n" in text
        assert "\ny 1.5\n" in text

    def test_labels_sorted_and_escaped(self):
        text = render_prometheus([
            ("z", "gauge", "h",
             [({"b": 'say "hi"\n', "a": "x\\y"}, 1)]),
        ])
        assert r'z{a="x\\y",b="say \"hi\"\n"} 1' in text

    def test_every_line_parses(self):
        stats = MetricsRecorder().snapshot(breaker_state="half-open")
        text = render_prometheus(server_stats_families(stats))
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert PROM_LINE.match(line), line

    def test_breaker_state_is_one_hot(self):
        for active in BREAKER_STATES:
            stats = MetricsRecorder().snapshot(breaker_state=active)
            text = render_prometheus(server_stats_families(stats))
            for state in BREAKER_STATES:
                want = "1" if state == active else "0"
                assert (f'sushi_server_breaker_state{{state="{state}"}} '
                        f"{want}") in text

    def test_counter_families_use_total_suffix(self):
        stats = MetricsRecorder().snapshot()
        for name, mtype, _help, _samples in server_stats_families(stats):
            if mtype == "counter":
                assert name.endswith("_total"), name
