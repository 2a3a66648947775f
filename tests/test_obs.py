"""The shared counter mechanism behind ``/metrics``."""

import sys
import threading

import pytest

from repro.obs import Counters, render_prometheus


def edge_counters():
    return Counters("acme_edge", {
        "requests": "Requests, by path and status",
        "connections": "Connections accepted",
    }, labels={"requests": ("path", "status")})


class TestCounters:
    def test_inc_and_snapshot(self):
        counters = edge_counters()
        counters.inc("connections")
        counters.inc("connections", 2)
        counters.inc("requests", path="/infer", status=200)
        counters.inc("requests", path="/infer", status="200")
        counters.inc("requests", status=404, path="/nope")
        assert counters.snapshot() == {
            "requests": {("/infer", "200"): 2, ("/nope", "404"): 1},
            "connections": 3,
        }

    def test_wrong_labels_and_unknown_names_are_rejected(self):
        counters = edge_counters()
        with pytest.raises(ValueError):
            counters.inc("requests", path="/infer")
        with pytest.raises(ValueError):
            counters.inc("connections", path="/infer")
        with pytest.raises(KeyError):
            counters.inc("bytes")
        with pytest.raises(ValueError):
            Counters("acme", {"a": "help"}, labels={"b": ("x",)})
        assert counters.snapshot() == {"requests": {}, "connections": 0}

    def test_families_render_zero_placeholders_until_incremented(self):
        counters = edge_counters()
        assert counters.families() == [
            ("acme_edge_requests_total", "counter",
             "Requests, by path and status", [(None, 0)]),
            ("acme_edge_connections_total", "counter",
             "Connections accepted", [(None, 0)]),
        ]
        counters.inc("requests", path="/b", status=503)
        counters.inc("requests", path="/a", status=200)
        text = render_prometheus(counters.families())
        assert text == (
            "# HELP acme_edge_requests_total Requests, by path and status\n"
            "# TYPE acme_edge_requests_total counter\n"
            'acme_edge_requests_total{path="/a",status="200"} 1\n'
            'acme_edge_requests_total{path="/b",status="503"} 1\n'
            "# HELP acme_edge_connections_total Connections accepted\n"
            "# TYPE acme_edge_connections_total counter\n"
            "acme_edge_connections_total 0\n"
        )

    def test_reset_and_fresh(self):
        counters = edge_counters()
        counters.inc("connections")
        twin = counters.fresh()
        twin.inc("requests", path="/a", status=200)
        assert counters.snapshot()["requests"] == {}
        assert twin.snapshot()["connections"] == 0
        assert twin.families()[0][0] == "acme_edge_requests_total"
        counters.reset()
        assert counters.snapshot() == {"requests": {}, "connections": 0}

    def test_concurrent_increments_are_not_lost(self):
        counters = edge_counters()

        def hammer():
            for _ in range(2000):
                counters.inc("connections")
                counters.inc("requests", path="/infer", status=200)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counters.snapshot() == {
            "requests": {("/infer", "200"): 16000},
            "connections": 16000,
        }
