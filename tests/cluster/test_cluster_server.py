"""End-to-end tests for :class:`repro.cluster.ClusterServer` and its
gateway integration: the cluster behind the same micro-batching facade,
readiness tied to routable nodes, cluster gauges on ``/metrics``.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.cluster import AutoscalerConfig, ClusterServer
from repro.errors import ConfigurationError
from repro.harness import random_binarized_network, random_spike_trains
from repro.ssnn import SushiRuntime, compile_network
from tests.serve.test_server import assert_bad_train_refused
from tests.ssnn.test_compile import BAD_SPIKES

CHIP_N = 4
SC = 8


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(41)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=SC)
    compiled = compile_network(network, CHIP_N, SC)
    trains = random_spike_trains(rng, 4, 24, 11)
    return network, compiled, trains


class TestServing:
    def test_answers_match_the_runtime(self, workload):
        network, compiled, trains = workload
        runtime = SushiRuntime(chip_n=CHIP_N, sc_per_npe=SC,
                               plan_cache=None)
        want = runtime.infer(network, trains)
        with ClusterServer(
            compiled=compiled, nodes=3, node_workers=0,
            supervise_interval_s=0,
        ) as server:
            futures = [server.submit(trains[:, b, :])
                       for b in range(trains.shape[1])]
            results = [f.result(timeout=30.0) for f in futures]
        for b, res in enumerate(results):
            assert np.array_equal(
                res.output_raster, want.output_raster[:, b, :]
            )
            assert res.prediction == int(want.predictions[b])

    @pytest.mark.parametrize("value", BAD_SPIKES)
    def test_rejects_values_other_than_0_or_1(self, workload, value):
        network, compiled, trains = workload
        want = SushiRuntime(chip_n=CHIP_N, sc_per_npe=SC,
                            plan_cache=None).infer(network, trains)
        with ClusterServer(
            compiled=compiled, nodes=2, node_workers=0,
            supervise_interval_s=0,
        ) as server:
            assert_bad_train_refused(server, trains, want, value)

    def test_node_death_is_invisible_to_clients(self, workload):
        _, compiled, trains = workload
        with ClusterServer(
            compiled=compiled, nodes=2, node_workers=0,
            supervise_interval_s=0,
        ) as server:
            first = server.infer(trains[:, 0, :], timeout=30.0)
            # Kill whichever node serves next; dispatch must re-route.
            victim_id = server.router.node_ids()[0]
            server.router.node(victim_id).kill()
            second = server.infer(trains[:, 0, :], timeout=30.0)
            assert np.array_equal(first.output_raster,
                                  second.output_raster)
            assert server.readiness()  # one node still routable

    def test_readiness_requires_a_routable_node(self, workload):
        _, compiled, trains = workload
        with ClusterServer(
            compiled=compiled, nodes=1, node_workers=0,
            supervise_interval_s=0,
        ) as server:
            assert server.readiness()
            node_id = server.router.node_ids()[0]
            server.router.node(node_id).kill()
            assert not server.readiness()  # dispatcher up, cluster gone

    def test_manual_scale_out_and_in(self, workload):
        _, compiled, trains = workload
        with ClusterServer(
            compiled=compiled, nodes=1, node_workers=0,
            supervise_interval_s=0,
        ) as server:
            added = server.add_node()
            assert server.router.alive_count() == 2
            baseline = server.infer(trains[:, 0, :], timeout=30.0)
            assert server.remove_node(added.node_id) is True
            assert server.router.alive_count() == 1
            after = server.infer(trains[:, 0, :], timeout=30.0)
            assert np.array_equal(baseline.output_raster,
                                  after.output_raster)

    def test_health_includes_cluster_section(self, workload):
        _, compiled, trains = workload
        config = AutoscalerConfig(min_nodes=1, max_nodes=4)
        with ClusterServer(
            compiled=compiled, nodes=2, node_workers=0,
            supervise_interval_s=0,
            autoscaler_config=config,
        ) as server:
            server.infer(trains[:, 0, :], timeout=30.0)
            health = server.health()
            assert health["mode"] == "cluster[2]"
            assert health["cluster"]["schema"] == "repro.cluster/v1"
            assert health["cluster"]["nodes_routable"] == 2
            assert health["autoscaler"]["schema"] == \
                "repro.cluster.autoscaler/v1"

    def test_validation(self, workload):
        _, compiled, _ = workload
        with pytest.raises(ConfigurationError):
            ClusterServer(compiled=compiled, nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterServer(compiled=compiled, node_workers=-1)
        with pytest.raises(ConfigurationError):
            ClusterServer(compiled=compiled, supervise_interval_s=-1.0)

    def test_supervisor_thread_probes_and_recovers(self, workload):
        """With the background sweep on, a partitioned node is
        quarantined and rejoined without any manual probe call."""
        import time

        _, compiled, trains = workload
        with ClusterServer(
            compiled=compiled, nodes=2, node_workers=0,
            supervise_interval_s=0.02,
        ) as server:
            target = server.router.node(server.router.node_ids()[0])
            target.partition()
            deadline = time.monotonic() + 5.0
            while (target.node_id in server.router._ring
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert target.node_id not in server.router._ring
            target.heal_partition()
            deadline = time.monotonic() + 5.0
            while (target.node_id not in server.router._ring
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert target.node_id in server.router._ring
            result = server.infer(trains[:, 0, :], timeout=30.0)
            assert result.steps == trains.shape[0]


class TestGatewayIntegration:
    def test_metrics_and_readyz_expose_cluster_gauges(self, workload):
        from repro.gateway import serving_edge

        _, compiled, trains = workload
        server = ClusterServer(
            compiled=compiled, nodes=2, node_workers=0,
            supervise_interval_s=0,
        )
        with serving_edge(server) as edge:
            host, port = edge.address
            base = f"http://{host}:{port}"
            body = json.dumps({
                "spike_train": trains[:, 0, :].astype(int).tolist()
            }).encode()
            req = urllib.request.Request(
                f"{base}/infer", data=body,
                headers={"X-API-Key": "demo-key-a"},
            )
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 200

            with urllib.request.urlopen(f"{base}/readyz") as resp:
                assert resp.status == 200

            with urllib.request.urlopen(f"{base}/metrics") as resp:
                text = resp.read().decode()
            assert 'sushi_cluster_nodes{state="active"} 2' in text
            assert "sushi_cluster_rebalances_total" in text
            assert "sushi_cluster_node_breaker_state" in text
            assert "sushi_cluster_dispatches_total 1" in text

            with urllib.request.urlopen(f"{base}/healthz") as resp:
                health = json.loads(resp.read())
            assert health["backend"]["mode"] == "cluster[2]"

            # Kill the whole cluster: /readyz must flip 503.
            for node_id in server.router.node_ids():
                server.router.node(node_id).kill()
            try:
                with urllib.request.urlopen(f"{base}/readyz") as resp:
                    status = resp.status
            except urllib.error.HTTPError as exc:
                status = exc.code
            assert status == 503

    def test_serve_cli_accepts_nodes_flag(self):
        from repro.gateway.server import main

        # --help must document the cluster flags (smoke: parser wiring).
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
