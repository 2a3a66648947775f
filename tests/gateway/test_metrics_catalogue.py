"""The ``/metrics`` catalogue in docs/GATEWAY.md matches a live scrape.

A gateway fronts a :class:`ClusterServer` with the autoscaler on.  The
test first touches every metric source: server requests, edge
rejections, an idempotent replay, a shed, a :class:`GatewayClient`
request, a trace record/replay, an explore sweep and an autoscaler
tick.  It then checks the scraped family names and types against the
docs table, and the label keys of every sample against the table's
labels column.  A second test checks a single-node backend: it exports
exactly the rows whose owning module is not ``repro.cluster``.
"""

import json
import re
from collections import defaultdict
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import AutoscalerConfig, ClusterServer
from repro.explore import ExploreConfig, run_explore
from repro.gateway import (
    ApiKeyAuthenticator,
    GatewayClient,
    Tenant,
    serving_edge,
)
from repro.harness import random_binarized_network
from repro.rsfq import Netlist, TraceEngine, library
from repro.serve import InferenceServer
from repro.ssnn import compile_network

DOC = Path(__file__).resolve().parents[2] / "docs" / "GATEWAY.md"

TENANTS = (
    Tenant(name="alpha", api_key="key-alpha", rate_per_s=1000, burst=500),
    Tenant(name="tiny", api_key="key-tiny", rate_per_s=0.0, burst=1),
)

_SAMPLE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(-?[0-9.e+E-]+)$"
)
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="(?:[^"\\]|\\.)*"')


def catalogue():
    """``{family: (type, label keys, owning module)}`` from the docs
    table in the "Metrics" section."""
    section = DOC.read_text().split("\n## Metrics\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`sushi_"):
            continue
        family, mtype, labels, owner = cells
        keys = frozenset(
            key.strip(" `") for key in labels.split(",")
            if key.strip(" `—")
        )
        rows[family.strip("`")] = (mtype, keys, owner.strip("`"))
    return rows


def scrape(port):
    """``({family: type}, {family: {label-key sets}})`` from a live
    ``/metrics`` scrape."""
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        text = response.read().decode()
    finally:
        conn.close()
    assert response.status == 200
    types = {}
    label_keys = defaultdict(set)
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split(" ")
            types[name] = mtype
        elif not line.startswith("# HELP "):
            match = _SAMPLE.match(line)
            assert match, f"unparsable exposition line: {line!r}"
            name, labels, _ = match.groups()
            label_keys[name].add(frozenset(_LABEL.findall(labels or "")))
    return types, label_keys


def post_infer(port, key, train, headers=None):
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", "/infer",
            body=json.dumps({"spike_train": train.tolist()}).encode(),
            headers={"X-API-Key": key, **(headers or {})},
        )
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(41)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=8)
    return compile_network(network, 4, 8)


@pytest.fixture(scope="module")
def train():
    return (np.random.default_rng(7).random((12, 11)) < 0.3).astype(int)


def touch_edge(gateway, train):
    """Requests that give every labelled gateway family a sample."""
    port = gateway.port
    replay = {"Idempotency-Key": "catalogue-1"}
    statuses = [
        post_infer(port, "key-alpha", train, replay),
        post_infer(port, "key-alpha", train, replay),
        post_infer(port, "wrong-key", train),
        post_infer(port, "key-tiny", train),
        post_infer(port, "key-tiny", train),
    ]
    with GatewayClient("127.0.0.1", port, api_key="key-alpha") as client:
        statuses.append(client.infer(train).status)
    assert statuses == [200, 200, 401, 200, 429, 200]


def test_cluster_scrape_matches_the_catalogue(compiled, train):
    rows = catalogue()
    assert len(rows) == 72
    server = ClusterServer(
        compiled=compiled, nodes=2, node_workers=0,
        supervise_interval_s=0, plan_cache=None,
        autoscaler_config=AutoscalerConfig(min_nodes=2, max_nodes=3),
    )
    with serving_edge(server,
                      authenticator=ApiKeyAuthenticator(TENANTS)) as edge:
        touch_edge(edge.gateway, train)
        net = Netlist("chain")
        cells = [net.add(library.JTL(f"j{i}")) for i in range(4)]
        for a, b in zip(cells, cells[1:]):
            net.connect(a, "dout", b, "din", delay=2.5)
        TraceEngine(net).run_episode(
            (tuple(("j0", "din", 150.0 * k) for k in range(4)),)
        )
        run_explore(ExploreConfig.quick(), plan_cache=None)
        server.autoscaler.tick()
        types, label_keys = scrape(edge.gateway.port)
    assert types == {name: row[0] for name, row in rows.items()}
    for name, (_, keys, _) in rows.items():
        assert label_keys[name] == {keys}, name


def test_single_node_scrape_omits_only_cluster_families(compiled, train):
    rows = catalogue()
    with serving_edge(InferenceServer(compiled=compiled),
                      authenticator=ApiKeyAuthenticator(TENANTS)) as edge:
        touch_edge(edge.gateway, train)
        types, _ = scrape(edge.gateway.port)
    expected = {name for name, row in rows.items()
                if not row[2].startswith("repro.cluster")}
    assert len(expected) == 55
    assert set(types) == expected
