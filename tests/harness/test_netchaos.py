"""End-to-end tests for the network chaos scenarios
(client -> chaos proxy -> gateway -> server).

Each scenario asserts its own invariants internally (bit-identical
predictions, exactly-once computes, exact retry/shed ledgers); these
tests run the two cheapest ones through the public runner and pin the
headline ledger numbers, plus the workload determinism the whole
campaign rests on.  The full network campaign runs in CI within
``bench_chaos.py --check``, which pins its ledgers in
``BENCH_netchaos.json``.
"""

import numpy as np

from repro.harness.chaos import (
    NETWORK_SCENARIOS,
    _net_trains,
    _serial_answer,
    _workload,
    run_scenario,
)


def test_net_trains_are_deterministic():
    compiled, _ = _workload(True)
    first = _net_trains(compiled, 4)
    second = _net_trains(compiled, 4)
    assert len(first) == 4
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_serial_answer_is_reproducible():
    compiled, _ = _workload(True)
    train = _net_trains(compiled, 1)[0]
    pred_a, rates_a = _serial_answer(compiled, train)
    pred_b, rates_b = _serial_answer(compiled, train)
    assert pred_a == pred_b
    assert rates_a == rates_b
    assert len(rates_a) == compiled.out_features
    assert pred_a == int(np.argmax(rates_a))


def test_reset_storm_scenario_end_to_end():
    entry = run_scenario("net-reset-storm", quick=True)
    assert entry["passed"], entry["error"]
    details = entry["details"]
    assert details["resets"] == 2
    assert details["client"]["conn_errors"] == 2
    assert details["client"]["retries"] == 2
    assert details["client"]["replays"] == 1
    assert details["proxy"]["fired"] == {"0:reset": 2}
    assert details["gateway_replays"] == {"tenant-a": 2}


def test_overload_shed_scenario_end_to_end():
    entry = run_scenario("net-overload-shed", quick=True)
    assert entry["passed"], entry["error"]
    details = entry["details"]
    assert details["sheds"] == {"overloaded:p2": 3}
    assert details["admitted"] == 4
    assert details["shed_client"]["retries"] == 0


def test_network_scenario_names_are_prefixed():
    assert all(name.startswith("net-") for name in NETWORK_SCENARIOS)
