"""Property: the gateway's JSON round trip holds on random network shapes.

The gateway tier of ``tests/ssnn/test_compile_property.py``'s random-shape
property.  For each drawn plan (2 to 4 layers of widths from 1, the SC
count, the reorder flag) and rows (T from 1), the JSON body written
compact and default-spaced must decode through ``parse_infer_request`` to
the same ``bool`` block, and an :class:`~repro.serve.InferenceServer` on
that plan must answer both exactly as the pre-compile reference kernel
``reference_forward_rows`` does.
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gateway.protocol import parse_infer_request
from repro.harness import random_binarized_network
from repro.harness.differential import reference_forward_rows
from repro.serve import InferenceServer
from repro.ssnn import compile_network

CHIP_N = 4


@settings(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(st.integers(min_value=1, max_value=12),
                   min_size=3, max_size=5),
    sc_per_npe=st.integers(min_value=4, max_value=12),
    reorder=st.booleans(),
    steps=st.integers(min_value=1, max_value=8),
)
@example(seed=10, sizes=[1, 1, 8], sc_per_npe=4, reorder=True, steps=1)
@example(seed=3, sizes=[7, 1, 1], sc_per_npe=4, reorder=False, steps=2)
def test_random_shapes_round_trip_the_gateway(seed, sizes, sc_per_npe,
                                              reorder, steps):
    rng = np.random.default_rng(seed)
    network = random_binarized_network(rng, sizes=sizes,
                                       sc_per_npe=sc_per_npe)
    rows = rng.random((steps, sizes[0])) < 0.4
    plan = compile_network(network, CHIP_N, sc_per_npe, reorder)
    payload = {"spike_train": rows.astype(int).tolist()}
    bodies = (json.dumps(payload, separators=(",", ":")), json.dumps(payload))
    trains = [parse_infer_request(body.encode(), plan.in_features).spike_train
              for body in bodies]
    for train in trains:
        assert train.dtype == np.bool_ and train.shape == rows.shape
        assert train.tobytes() == rows.tobytes()
    want, _, _ = reference_forward_rows(
        network.layers, rows.astype(np.float64), 1 << sc_per_npe, reorder
    )
    rates = want.mean(axis=0)
    with InferenceServer(compiled=plan) as server:
        for train in trains:
            answer = server.infer(train)
            assert np.array_equal(answer.output_raster, want)
            assert np.array_equal(answer.rates, rates)
            assert answer.prediction == int(rates.argmax())
