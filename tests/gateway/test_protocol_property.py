"""Property: the one-pass spike-train decoder answers as ``json.loads`` does.

``parse_infer_request`` reads integer 0/1 spike rows straight from the
body bytes and sends every other body down the general ``json.loads``
path.  On every generated body -- widths equal to and different from the
served input, entries of every JSON type, both spacings and stray
whitespace, any key order, valid / invalid / absent ``deadline_ms``, extra
keys (strings holding ``[[0,1]]`` among them), duplicate ``spike_train``
keys, ragged and nested rows, trailing bytes and invalid UTF-8 -- it must
return the general path's block (dtype, shape and bytes) and deadline, or
raise its ``ProtocolError`` (status, code and message).
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gateway import protocol
from repro.gateway.loadgen import _infer_body
from repro.gateway.protocol import ProtocolError, parse_infer_request

#: Spike entries for a body that is not all 0/1 integers; ``[0]`` nests
#: a row one level deeper.
ENTRIES = st.sampled_from(
    ["0", "1"] * 4
    + ["0.0", "1.0", "true", "2", "-1", '"1"', "null", "[0]", "01"]
)
VALID_DEADLINES = st.sampled_from([None, "25", "0.5", "1e3"])
BAD_DEADLINES = st.sampled_from(["0", "-1", '"soon"', "true", "null"])
EXTRA_FIELDS = st.sampled_from([
    ("note", '"[[0,1]]"'),
    ("note", '"x\\"[[1,0],[0,1]]"'),
    ("rows", "[[0,1]]"),
    ("rows", "[[1]]"),
    ("id", "99999999999999999999"),
    ("tenant", '"caf\\u00e9"'),
    ("spike_train", "[[1,0]]"),
    ("spike_train", "0"),
])
TRAILERS = st.sampled_from([" ", "\n", "}", "]", " x", ",{}"])
#: Ways a body can stray from a well-formed train; each body draws a few.
FLAWS = ("width", "entries", "ragged", "deadline", "extra", "trailer",
         "utf8")


def outcome(body: bytes, in_features: int):
    """What ``parse_infer_request`` answers, as comparable data."""
    try:
        request = parse_infer_request(body, in_features)
    except ProtocolError as exc:
        return ("error", exc.status, exc.code, exc.message)
    train = request.spike_train
    return ("ok", train.dtype, train.shape, train.tobytes(),
            request.deadline_ms)


def general_outcome(body: bytes, in_features: int):
    """The same answer with the one-pass decoder switched off."""
    with mock.patch.object(protocol, "_decode_spike_span",
                           lambda body, in_features: None):
        return outcome(body, in_features)


@st.composite
def infer_bodies(draw):
    in_features = draw(st.integers(min_value=1, max_value=12))
    steps = draw(st.integers(min_value=1, max_value=4))
    style = draw(st.sampled_from(["compact", "default", "stray"]))
    flaws = draw(st.sets(st.sampled_from(FLAWS), max_size=3))

    def gap(default=""):
        if style == "compact":
            return ""
        if style == "default":
            return default
        return draw(st.sampled_from(["", "", " ", "\t", "\n", "\r\n  "]))

    def array(items):
        sep = gap() + "," + gap(" ")
        return "[" + gap() + sep.join(items) + gap() + "]"

    width = (draw(st.integers(min_value=1, max_value=12))
             if "width" in flaws else in_features)
    entries = ENTRIES if "entries" in flaws else st.sampled_from(["0", "1"])
    ragged = (draw(st.integers(min_value=0, max_value=steps - 1))
              if "ragged" in flaws else None)
    rows = []
    for t in range(steps):
        n = draw(st.integers(0, 12)) if t == ragged else width
        rows.append(array([draw(entries) for _ in range(n)]))
    fields = [("spike_train", array(rows))]
    deadline = draw(BAD_DEADLINES if "deadline" in flaws
                    else VALID_DEADLINES)
    if deadline is not None:
        fields.append(("deadline_ms", deadline))
    if "extra" in flaws:
        fields += draw(st.lists(EXTRA_FIELDS, min_size=1, max_size=2))
    fields = draw(st.permutations(fields))
    members = [f'"{key}"' + gap() + ":" + gap(" ") + value
               for key, value in fields]
    text = "{" + gap() + (gap() + "," + gap(" ")).join(members) + gap() + "}"
    if "trailer" in flaws:
        text += draw(TRAILERS)
    body = text.encode("utf-8")
    if "utf8" in flaws:
        cut = draw(st.integers(min_value=0, max_value=len(body)))
        body = body[:cut] + b"\xff" + body[cut:]
    return body, in_features


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=infer_bodies())
@example(case=(b'{"spike_train": 0, "rows": [[0,1]]}', 2))
@example(case=(b'{"note": "\\"spike_train\\": [[0,1]]", "spike_train": 0}',
               2))
@example(case=(b'{"spike_train": [[0,1]], "spike_train": [[1,1]]}', 2))
@example(case=(b'{"spike_train": [[1,1]], "spike_train": [[0,1]]}', 2))
@example(case=(b'{"spike_train": [[0,1]]5}', 2))
@example(case=(b'{"spike_train": [[0,1]].5}', 2))
@example(case=(b'{"spike_train": [[0,1]], "id": 99999999999999999999}', 2))
@example(case=(b'{"spike_train": [[0,\xff1]]}', 2))
@example(case=(b'{"spike_train": [[]]}', 1))
def test_one_pass_decode_equals_json_loads(case):
    body, in_features = case
    assert outcome(body, in_features) == general_outcome(body, in_features)


@pytest.mark.parametrize("deadline_ms", [None, 40.0])
@pytest.mark.parametrize("encode", [
    lambda payload: json.dumps(payload, separators=(",", ":")),
    json.dumps,
], ids=["compact", "default"])
def test_repo_traffic_takes_the_one_pass_decoder(encode, deadline_ms):
    """perfbench's compact bodies and the default-spaced ones that
    GatewayClient, loadgen and the CI smoke send never reach the
    general path."""
    rows = np.random.default_rng(3).random((5, 784)) < 0.4
    payload = {"spike_train": rows.astype(int).tolist()}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    bodies = [encode(payload).encode("utf-8")]
    if encode is json.dumps:
        bodies.append(_infer_body(rows, deadline_ms))

    def general_path(body, in_features):
        raise AssertionError("took the general path")

    with mock.patch.object(protocol, "_decode_json", general_path):
        for body in bodies:
            request = parse_infer_request(body, 784)
            assert request.spike_train.dtype == np.bool_
            assert np.array_equal(request.spike_train, rows)
            assert request.deadline_ms == deadline_ms
