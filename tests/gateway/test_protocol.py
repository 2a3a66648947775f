"""Unit tests for the gateway wire protocol (HTTP framing + JSON)."""

import asyncio
import json

import numpy as np
import pytest

from repro.gateway.protocol import (
    ERROR_CODES,
    ProtocolError,
    error_body,
    infer_response_body,
    parse_infer_request,
    read_request,
    render_response,
)
from tests.ssnn.test_compile import BAD_SPIKES


def parse(raw: bytes, **kwargs):
    """Feed raw bytes to read_request through a StreamReader."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(run())


class TestHttpParsing:
    def test_parses_post_with_body(self):
        raw = (b"POST /infer?x=1 HTTP/1.1\r\n"
               b"Host: localhost\r\n"
               b"X-API-Key: k\r\n"
               b"Content-Length: 4\r\n"
               b"\r\nabcd")
        req = parse(raw)
        assert req.method == "POST"
        assert req.path == "/infer"
        assert req.query == "x=1"
        assert req.headers["x-api-key"] == "k"
        assert req.body == b"abcd"
        assert req.keep_alive

    def test_connection_close_header(self):
        raw = (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not parse(raw).keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError) as exc:
            parse(b"NOT-HTTP\r\n\r\n")
        assert exc.value.status == 400
        assert exc.value.code == "bad_request"

    def test_malformed_header(self):
        with pytest.raises(ProtocolError):
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_post_without_length_is_411(self):
        with pytest.raises(ProtocolError) as exc:
            parse(b"POST /infer HTTP/1.1\r\n\r\n")
        assert exc.value.status == 411
        assert exc.value.code == "length_required"

    def test_chunked_encoding_rejected(self):
        raw = (b"POST /infer HTTP/1.1\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n")
        with pytest.raises(ProtocolError) as exc:
            parse(raw)
        assert exc.value.status == 411

    def test_oversized_body_is_413(self):
        raw = (b"POST /infer HTTP/1.1\r\n"
               b"Content-Length: 1000\r\n\r\n" + b"x" * 1000)
        with pytest.raises(ProtocolError) as exc:
            parse(raw, max_body_bytes=100)
        assert exc.value.status == 413
        assert exc.value.code == "payload_too_large"

    def test_truncated_body_is_400(self):
        raw = (b"POST /infer HTTP/1.1\r\n"
               b"Content-Length: 10\r\n\r\nabc")
        with pytest.raises(ProtocolError) as exc:
            parse(raw)
        assert exc.value.status == 400


class TestResponses:
    def test_render_response_frame(self):
        frame = render_response(200, b'{"a":1}')
        head, _, body = frame.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 7" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"a":1}'

    def test_close_and_extra_headers(self):
        frame = render_response(
            429, b"{}", keep_alive=False,
            extra_headers=(("Retry-After", "1"),),
        )
        assert b"Connection: close" in frame
        assert b"Retry-After: 1" in frame

    def test_error_body_is_typed(self):
        payload = json.loads(error_body("rate_limited", "slow down"))
        assert payload["schema"] == "repro.gateway.error/v1"
        assert payload["error"]["code"] == "rate_limited"
        assert payload["error"]["message"] == "slow down"

    def test_error_body_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            error_body("made-up-code", "nope")

    def test_protocol_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            ProtocolError(400, "made-up-code", "nope")

    def test_every_error_code_is_stable(self):
        # The set the loadgen and tests assert against; shrinking it is
        # a breaking wire-contract change.
        assert set(ERROR_CODES) >= {
            "rate_limited", "queue_full", "breaker_open",
            "deadline_exceeded", "missing_api_key", "invalid_api_key",
            "invalid_train", "not_ready",
        }


class TestInferPayload:
    def body(self, **payload) -> bytes:
        return json.dumps(payload).encode()

    def test_valid_payload(self):
        train = [[0, 1, 0], [1, 0, 1]]
        req = parse_infer_request(
            self.body(spike_train=train, deadline_ms=25), in_features=3
        )
        assert req.spike_train.dtype == np.bool_
        assert np.array_equal(req.spike_train, train)
        assert req.deadline_ms == 25.0

    def test_deadline_optional(self):
        req = parse_infer_request(
            self.body(spike_train=[[1, 0]]), in_features=2
        )
        assert req.deadline_ms is None

    def test_not_json(self):
        with pytest.raises(ProtocolError) as exc:
            parse_infer_request(b"not json{", in_features=2)
        assert exc.value.code == "bad_request"

    def test_non_object_body(self):
        with pytest.raises(ProtocolError) as exc:
            parse_infer_request(b"[1,2]", in_features=2)
        assert exc.value.code == "bad_request"

    def test_missing_train(self):
        with pytest.raises(ProtocolError) as exc:
            parse_infer_request(self.body(deadline_ms=5), in_features=2)
        assert exc.value.code == "invalid_train"

    def test_ragged_train(self):
        with pytest.raises(ProtocolError) as exc:
            parse_infer_request(
                self.body(spike_train=[[1, 0], [1]]), in_features=2
            )
        assert exc.value.code == "invalid_train"

    def test_wrong_width(self):
        with pytest.raises(ProtocolError) as exc:
            parse_infer_request(
                self.body(spike_train=[[1, 0, 1]]), in_features=2
            )
        assert exc.value.code == "invalid_train"
        assert "3" in exc.value.message

    def test_non_binary_entries(self):
        for value in BAD_SPIKES:
            with pytest.raises(ProtocolError) as exc:
                parse_infer_request(
                    self.body(spike_train=[[value, 1.0]]), in_features=2
                )
            assert exc.value.status == 400
            assert exc.value.code == "invalid_train"
            assert exc.value.message == "spike_train entries must be 0 or 1"

    @pytest.mark.parametrize("deadline", [0, -1, "soon", True])
    def test_bad_deadline(self, deadline):
        with pytest.raises(ProtocolError) as exc:
            parse_infer_request(
                self.body(spike_train=[[1, 0]], deadline_ms=deadline),
                in_features=2,
            )
        assert exc.value.code == "invalid_deadline"

    def test_infer_response_roundtrip(self):
        class FakeResult:
            prediction = 2
            rates = np.array([0.1, 0.2, 0.7])
            latency_ms = 1.23456
            batch_size = 4
            steps = 24

        payload = json.loads(infer_response_body(FakeResult(), "t-a"))
        assert payload["schema"] == "repro.gateway.infer/v1"
        assert payload["prediction"] == 2
        assert payload["rates"] == [0.1, 0.2, 0.7]
        assert payload["latency_ms"] == 1.235
        assert payload["tenant"] == "t-a"


class TestDocsContract:
    def test_gateway_docs_error_table_matches_error_codes(self):
        """docs/GATEWAY.md's error table is part of the wire contract:
        every code in ERROR_CODES must be documented there, and the
        docs must not advertise codes the gateway cannot emit."""
        import re
        from pathlib import Path

        docs = (Path(__file__).resolve().parents[2] / "docs"
                / "GATEWAY.md").read_text()
        start = docs.index("| HTTP | `code`")
        table = docs[start:].split("\n\n")[0]
        documented = set()
        for line in table.splitlines()[2:]:  # skip header + separator
            cells = line.split("|")
            assert len(cells) >= 4, f"malformed table row: {line!r}"
            documented.update(re.findall(r"`([a-z_]+)`", cells[2]))
        assert documented == set(ERROR_CODES), (
            f"docs table vs ERROR_CODES: missing from docs "
            f"{set(ERROR_CODES) - documented}, stale in docs "
            f"{documented - set(ERROR_CODES)}"
        )
