"""Gateway wire protocol: minimal HTTP/1.1 framing + the JSON schema.

The gateway speaks plain HTTP/1.1 over asyncio streams -- no web
framework, no third-party dependency, just enough of RFC 9112 to serve
JSON to load balancers and load generators: request-line + headers +
``Content-Length`` bodies, keep-alive by default, explicit
``Connection: close`` honoured.  Chunked transfer encoding is *not*
implemented (requests carrying it are rejected with ``411``).

Every error the gateway can produce is **typed**: a JSON body of schema
``repro.gateway.error/v1`` carrying a stable machine-readable ``code``
(see :data:`ERROR_CODES`) next to the human-readable message, so load
generators and clients can assert on semantics rather than prose.

The inference request schema (``POST /infer``)::

    {
      "spike_train": [[0, 1, ...], ...],   # (T, in_features) 0/1 rows
      "deadline_ms": 50.0                   # optional queueing bound
    }

and the response schema ``repro.gateway.infer/v1``::

    {
      "schema": "repro.gateway.infer/v1",
      "prediction": 3,
      "rates": [...],                       # (classes,) mean spike rates
      "latency_ms": 1.92,                   # server-side submit->answer
      "batch_size": 4,
      "steps": 24,
      "tenant": "tenant-a"
    }

Parsing raises :class:`ProtocolError` with the matching HTTP status --
the server layer turns it into a typed error response mechanically.
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ssnn.compile import spike_rows

ERROR_SCHEMA = "repro.gateway.error/v1"
INFER_SCHEMA = "repro.gateway.infer/v1"

#: Stable machine-readable error codes (asserted by tests and loadgen).
ERROR_CODES = (
    "bad_request",        # malformed HTTP or JSON
    "invalid_train",      # spike_train missing / wrong shape / not 0-1
    "invalid_deadline",   # deadline_ms not a positive number
    "missing_api_key",    # no X-API-Key header
    "invalid_api_key",    # unknown X-API-Key
    "not_found",          # unknown path
    "method_not_allowed",  # known path, wrong verb
    "length_required",    # no Content-Length (or chunked) on POST
    "payload_too_large",  # body over the gateway bound
    "rate_limited",       # tenant token bucket empty
    "queue_full",         # admission control: backend queue over limit
    "breaker_open",       # admission control: pool breaker is open
    "overloaded",         # admission control: low-priority shed early
    "not_ready",          # backend draining / not accepting
    "deadline_exceeded",  # request expired while queued (504)
    "internal",           # unexpected backend failure
)

#: Request header carrying the client's exactly-once retry token
#: (headers are normalised to lowercase by :func:`read_request`).
IDEMPOTENCY_KEY_HEADER = "idempotency-key"

#: Response header marking an answer served from the idempotency
#: ledger instead of a fresh backend compute.
REPLAY_HEADER = "X-Idempotent-Replay"

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized",
    404: "Not Found", 405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard bounds on the HTTP frame (pre-auth, so deliberately tight).
MAX_HEADER_LINES = 64
MAX_LINE_BYTES = 8192
DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024


class ProtocolError(Exception):
    """A request the gateway refuses, as (status, code, message).

    ``retry_after_s`` (optional) is the back-off hint the server layer
    renders as a ``Retry-After`` header on 429/503 rejections --
    derived from the tenant bucket's refill time or the breaker's
    remaining cooldown.
    """

    def __init__(self, status: int, code: str, message: str,
                 retry_after_s: Optional[float] = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Optional[HttpRequest]:
    """Read one HTTP request off the stream.

    Returns ``None`` on a clean EOF (client closed a keep-alive
    connection between requests); raises :class:`ProtocolError` on a
    malformed or over-limit frame.
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise ProtocolError(400, "bad_request", "request line too long")
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(400, "bad_request", "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, "bad_request", "malformed request line")
    method, target, _version = parts
    path, _, query = target.partition("?")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        try:
            raw = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise ProtocolError(400, "bad_request", "header line too long")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ProtocolError(400, "bad_request",
                                "connection closed mid-headers")
        if len(raw) > MAX_LINE_BYTES:
            raise ProtocolError(400, "bad_request", "header line too long")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, "bad_request",
                                f"malformed header {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(400, "bad_request", "too many headers")

    body = b""
    if "transfer-encoding" in headers:
        raise ProtocolError(411, "length_required",
                            "chunked transfer encoding is not supported")
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError(400, "bad_request",
                                "malformed Content-Length")
        if length < 0:
            raise ProtocolError(400, "bad_request",
                                "malformed Content-Length")
        if length > max_body_bytes:
            raise ProtocolError(
                413, "payload_too_large",
                f"body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte gateway bound",
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "bad_request",
                                "connection closed mid-body")
    elif method == "POST":
        raise ProtocolError(411, "length_required",
                            "POST requires Content-Length")
    return HttpRequest(method=method, path=path, query=query,
                       headers=headers, body=body)


_STATUS_LINE = re.compile(r"HTTP/[0-9]+(?:\.[0-9]+)? ([0-9]{3})(?: .*)?")


def parse_response_head(head: bytes) -> Tuple[int, Dict[str, str], int]:
    """Parse one HTTP/1.1 response head (the bytes up to the blank
    line) into ``(status, headers, content_length)``; header names are
    lower-cased and a missing ``Content-Length`` reads as 0.

    Both clients read the head off their own socket and call this, so a
    malformed head -- a status line that is not ``HTTP/<v> <3-digit
    code>``, or a ``Content-Length`` that is not a non-negative
    integer -- raises :class:`ConnectionError`, the transport failure
    the clients already retry and count.
    """
    lines = head.decode("latin-1").split("\r\n")
    status = _STATUS_LINE.fullmatch(lines[0])
    if status is None:
        raise ConnectionError(f"malformed status line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not re.fullmatch(r"[0-9]+", length):
        raise ConnectionError(f"malformed Content-Length {length!r}")
    return int(status.group(1)), headers, int(length)


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Serialise one HTTP/1.1 response frame."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(payload: Dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def error_body(code: str, message: str, **details) -> bytes:
    """The typed error payload every non-2xx response carries."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    payload: Dict = {
        "schema": ERROR_SCHEMA,
        "error": {"code": code, "message": message},
    }
    if details:
        payload["error"]["details"] = details
    return json_body(payload)


@dataclass(frozen=True)
class InferRequest:
    """A validated ``POST /infer`` payload."""

    spike_train: np.ndarray  # (T, in_features) bool, checked by spike_rows
    deadline_ms: Optional[float]


#: Stands in for the spike-train span while ``json.loads`` reads the rest
#: of a body.  A JSON integer has one spelling, so when this text is
#: nowhere in the body an ``int`` of its value can only be the span.
_SPAN_MARK = b"9" * 20
_SPAN_MARK_VALUE = int(_SPAN_MARK)
_JSON_SPACE = b" \t\n\r"
#: ``bytes.translate`` tables: both digits read as "1", and the digits
#: as the bytes of ``False`` and ``True``.
_DIGITS_AS_ONE = bytes.maketrans(b"0", b"1")
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


@functools.lru_cache(maxsize=16)
def _row_template(in_features: int) -> bytes:
    """One compact row and its comma, ``[1,...,1],``."""
    return f"[{','.join('1' * in_features)}],".encode()


def _decode_spike_span(body: bytes, in_features: int):
    """The one-pass decoder: ``(train, payload)``, or ``None`` to send
    ``body`` down the general path (:func:`_decode_json`).

    It takes the body's first ``[[ ... ]]`` span when, with JSON
    whitespace dropped, that span is ``[[d,...,d],...,[d,...,d]]`` with
    ``in_features`` digits ``d`` (``0`` or ``1``) per row, and when
    ``json.loads`` of the rest, the span replaced by :data:`_SPAN_MARK`,
    gives an object whose ``spike_train`` is that mark.  ``json.loads``
    of the whole body then reads the same object with these rows in
    place of the mark, so the answer is the general path's.  Bytes
    methods check and convert the span: on a (2, 784) train they are
    cheaper than numpy ufuncs over its bytes.
    """
    start = body.find(b"[[")
    stop = body.find(b"]]", start + 2)
    if start < 0 or stop < 0 or _SPAN_MARK in body:
        return None
    stop += 2
    # The rows inside the outer brackets, each closed by a comma.
    rows = body[start + 1:stop - 1].translate(None, _JSON_SPACE) + b","
    template = _row_template(in_features)
    steps, ragged = divmod(len(rows), len(template))
    if ragged or rows.translate(_DIGITS_AS_ONE) != template * steps:
        return None
    try:
        payload = json.loads(
            (body[:start] + _SPAN_MARK + body[stop:]).decode("utf-8")
        )
    except ValueError:
        return None
    if not isinstance(payload, dict) \
            or type(payload.get("spike_train")) is not int \
            or payload["spike_train"] != _SPAN_MARK_VALUE:
        return None
    bits = bytearray(rows.translate(_DIGIT_BITS, b"[],"))
    train = np.frombuffer(bits, np.bool_).reshape(steps, in_features)
    return spike_rows(train), payload


def _decode_json(body: bytes, in_features: int):
    """The general path: ``json.loads`` the body, then check its
    ``spike_train``.  Returns ``(train, payload)``."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(400, "bad_request", f"body is not JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(400, "bad_request",
                            "body must be a JSON object")
    if "spike_train" not in payload:
        raise ProtocolError(400, "invalid_train",
                            "missing required field 'spike_train'")
    try:
        train = np.asarray(payload["spike_train"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ProtocolError(400, "invalid_train",
                            "spike_train must be a numeric 2-D array")
    if train.ndim != 2 or train.shape[0] < 1:
        raise ProtocolError(
            400, "invalid_train",
            f"spike_train must be (T, in_features); got shape "
            f"{train.shape}",
        )
    if train.shape[1] != in_features:
        raise ProtocolError(
            400, "invalid_train",
            f"spike width {train.shape[1]} != served input {in_features}",
        )
    try:
        return spike_rows(train), payload
    except ConfigurationError:
        raise ProtocolError(400, "invalid_train",
                            "spike_train entries must be 0 or 1")


def parse_infer_request(body: bytes, in_features: int) -> InferRequest:
    """Validate the JSON body of ``POST /infer``.

    A train written as integer 0/1 rows is decoded straight from the
    body bytes (:func:`_decode_spike_span`); every other body takes the
    general path, :func:`_decode_json`.  On a body the one-pass decoder
    takes, the general path answers the same block and deadline.

    Raises :class:`ProtocolError` (always a 400) with code
    ``bad_request`` / ``invalid_train`` / ``invalid_deadline``.
    """
    train, payload = (_decode_spike_span(body, in_features)
                      or _decode_json(body, in_features))
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) \
                or isinstance(deadline_ms, bool) or deadline_ms <= 0:
            raise ProtocolError(400, "invalid_deadline",
                                "deadline_ms must be a positive number")
        deadline_ms = float(deadline_ms)
    return InferRequest(spike_train=train, deadline_ms=deadline_ms)


def infer_response_body(result, tenant: str) -> bytes:
    """Serialise a :class:`~repro.serve.server.ServeResult`."""
    return json_body({
        "schema": INFER_SCHEMA,
        "prediction": int(result.prediction),
        "rates": [float(r) for r in result.rates],
        "latency_ms": round(float(result.latency_ms), 3),
        "batch_size": int(result.batch_size),
        "steps": int(result.steps),
        "tenant": tenant,
    })
