"""Exception hierarchy for the SUSHI reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConstraintViolationError(ReproError):
    """A pulse arrived closer to a previous pulse than an RSFQ cell allows.

    Raised only when the simulator runs in strict mode; otherwise violations
    are recorded on :attr:`repro.rsfq.simulator.Simulator.violations`.
    """


class ProtocolError(ReproError):
    """A control sequence violated the asynchronous neuron timing protocol.

    Examples: writing to a state controller before resetting it, or feeding
    input pulses before the polarity has been selected (see paper section
    5.2).
    """


class ConfigurationError(ReproError):
    """A component was built or configured with inconsistent parameters."""


class CapacityError(ReproError):
    """A workload does not fit the targeted hardware configuration.

    Raised, for example, when a neuron's membrane-state range would underflow
    or overflow the SC chain of an NPE and bucketing cannot bound it.
    """


class TrainingError(ReproError):
    """Gradient-based training could not proceed (bad shapes, NaNs, ...)."""


class FaultInjectionError(ReproError):
    """A fault model could not be constructed or applied.

    Raised when a :class:`repro.rsfq.faults.FaultSpec` is malformed (unknown
    kind, probability outside ``[0, 1]``, negative delay), when a spec
    targets cells or wires that do not exist in the netlist being bound, or
    when a fault configuration is incompatible with the engine it is
    attached to.
    """


class TransportError(ReproError):
    """The network path to the gateway failed mid-request.

    Raised by :class:`repro.gateway.client.GatewayClient` when a
    request could not complete at the transport layer -- connection
    refused/reset, the socket timed out, or the peer closed the stream
    mid-response -- and the retry policy's attempts are exhausted.
    Carries ``category`` (``"timeout"`` or ``"conn_error"``) and
    ``attempts`` so callers and tests can assert *why* the request
    died, not just that it did.
    """

    def __init__(self, message: str, *, category: str = "conn_error",
                 attempts: int = 1):
        super().__init__(message)
        self.category = category
        self.attempts = attempts


class RetryBudgetExceededError(TransportError):
    """The client-wide retry budget ran dry before the request healed.

    Distinct from per-request attempt exhaustion: the budget is a
    lifetime pool of retry permits shared by every request a
    :class:`~repro.gateway.client.GatewayClient` sends, so a storm of
    failing requests degrades to fail-fast instead of retry-amplifying
    an already-unhealthy backend.
    """


class DeadlineExceededError(ReproError):
    """A wall-clock deadline lapsed before the work could run.

    Two layers raise it:

    * :meth:`repro.rsfq.simulator.Simulator.run` when the ``deadline_s``
      guard runs out with events still pending.  Complements
      ``max_events``: the event guard bounds *logical* work, the
      deadline bounds *physical* time, so a pathologically slow (but
      not runaway) simulation cannot stall a batch runtime or campaign
      sweep.
    * The serving dispatcher, for requests submitted with a per-request
      ``deadline_ms`` that were still queued when the deadline lapsed:
      the request fails at dispatch time instead of burning a batch slot
      (counted as ``expired`` in
      :class:`repro.serve.metrics.ServerStats`).
    """
