"""Circuit breaker for the serving pipeline's pool path.

The supervised :class:`~repro.ssnn.pool.InferencePool` resurrects its
own workers, so individual failures heal in place -- but a pool that
*keeps* failing (e.g. the host is out of memory, the shared-memory
filesystem is gone, every respawn dies) should not be retried on every
single batch.  :class:`CircuitBreaker` implements the classic
three-state machine in front of the pool path:

* **closed** -- normal operation; every batch may use the pool.  ``K``
  *consecutive* failures (``failure_threshold``) trip the breaker.
* **open** -- the pool path is skipped entirely (batches run serially,
  answers identical) until ``reset_timeout_s`` has elapsed.
* **half-open** -- after the cool-down, one batch is allowed through
  as a probe: its success closes the breaker, its failure re-opens it
  (and restarts the cool-down).  Every caller drives its breaker from
  one dispatcher thread, so a larger probe budget would go unused.

The breaker never changes *what* is computed -- only whether a batch is
attempted on the pool or executed serially -- so every state is
bit-identical to serial execution by construction (asserted end-to-end
by the ``breaker-cycle`` scenario of :mod:`repro.harness.chaos`).

The clock is injectable for deterministic tests; all methods are
thread-safe.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Transitions retained in the snapshot ring (oldest dropped first).
_TRANSITION_WINDOW = 32


@dataclass(frozen=True)
class BreakerSnapshot:
    """Point-in-time view of a :class:`CircuitBreaker`.

    Attributes:
        state: ``"closed"``, ``"open"`` or ``"half-open"``.
        consecutive_failures: Current failure streak (resets on success).
        failure_threshold: Streak length that trips the breaker.
        reset_timeout_s: Cool-down before open -> half-open.
        open_for_s: Seconds spent in the current open period (0 unless
            open).
        opens / closes / probes: Lifetime transition counters.
        transitions: The most recent ``(from, to)`` transitions.
    """

    state: str
    consecutive_failures: int
    failure_threshold: int
    reset_timeout_s: float
    open_for_s: float
    opens: int
    closes: int
    probes: int
    transitions: Tuple[Tuple[str, str], ...]

    def to_dict(self) -> Dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "reset_timeout_s": self.reset_timeout_s,
            "open_for_s": round(self.open_for_s, 3),
            "opens": self.opens,
            "closes": self.closes,
            "probes": self.probes,
            "transitions": [list(t) for t in self.transitions],
        }


class CircuitBreaker:
    """closed -> open -> half-open -> closed state machine.

    Args:
        failure_threshold: Consecutive failures that trip closed -> open.
        reset_timeout_s: Cool-down before an open breaker admits a probe.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ConfigurationError("reset_timeout_s must be > 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        self._opens = 0
        self._closes = 0
        self._probes = 0
        self._transitions: list = []

    # -- state machine -------------------------------------------------------

    def _transition_locked(self, new_state: str) -> None:
        self._transitions.append((self._state, new_state))
        del self._transitions[:-_TRANSITION_WINDOW]
        self._state = new_state

    def allow(self) -> bool:
        """May the caller attempt the protected operation right now?

        Closed: always.  Open: no, until ``reset_timeout_s`` has elapsed
        (which flips to half-open).  Half-open: yes, once, until the
        probe's outcome is recorded.  A granted half-open ``allow()``
        *consumes* the probe; the caller must follow with
        :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                elapsed = self._clock() - (self._opened_at or 0.0)
                if elapsed < self.reset_timeout_s:
                    return False
                self._transition_locked(HALF_OPEN)
                self._probe_in_flight = False
            # half-open
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            self._probes += 1
            return True

    def record_success(self) -> None:
        """The protected operation succeeded: reset the failure streak;
        a half-open success closes the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._transition_locked(CLOSED)
                self._closes += 1
                self._probe_in_flight = False
                self._opened_at = None

    def record_failure(self) -> None:
        """The protected operation failed: extend the streak; trip
        closed -> open at the threshold; re-open from half-open."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._transition_locked(OPEN)
                self._opens += 1
                self._opened_at = self._clock()
                self._probe_in_flight = False
            elif (self._state == CLOSED
                  and self._consecutive_failures >= self.failure_threshold):
                self._transition_locked(OPEN)
                self._opens += 1
                self._opened_at = self._clock()

    # -- introspection -------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, with the open -> half-open clock applied (an
        expired open period reads as ``"half-open"``)."""
        with self._lock:
            if self._state == OPEN:
                elapsed = self._clock() - (self._opened_at or 0.0)
                if elapsed >= self.reset_timeout_s:
                    return HALF_OPEN
            return self._state

    def snapshot(self) -> BreakerSnapshot:
        with self._lock:
            open_for = 0.0
            if self._state == OPEN and self._opened_at is not None:
                open_for = max(0.0, self._clock() - self._opened_at)
            return BreakerSnapshot(
                state=self._state,
                consecutive_failures=self._consecutive_failures,
                failure_threshold=self.failure_threshold,
                reset_timeout_s=self.reset_timeout_s,
                open_for_s=open_for,
                opens=self._opens,
                closes=self._closes,
                probes=self._probes,
                transitions=tuple(self._transitions),
            )

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.state} "
                f"failures={self._consecutive_failures}/"
                f"{self.failure_threshold} "
                f"opens={self._opens} closes={self._closes}>")
