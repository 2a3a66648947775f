"""Unit tests for the serving circuit breaker (:mod:`repro.serve.breaker`).

A fake injectable clock makes every transition deterministic: no
sleeps, no timing slack.
"""

import pytest

from repro.errors import ConfigurationError
from repro.serve import BreakerSnapshot, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(
        failure_threshold=3, reset_timeout_s=5.0, clock=clock
    )


class TestClosed:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_success_resets_the_streak(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak never reached 3

    def test_consecutive_failures_trip_open(self, breaker):
        for _ in range(3):
            assert breaker.state == "closed"
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()


class TestOpenAndHalfOpen:
    def _trip(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"

    def test_open_blocks_until_timeout(self, breaker, clock):
        self._trip(breaker)
        clock.advance(4.999)
        assert not breaker.allow()
        clock.advance(0.002)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe

    def test_probe_budget_is_enforced(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        assert not breaker.allow()  # the one probe is out, result pending
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()  # a new cool-down, a new probe

    def test_half_open_success_closes(self, breaker, clock):
        self._trip(breaker)
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens_and_restarts_cooldown(
        self, breaker, clock
    ):
        self._trip(breaker)
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(4.0)  # cool-down restarted: still open
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"


class TestSnapshotAndValidation:
    def test_snapshot_counts_transitions(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.0)
        snap = breaker.snapshot()
        assert isinstance(snap, BreakerSnapshot)
        assert snap.state == "open"
        assert snap.opens == 1
        assert snap.closes == 0
        assert snap.open_for_s == pytest.approx(2.0)
        assert ("closed", "open") in snap.transitions
        clock.advance(4.0)
        assert breaker.allow()
        breaker.record_success()
        snap = breaker.snapshot()
        assert snap.closes == 1
        assert snap.probes == 1
        assert snap.to_dict()["state"] == "closed"

    def test_full_cycle_transition_log(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(6.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.snapshot().transitions == (
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        )

    def test_validates_configuration(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout_s=0)

    def test_repr_mentions_state(self, breaker):
        assert "closed" in repr(breaker)


# -- property-based model check ----------------------------------------------
#
# Drive the breaker with arbitrary allow/success/failure/advance
# sequences on a step clock and check it against a tiny reference model
# of the documented three-state machine.  Whatever hypothesis throws at
# it, the breaker must never record an undocumented transition and the
# snapshot must reflect the last event.

from hypothesis import given, settings, strategies as st

VALID_TRANSITIONS = {
    ("closed", "open"),
    ("open", "half-open"),
    ("half-open", "closed"),
    ("half-open", "open"),
}

OPS = st.lists(
    st.one_of(
        st.just(("allow",)),
        st.just(("success",)),
        st.just(("failure",)),
        st.tuples(st.just("advance"),
                  st.sampled_from([0.1, 1.0, 4.9, 5.0, 7.5])),
    ),
    max_size=60,
)


class _ModelBreaker:
    """Reference implementation of the documented semantics (one probe
    while half-open)."""

    def __init__(self, threshold, timeout, clock):
        self.threshold = threshold
        self.timeout = timeout
        self.probe_budget = 1
        self.clock = clock
        self.state = "closed"
        self.consec = 0
        self.opened_at = None
        self.probes_in_flight = 0

    def allow(self):
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self.opened_at < self.timeout:
                return False
            self.state = "half-open"
            self.probes_in_flight = 0
        if self.probes_in_flight < self.probe_budget:
            self.probes_in_flight += 1
            return True
        return False

    def success(self):
        self.consec = 0
        if self.state == "half-open":
            self.state = "closed"
            self.probes_in_flight = 0
            self.opened_at = None

    def failure(self):
        self.consec += 1
        if self.state == "half-open":
            self.state = "open"
            self.opened_at = self.clock()
            self.probes_in_flight = 0
        elif self.state == "closed" and self.consec >= self.threshold:
            self.state = "open"
            self.opened_at = self.clock()

    def effective_state(self):
        if (self.state == "open"
                and self.clock() - self.opened_at >= self.timeout):
            return "half-open"
        return self.state


class TestBreakerProperties:
    @settings(deadline=None, max_examples=200)
    @given(ops=OPS, threshold=st.integers(min_value=1, max_value=4))
    def test_matches_reference_model(self, ops, threshold):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=threshold, reset_timeout_s=5.0, clock=clock,
        )
        model = _ModelBreaker(threshold, 5.0, clock)
        for op in ops:
            if op[0] == "allow":
                assert breaker.allow() == model.allow()
            elif op[0] == "success":
                breaker.record_success()
                model.success()
                assert breaker.snapshot().consecutive_failures == 0
            elif op[0] == "failure":
                breaker.record_failure()
                model.failure()
                assert breaker.snapshot().consecutive_failures >= 1
            else:
                clock.advance(op[1])
            snap = breaker.snapshot()
            # Raw state agrees with the model; the state property
            # additionally applies the open -> half-open clock.
            assert snap.state == model.state
            assert breaker.state == model.effective_state()
            assert snap.consecutive_failures == model.consec

    @settings(deadline=None, max_examples=200)
    @given(ops=OPS, threshold=st.integers(min_value=1, max_value=4))
    def test_never_records_an_invalid_transition(self, ops, threshold):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=threshold, reset_timeout_s=5.0,
            clock=clock,
        )
        for op in ops:
            if op[0] == "allow":
                breaker.allow()
            elif op[0] == "success":
                breaker.record_success()
            elif op[0] == "failure":
                breaker.record_failure()
            else:
                clock.advance(op[1])
        snap = breaker.snapshot()
        for transition in snap.transitions:
            assert transition in VALID_TRANSITIONS, transition
        # The retained window is contiguous: each hop starts where the
        # previous one ended.
        for prev, nxt in zip(snap.transitions, snap.transitions[1:]):
            assert prev[1] == nxt[0]
        # While the ring has not overflowed, the lifetime counters
        # agree with the retained log exactly.
        if len(snap.transitions) < 32:
            assert snap.opens == sum(
                1 for t in snap.transitions if t[1] == "open"
            )
            assert snap.closes == sum(
                1 for t in snap.transitions if t[1] == "closed"
            )
        assert snap.state in ("closed", "open", "half-open")
