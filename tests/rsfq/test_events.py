"""Tests for the event queue primitives (tuple fast path)."""

import pytest

from repro.rsfq.events import EventQueue, PulseEvent


@pytest.fixture(params=[EventQueue])
def queue(request):
    return request.param()


class TestQueueProtocol:
    def test_pops_in_time_order(self, queue):
        queue.push(30.0, "b", "din")
        queue.push(10.0, "a", "din")
        queue.push(20.0, "c", "din")
        order = [queue.pop()[2] for _ in range(3)]
        assert order == ["a", "c", "b"]

    def test_ties_broken_by_schedule_order(self, queue):
        queue.push(5.0, "first", "din")
        queue.push(5.0, "second", "din")
        assert queue.pop()[2] == "first"
        assert queue.pop()[2] == "second"

    def test_entries_are_plain_tuples(self, queue):
        """The hot path never allocates event objects: push/pop move bare
        ``(time, seq, target, port)`` tuples."""
        entry = queue.push(3.0, 7, 1)
        assert type(entry) is tuple
        assert entry == (3.0, 0, 7, 1)
        popped = queue.pop()
        assert type(popped) is tuple
        assert popped == (3.0, 0, 7, 1)

    def test_integer_indexed_payloads(self, queue):
        """Targets/ports are opaque: the simulator stores elaborated
        integer indices."""
        queue.push(1.0, 4, 2)
        time, seq, cell_idx, port_idx = queue.pop()
        assert (time, seq, cell_idx, port_idx) == (1.0, 0, 4, 2)

    def test_peek_does_not_remove(self, queue):
        queue.push(7.0, "a", "din")
        assert queue.peek_time() == 7.0
        assert len(queue) == 1

    def test_empty_behaviour(self, queue):
        assert queue.pop() is None
        assert queue.pop_event() is None
        assert queue.peek_time() is None
        assert not queue

    def test_clear(self, queue):
        queue.push(1.0, "a", "din")
        queue.clear()
        assert len(queue) == 0


class TestPulseEventMaterialisation:
    def test_pop_event_materialises_at_debug_boundary(self, queue):
        queue.push(3.0, "cell", "port")
        event = queue.pop_event()
        assert isinstance(event, PulseEvent)
        assert event.time == 3.0
        assert event.component == "cell"
        assert event.port == "port"
        assert event.sort_key() == (3.0, 0)

    def test_from_entry_round_trip(self):
        entry = (2.5, 9, 3, 1)
        event = PulseEvent.from_entry(entry)
        assert (event.time, event.seq, event.component, event.port) == entry
