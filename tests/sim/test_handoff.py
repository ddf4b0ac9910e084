"""Unit tests for the one-at-a-time callback hand-off."""

import pytest

from repro.sim import Simulator
from repro.sim.handoff import Handoff


@pytest.fixture
def sim():
    return Simulator()


def test_idle_consumer_takes_an_offer_through_call_soon(sim):
    got = []
    handoff = Handoff(sim, got.append)
    handoff.offer("a")
    assert handoff.busy
    assert got == []  # handed over at the next dispatch, not inline
    sim.run()
    assert got == ["a"]


def test_busy_consumer_queues_until_release(sim):
    got = []
    handoff = Handoff(sim, got.append)
    handoff.offer("a")
    handoff.offer("b")
    handoff.offer("c")
    sim.run()
    assert got == ["a"]
    assert len(handoff) == 2
    handoff.release()
    sim.run()
    assert got == ["a", "b"]
    handoff.release()
    handoff.release()  # nothing left: the next release idles
    sim.run()
    assert got == ["a", "b", "c"]
    handoff.release()
    assert not handoff.busy


def test_waiting_items_leave_by_priority_then_arrival(sim):
    got = []
    handoff = Handoff(sim, got.append)
    handoff.offer("head", priority=2)  # claimed at once, whatever its rank
    handoff.offer("bg1", priority=2)
    handoff.offer("bg2", priority=2)
    handoff.offer("demand", priority=0)
    handoff.offer("prefetch", priority=1)
    for _ in range(5):
        sim.run()
        handoff.release()
    assert got == ["head", "demand", "prefetch", "bg1", "bg2"]


def test_drain_returns_waiting_items_in_service_order(sim):
    handoff = Handoff(sim, lambda item: None)
    handoff.offer("held")
    handoff.offer("late", priority=1)
    handoff.offer("early", priority=0)
    assert handoff.drain() == ["early", "late"]
    assert len(handoff) == 0
    assert handoff.busy  # the consumer still holds "held"


def test_unserved_handoff_holds_offers_until_serve(sim):
    got = []
    handoff = Handoff(sim)
    handoff.offer("a")
    handoff.offer("b")
    sim.run()
    assert got == [] and len(handoff) == 2
    handoff.serve(got.append)
    sim.run()
    assert got == ["a"]
    with pytest.raises(RuntimeError):
        handoff.serve(got.append)


def test_serve_starts_at_the_urgent_kick_off_slot(sim):
    """An item offered before the consumer's kick-off is handed over
    from the URGENT kick-off, as a consumer process's first get would
    be: behind normal work already queued at that moment."""
    order = []
    handoff = Handoff(sim)
    handoff.serve(lambda item: order.append(item))
    sim.call_soon(lambda _v: order.append("normal"))
    handoff.offer("first")
    sim.run()
    assert order == ["normal", "first"]
