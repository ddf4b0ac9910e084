"""Unit tests for point-to-point links (NICs).

A link's ``channel`` grants the wire to one transfer at a time; the
fabric drives it, so the transfer behaviour is exercised through
:meth:`Fabric.send` between two endpoints whose NICs are the links.
"""

import pytest

from repro.net import FAST_ETHERNET_BPS, Fabric, GIGABIT_ETHERNET_BPS, Link
from repro.sim import Simulator

MB = 1024 * 1024


@pytest.fixture
def sim():
    return Simulator()


def _pair(sim, tx_bps, rx_bps=None):
    """A zero-latency fabric with a sender ``a`` and a receiver ``b``."""
    fabric = Fabric(sim, latency_s=0.0)
    fabric.add_endpoint("a", tx_bps)
    fabric.add_endpoint("b", tx_bps if rx_bps is None else rx_bps)
    return fabric


def _send_times(sim, fabric, sizes):
    times = []

    def sender(size):
        yield fabric.send("a", "b", payload=None, size_bytes=size)
        times.append(sim.now)

    for size in sizes:
        sim.process(sender(size))
    sim.run()
    return times


def test_ethernet_rates_are_bytes_per_second():
    assert GIGABIT_ETHERNET_BPS == pytest.approx(125e6)
    assert FAST_ETHERNET_BPS == pytest.approx(12.5e6)


def test_validation(sim):
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=1e6, latency_s=-1)


def test_transmission_time(sim):
    link = Link(sim, bandwidth_bps=1e6, latency_s=0.001)
    assert link.transmission_time(1e6) == pytest.approx(1.001)
    with pytest.raises(ValueError):
        link.transmission_time(-1)


def test_transfer_takes_wire_time(sim):
    fabric = _pair(sim, 10 * MB)
    assert _send_times(sim, fabric, [10 * MB]) == [pytest.approx(1.0)]


def test_transfers_serialise(sim):
    fabric = _pair(sim, 10 * MB)
    times = _send_times(sim, fabric, [10 * MB, 10 * MB])
    assert times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_rate_cap_slows_transfer(sim):
    """A fast sender is capped at the slower receiver's rate."""
    fabric = _pair(sim, 100 * MB, rx_bps=10 * MB)
    assert _send_times(sim, fabric, [10 * MB]) == [pytest.approx(1.0)]


def test_rate_cap_above_bandwidth_is_ignored(sim):
    """A faster receiver does not speed up a slow sender."""
    fabric = _pair(sim, 10 * MB, rx_bps=1000 * MB)
    assert _send_times(sim, fabric, [10 * MB]) == [pytest.approx(1.0)]


def test_invalid_rate_cap_rejected(sim):
    """The cap is the far end's NIC rate, and a NIC needs a positive one."""
    fabric = Fabric(sim)
    with pytest.raises(ValueError):
        fabric.add_endpoint("a", 0)


def test_negative_transfer_rejected(sim):
    fabric = _pair(sim, 10 * MB)
    with pytest.raises(ValueError):
        fabric.send("a", "b", payload=None, size_bytes=-1)


def test_bytes_and_stats_accounted(sim):
    fabric = _pair(sim, 10 * MB)
    _send_times(sim, fabric, [5 * MB, 5 * MB])
    assert fabric.endpoint("a").tx.bytes_sent == 10 * MB
    assert fabric.endpoint("b").rx.bytes_sent == 10 * MB


def test_queue_length_visible_while_contended(sim):
    fabric = _pair(sim, 1 * MB)
    for _ in range(3):
        fabric.send_nowait("a", "b", payload=None, size_bytes=10 * MB)
    sim.run(until=0.5)
    tx = fabric.endpoint("a").tx.channel
    assert tx.busy
    assert len(tx) == 2
