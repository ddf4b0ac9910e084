"""Point-to-point links (NICs).

A :class:`Link` serialises transmissions: one frame at a time at the link
bandwidth, plus a fixed propagation/stack latency per transfer.  A
connection-setup cost approximates the TCP handshakes the prototype's
storage server performs when contacting storage nodes (Fig. 2, step 1).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.handoff import Handoff

#: Table I NIC rates, in *bytes* per second (the table quotes megabits).
GIGABIT_ETHERNET_BPS = 1000e6 / 8
FAST_ETHERNET_BPS = 100e6 / 8

#: Per-transfer fixed latency: switch + kernel network stack, one way.
DEFAULT_LATENCY_S = 200e-6

#: One TCP connect round trip on a quiet LAN.
DEFAULT_CONNECT_S = 500e-6


class Link:
    """A serialising transmission channel with fixed per-transfer latency.

    ``channel`` grants the wire to one transfer at a time, in arrival
    order: an idle link hands a transfer to *on_grant* through
    ``call_soon`` at once, a busy one queues it until the holder calls
    ``channel.release()``.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        latency_s: float = DEFAULT_LATENCY_S,
        name: str = "link",
        on_grant: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth_bps!r}")
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s!r}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.channel = Handoff(sim, on_grant)
        self.bytes_sent = 0

    def transmission_time(self, size_bytes: float) -> float:
        """Pure wire time for *size_bytes* (no queueing)."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes!r}")
        return self.latency_s + size_bytes / self.bandwidth_bps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.bandwidth_bps:.3g} B/s>"
