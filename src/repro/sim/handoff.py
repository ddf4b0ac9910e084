"""One-at-a-time hand-off from arrivals to a callback consumer.

An idle consumer claims an arrival the moment it is offered and is
handed it through :meth:`~repro.sim.engine.Simulator.call_soon`; a busy
consumer leaves it waiting in ``(priority, arrival)`` order and calls
:meth:`Handoff.release` when it can take the next item.  That is the
dispatch order of a consumer process looping on a store get (or a
capacity-1 resource grant), without the process.

Fabric mailboxes, NIC channels, the drive queue and the SSD's host and
channel queues all use it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.events import URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Handoff:
    """Idle/busy hand-off to a single callback consumer.

    Built with a *handler*, the consumer is idle from the start (a free
    ``Resource`` slot).  Built without one, arrivals wait until
    :meth:`serve` attaches the consumer, which starts at the URGENT
    kick-off slot a consumer process started at that moment would take.
    """

    __slots__ = ("sim", "handler", "busy", "_waiting", "_arrivals")

    def __init__(
        self, sim: "Simulator", handler: Optional[Callable[[Any], None]] = None
    ) -> None:
        self.sim = sim
        self.handler = handler
        #: True while the consumer holds an item (or has not started).
        self.busy = handler is None
        self._waiting: List[Tuple[float, int, Any]] = []
        self._arrivals = 0

    def __len__(self) -> int:
        """Items waiting (not counting the one the consumer holds)."""
        return len(self._waiting)

    def serve(self, handler: Callable[[Any], None]) -> None:
        """Attach the consumer; it takes its first item at the URGENT
        kick-off slot, as a consumer process started now would."""
        if self.handler is not None:
            raise RuntimeError("a Handoff has exactly one consumer")
        self.handler = handler
        self.sim.call_soon(self._kick_off, priority=URGENT)

    def _kick_off(self, _value: Any) -> None:
        self.release()

    def offer(self, item: Any, priority: float = 0) -> None:
        """Hand *item* to an idle consumer now, or queue it behind the
        waiting items of equal or lower priority number."""
        if self.busy:
            heapq.heappush(self._waiting, (priority, self._arrivals, item))
            self._arrivals += 1
        else:
            self.busy = True
            self.sim.call_soon(self.handler, item)  # type: ignore[arg-type]

    def release(self) -> None:
        """The consumer is done with its item: hand it the next waiting
        one, or go idle until the next :meth:`offer`."""
        if self._waiting:
            self.sim.call_soon(
                self.handler, heapq.heappop(self._waiting)[2]  # type: ignore[arg-type]
            )
        else:
            self.busy = False

    def drain(self) -> List[Any]:
        """Remove and return every waiting item in service order."""
        waiting, self._waiting = self._waiting, []
        waiting.sort()
        return [entry[2] for entry in waiting]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "busy" if self.busy else "idle"
        return f"<Handoff {state} waiting={len(self._waiting)}>"
