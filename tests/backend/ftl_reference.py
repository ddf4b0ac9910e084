"""Per-page reference copies of :class:`PageMappedFTL` and
:class:`ExtentMap` for the FTL differential test.

These are the straightforward versions the batched implementation in
``repro.backend.ftl`` replaced: one ``_reclaim`` / ``_invalidate`` /
``_program`` call per host page, relocation one page at a time, and an
overlap test that materialises every page of every extent.  They are
kept verbatim (only renamed) so ``test_ftl_differential.py`` can require
the optimised classes to make exactly the same decisions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backend.ftl import FTLCounters, GCEvent, ProgramPlan, UNMAPPED


class ReferenceFTL:
    """Page-mapped flash translation layer with greedy per-channel GC."""

    __slots__ = (
        "n_channels",
        "pages_per_block",
        "n_logical_pages",
        "n_blocks",
        "counters",
        "erase_counts",
        "_gc_reserve_blocks",
        "_l2p",
        "_p2l",
        "_valid",
        "_free",
        "_closed",
        "_open",
        "_fill",
        "_next_channel",
    )

    def __init__(
        self,
        n_logical_pages: int,
        pages_per_block: int,
        n_channels: int,
        overprovision: float,
        gc_free_fraction: float,
    ) -> None:
        if n_logical_pages < 1:
            raise ValueError(f"n_logical_pages must be >= 1, got {n_logical_pages!r}")
        if pages_per_block < 1:
            raise ValueError(f"pages_per_block must be >= 1, got {pages_per_block!r}")
        if n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {n_channels!r}")
        if overprovision <= 0:
            raise ValueError(f"overprovision must be > 0, got {overprovision!r}")
        if not 0 < gc_free_fraction < 0.5:
            raise ValueError(
                f"gc_free_fraction must be in (0, 0.5), got {gc_free_fraction!r}"
            )
        self.n_channels = n_channels
        self.pages_per_block = pages_per_block
        self.n_logical_pages = n_logical_pages
        logical_blocks = -(-n_logical_pages // pages_per_block)
        physical_blocks = int(logical_blocks * (1.0 + overprovision)) + 1
        # Every channel needs room to operate: an open block, a GC
        # destination, and at least one block of reserve.
        per_channel = max(-(-physical_blocks // n_channels), 3)
        self.n_blocks = per_channel * n_channels
        self.counters = FTLCounters()
        #: Per-physical-block erase count (endurance accounting).
        self.erase_counts: List[int] = [0] * self.n_blocks
        reserve = int(gc_free_fraction * per_channel)
        self._gc_reserve_blocks = max(1, reserve)
        self._l2p: List[int] = [UNMAPPED] * n_logical_pages
        self._p2l: List[int] = [UNMAPPED] * (self.n_blocks * pages_per_block)
        self._valid: List[int] = [0] * self.n_blocks
        # Blocks belong to channel (block % n_channels).  Free lists are
        # stacks kept in descending order so pop() hands out ascending
        # block ids -- deterministic and easy to read in dumps.
        self._free: List[List[int]] = [
            sorted(range(ch, self.n_blocks, n_channels), reverse=True)
            for ch in range(n_channels)
        ]
        self._closed: List[List[int]] = [[] for _ in range(n_channels)]
        self._open: List[int] = [self._free[ch].pop() for ch in range(n_channels)]
        self._fill: List[int] = [0] * n_channels
        self._next_channel = 0

    # -- observability -----------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Free (erased, unopened) blocks across all channels."""
        return sum(len(f) for f in self._free)

    @property
    def max_erase_count(self) -> int:
        return max(self.erase_counts)

    def channel_of(self, logical_page: int) -> Optional[int]:
        """Channel currently holding a logical page (None = unmapped)."""
        physical = self._l2p[logical_page]
        if physical == UNMAPPED:
            return None
        return (physical // self.pages_per_block) % self.n_channels

    # -- host writes -------------------------------------------------------------

    def write_pages(self, logical_pages: Sequence[int]) -> ProgramPlan:
        """Accept a batch of host-page writes; return the flash cost.

        Pages stripe across channels in write order.  Any GC a channel
        needs to stay above its free reserve happens (bookkeeping-wise)
        before the page that triggered it, and is reported in the plan
        so the backend can charge its time and energy.
        """
        plan = ProgramPlan(self.n_channels)
        for logical in logical_pages:
            channel = self._next_channel
            self._next_channel = (self._next_channel + 1) % self.n_channels
            self._reclaim(channel, plan.gc_events)
            self._invalidate(logical)
            self._program(logical, channel)
            plan.programs[channel] += 1
            self.counters.nand_pages_programmed += 1
        return plan

    def trim_pages(self, logical_pages: Iterable[int]) -> None:
        """Invalidate logical pages (extent overwritten or evicted)."""
        for logical in logical_pages:
            self._invalidate(logical)

    # -- host reads --------------------------------------------------------------

    def read_pages(self, logical_pages: Sequence[int]) -> List[int]:
        """Account a batch of page reads; return per-channel page counts.

        Unmapped pages (content that predates the simulation, or was
        evicted by the ring) still cost a read; they land on their
        default stripe channel (``page % n_channels``).
        """
        reads = [0] * self.n_channels
        for logical in logical_pages:
            channel = self.channel_of(logical)
            if channel is None:
                channel = logical % self.n_channels
            reads[channel] += 1
            self.counters.nand_pages_read += 1
        return reads

    # -- internals ---------------------------------------------------------------

    def _invalidate(self, logical: int) -> None:
        physical = self._l2p[logical]
        if physical == UNMAPPED:
            return
        self._l2p[logical] = UNMAPPED
        self._p2l[physical] = UNMAPPED
        self._valid[physical // self.pages_per_block] -= 1

    def _program(self, logical: int, channel: int) -> None:
        """Map *logical* onto the channel's open block (space must have
        been ensured by :meth:`_reclaim`)."""
        block = self._open[channel]
        slot = self._fill[channel]
        physical = block * self.pages_per_block + slot
        self._l2p[logical] = physical
        self._p2l[physical] = logical
        self._valid[block] += 1
        self._fill[channel] = slot + 1
        if self._fill[channel] == self.pages_per_block:
            self._closed[channel].append(block)
            if not self._free[channel]:
                raise RuntimeError(
                    f"FTL channel {channel} out of free blocks "
                    f"(over-committed logical space?)"
                )
            self._open[channel] = self._free[channel].pop()
            self._fill[channel] = 0

    def _reclaim(self, channel: int, events: List[GCEvent]) -> None:
        """Run greedy GC until the channel is back above its reserve.

        Bounded by the closed-block count: a round whose victim is
        almost fully valid can net ~zero free blocks, and an unbounded
        loop would spin on such a channel forever.
        """
        for _ in range(len(self._closed[channel])):
            if len(self._free[channel]) >= self._gc_reserve_blocks:
                return
            event = self._collect(channel)
            if event is None:
                return  # nothing reclaimable; the open block must suffice
            events.append(event)

    def _collect(self, channel: int) -> Optional[GCEvent]:
        """One greedy GC round: relocate + erase the best victim."""
        closed = self._closed[channel]
        if not closed:
            return None
        victim = min(closed, key=lambda b: (self._valid[b], b))
        if self._valid[victim] >= self.pages_per_block:
            return None  # fully valid everywhere: erasing gains nothing
        closed.remove(victim)
        base = victim * self.pages_per_block
        survivors = [
            self._p2l[base + slot]
            for slot in range(self.pages_per_block)
            if self._p2l[base + slot] != UNMAPPED
        ]
        # Erase first so the victim itself is a relocation destination:
        # with only the reserve block free, relocating a nearly-full
        # victim must not run the channel out of open-block space.
        for logical in survivors:
            self._invalidate(logical)
        self._valid[victim] = 0
        self.erase_counts[victim] += 1
        self._free[channel].append(victim)
        for logical in survivors:
            self._program(logical, channel)
        moved = len(survivors)
        self.counters.pages_relocated += moved
        self.counters.nand_pages_programmed += moved
        self.counters.nand_pages_read += moved
        self.counters.blocks_erased += 1
        self.counters.gc_runs += 1
        return GCEvent(channel, moved, victim)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PageMappedFTL {self.n_logical_pages}p/{self.n_blocks}b "
            f"ch={self.n_channels} free={self.free_blocks} {self.counters!r}>"
        )


class ReferenceExtentMap:
    """File-extent allocator over the SSD's logical page space.

    Maps an opaque extent key (the file id from the request tag) to a
    contiguous logical page range.  Allocation is a ring over the
    logical space: wrapping overwrites (evicts) the extents in the way,
    which is how a bounded buffer tier sheds its oldest content.
    """

    __slots__ = ("n_pages", "_extents", "_cursor")

    def __init__(self, n_pages: int) -> None:
        if n_pages < 1:
            raise ValueError(f"n_pages must be >= 1, got {n_pages!r}")
        self.n_pages = n_pages
        #: key -> (start_page, n_pages); insertion-ordered, deterministic.
        self._extents: Dict[object, Tuple[int, int]] = {}
        self._cursor = 0

    def lookup(self, key: object) -> Optional[List[int]]:
        """Logical pages of an extent (None if absent/evicted)."""
        extent = self._extents.get(key)
        if extent is None:
            return None
        start, count = extent
        return [(start + i) % self.n_pages for i in range(count)]

    def allocate(self, key: object, n_pages: int) -> Tuple[List[int], List[int]]:
        """Place (or re-place) an extent; return its logical pages and
        the pages of every extent the ring overwrote (to be trimmed).

        A same-size rewrite reuses its existing range -- a logical
        overwrite-in-place, which the FTL turns into fresh programs and
        stale-page invalidations.
        """
        if n_pages < 1:
            raise ValueError(f"n_pages must be >= 1, got {n_pages!r}")
        if n_pages > self.n_pages:
            raise ValueError(
                f"extent of {n_pages} pages exceeds the logical space "
                f"({self.n_pages} pages)"
            )
        existing = self._extents.get(key)
        if existing is not None and existing[1] == n_pages:
            start, count = existing
            return [(start + i) % self.n_pages for i in range(count)], []
        evicted: List[int] = []
        if existing is not None:
            del self._extents[key]
            start, count = existing
            evicted.extend((start + i) % self.n_pages for i in range(count))
        start = self._cursor
        taken = {(start + i) % self.n_pages for i in range(n_pages)}
        for other_key in [
            k for k, (s, c) in self._extents.items()
            if any((s + i) % self.n_pages in taken for i in range(c))
        ]:
            other_start, other_count = self._extents.pop(other_key)
            evicted.extend(
                (other_start + i) % self.n_pages for i in range(other_count)
            )
        self._extents[key] = (start, n_pages)
        self._cursor = (start + n_pages) % self.n_pages
        return [(start + i) % self.n_pages for i in range(n_pages)], evicted

    def __contains__(self, key: object) -> bool:
        return key in self._extents

    def __len__(self) -> int:
        return len(self._extents)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExtentMap {len(self._extents)} extents over {self.n_pages} pages>"
