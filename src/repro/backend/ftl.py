"""Page-mapped FTL bookkeeping: mapping, allocation, greedy GC.

Pure synchronous data structures -- no simulator dependency.  The
:class:`~repro.backend.ssd.SSDBackend` drives them from its event-loop
processes and converts the returned *plans* (per-channel page counts,
GC events) into timed channel jobs; keeping the bookkeeping out of the
event loop makes it unit-testable and keeps every decision
deterministic (plain list/dict iteration, no hashing of floats, no
randomness).

Model choices (documented in ``docs/storage-backends.md``):

* **Page granularity** is coarse (64 KiB "superpages" by default) --
  the simulator routes whole-file extents, not 4 KiB blocks, and a
  coarse page keeps the map small without changing the WA dynamics.
* **Channel striping**: physical blocks belong to channels round-robin
  (``block % n_channels``); host pages stripe across channels in write
  order.  GC is per-channel, so relocation traffic never crosses a
  channel boundary.
* **Greedy GC**: the victim is the closed block with the fewest valid
  pages (ties to the lowest block id), collected whenever a channel's
  free-block count falls below its reserve fraction.
* **Logical capacity** is a ring: when the extent map wraps, the
  overwritten extents are trimmed -- a bounded buffer tier overwrites
  its oldest content exactly like the paper's log disk reclaims space.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Physical-page sentinel for "unmapped".
UNMAPPED = -1


class FTLCounters:
    """Lifetime NAND accounting for one FTL instance.

    ``host_pages_written`` is owned by the backend (counted when a host
    write is *accepted*, so cache write-absorption can push WA below
    one); everything else is counted here when pages actually move.
    """

    __slots__ = (
        "host_pages_written",
        "nand_pages_programmed",
        "nand_pages_read",
        "pages_relocated",
        "blocks_erased",
        "gc_runs",
    )

    def __init__(self) -> None:
        self.host_pages_written = 0
        self.nand_pages_programmed = 0
        self.nand_pages_read = 0
        self.pages_relocated = 0
        self.blocks_erased = 0
        self.gc_runs = 0

    @property
    def write_amplification(self) -> float:
        """NAND pages programmed per host page written (0.0 before any
        host write)."""
        if self.host_pages_written == 0:
            return 0.0
        return self.nand_pages_programmed / self.host_pages_written

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FTLCounters host={self.host_pages_written} "
            f"nand={self.nand_pages_programmed} erases={self.blocks_erased} "
            f"WA={self.write_amplification:.2f}>"
        )


class GCEvent:
    """One garbage-collection round on one channel: relocate the
    victim's valid pages, then erase it."""

    __slots__ = ("channel", "pages_moved", "block")

    def __init__(self, channel: int, pages_moved: int, block: int) -> None:
        self.channel = channel
        self.pages_moved = pages_moved
        self.block = block

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GCEvent ch{self.channel} block={self.block} moved={self.pages_moved}>"


class ProgramPlan:
    """What one batch of host-page writes costs the flash array."""

    __slots__ = ("programs", "gc_events")

    def __init__(self, n_channels: int) -> None:
        #: Pages programmed per channel (host data, not GC relocation).
        self.programs: List[int] = [0] * n_channels
        #: GC rounds triggered by this batch, in trigger order.
        self.gc_events: List[GCEvent] = []

    @property
    def pages(self) -> int:
        return sum(self.programs)


class PageMappedFTL:
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

    def check(self) -> None:
        """Raise :class:`RuntimeError` if the bookkeeping is inconsistent.

        Checks that ``l2p``/``p2l`` are mutually inverse on mapped
        pages, that each block's valid count equals its mapped slots,
        and that every channel's open, closed and free blocks partition
        exactly the blocks of that channel.  O(pages): meant for tests,
        not for every simulation step.
        """
        ppb = self.pages_per_block
        p2l = self._p2l
        l2p = self._l2p
        for logical, physical in enumerate(l2p):
            if physical != UNMAPPED and p2l[physical] != logical:
                raise RuntimeError(
                    f"l2p[{logical}] = {physical} but p2l[{physical}] = {p2l[physical]}"
                )
        for physical, logical in enumerate(p2l):
            if logical != UNMAPPED and l2p[logical] != physical:
                raise RuntimeError(
                    f"p2l[{physical}] = {logical} but l2p[{logical}] = {l2p[logical]}"
                )
        for block, valid in enumerate(self._valid):
            base = block * ppb
            mapped = ppb - p2l[base:base + ppb].count(UNMAPPED)
            if valid != mapped:
                raise RuntimeError(
                    f"block {block}: valid count {valid} but {mapped} mapped slots"
                )
        for channel in range(self.n_channels):
            held = [self._open[channel], *self._closed[channel], *self._free[channel]]
            expected = list(range(channel, self.n_blocks, self.n_channels))
            if sorted(held) != expected:
                raise RuntimeError(
                    f"channel {channel}: open/closed/free blocks {sorted(held)} "
                    f"do not partition its blocks {expected}"
                )

    # -- host writes -------------------------------------------------------------

    def write_pages(self, logical_pages: Sequence[int]) -> ProgramPlan:
        """Accept a batch of distinct host-page writes; return the flash cost.

        Pages stripe across channels in write order.  Any GC a channel
        needs to stay above its free reserve happens (bookkeeping-wise)
        before the page that triggered it, and is reported in the plan
        so the backend can charge its time and energy.

        The batch is handled in segments that end where a block fills
        or just before a page whose channel is below its reserve.
        Inside a segment no GC can run, the pages are distinct and every
        slot they land on is unmapped, so invalidating all old copies
        first and then programming each channel's stride in one piece
        makes the same decisions as going page by page.  A page whose
        channel is below its reserve runs ``_reclaim`` alone, so a
        reclaim that fails is retried on the channel's next page.
        """
        n = len(logical_pages)
        if len(set(logical_pages)) != n:
            raise ValueError("write_pages needs distinct logical pages")
        n_channels = self.n_channels
        ppb = self.pages_per_block
        reserve = self._gc_reserve_blocks
        l2p = self._l2p
        p2l = self._p2l
        valid = self._valid
        free = self._free
        fill = self._fill
        plan = ProgramPlan(n_channels)
        programs = plan.programs
        i = 0
        while i < n:
            # Page i + offset goes to channel (first + offset) % N.  End
            # the segment before the first page on a channel below its
            # reserve, or after the page that fills an open block.
            first = self._next_channel
            end = n
            for channel in range(n_channels):
                offset = (channel - first) % n_channels
                if len(free[channel]) < reserve:
                    stop = i + offset
                else:
                    stop = i + offset + n_channels * (ppb - 1 - fill[channel]) + 1
                if stop < end:
                    end = stop
            if end == i:
                # Page i's channel is below its reserve: reclaim, then
                # place page i alone.
                self._reclaim(first, plan.gc_events)
                end = i + 1
            segment = logical_pages[i:end]
            for logical in segment:
                physical = l2p[logical]
                if physical != UNMAPPED:
                    p2l[physical] = UNMAPPED
                    valid[physical // ppb] -= 1
            for offset in range(min(n_channels, end - i)):
                channel = (first + offset) % n_channels
                stride = segment[offset::n_channels]
                self._place(channel, stride)
                programs[channel] += len(stride)
            self._next_channel = (first + end - i) % n_channels
            i = end
        self.counters.nand_pages_programmed += n
        return plan

    def trim_pages(self, logical_pages: Iterable[int]) -> None:
        """Invalidate logical pages (extent overwritten or evicted)."""
        ppb = self.pages_per_block
        l2p = self._l2p
        p2l = self._p2l
        valid = self._valid
        for logical in logical_pages:
            physical = l2p[logical]
            if physical != UNMAPPED:
                l2p[logical] = UNMAPPED
                p2l[physical] = UNMAPPED
                valid[physical // ppb] -= 1

    # -- host reads --------------------------------------------------------------

    def read_pages(self, logical_pages: Sequence[int]) -> List[int]:
        """Account a batch of page reads; return per-channel page counts.

        Unmapped pages (content that predates the simulation, or was
        evicted by the ring) still cost a read; they land on their
        default stripe channel (``page % n_channels``).
        """
        n_channels = self.n_channels
        ppb = self.pages_per_block
        l2p = self._l2p
        reads = [0] * n_channels
        for logical in logical_pages:
            physical = l2p[logical]
            if physical == UNMAPPED:
                reads[logical % n_channels] += 1
            else:
                reads[(physical // ppb) % n_channels] += 1
        self.counters.nand_pages_read += len(logical_pages)
        return reads

    # -- internals ---------------------------------------------------------------

    def _place(self, channel: int, logical_pages: Sequence[int]) -> None:
        """Program unmapped *logical_pages*, in order, into the channel's
        open block, opening the next free block each time one fills
        (space must have been ensured by :meth:`_reclaim`)."""
        ppb = self.pages_per_block
        l2p = self._l2p
        total = len(logical_pages)
        done = 0
        while done < total:
            block = self._open[channel]
            slot = self._fill[channel]
            count = min(ppb - slot, total - done)
            base = block * ppb + slot
            chunk = logical_pages[done:done + count]
            self._p2l[base:base + count] = chunk
            for physical, logical in enumerate(chunk, base):
                l2p[logical] = physical
            self._valid[block] += count
            done += count
            slot += count
            if slot == ppb:
                self._closed[channel].append(block)
                if not self._free[channel]:
                    raise RuntimeError(
                        f"FTL channel {channel} out of free blocks "
                        f"(over-committed logical space?)"
                    )
                self._open[channel] = self._free[channel].pop()
                slot = 0
            self._fill[channel] = slot

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
        valid = self._valid
        victim = min(closed, key=lambda b: (valid[b], b))
        ppb = self.pages_per_block
        if valid[victim] >= ppb:
            return None  # fully valid everywhere: erasing gains nothing
        closed.remove(victim)
        base = victim * ppb
        p2l = self._p2l
        survivors = [logical for logical in p2l[base:base + ppb] if logical != UNMAPPED]
        # Erase first so the victim itself is a relocation destination:
        # with only the reserve block free, relocating a nearly-full
        # victim must not run the channel out of open-block space.
        p2l[base:base + ppb] = [UNMAPPED] * ppb
        valid[victim] = 0
        self.erase_counts[victim] += 1
        self._free[channel].append(victim)
        self._place(channel, survivors)
        moved = len(survivors)
        counters = self.counters
        counters.pages_relocated += moved
        counters.nand_pages_programmed += moved
        counters.nand_pages_read += moved
        counters.blocks_erased += 1
        counters.gc_runs += 1
        return GCEvent(channel, moved, victim)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PageMappedFTL {self.n_logical_pages}p/{self.n_blocks}b "
            f"ch={self.n_channels} free={self.free_blocks} {self.counters!r}>"
        )


class ExtentMap:
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
        return self._pages(*extent)

    def _pages(self, start: int, count: int) -> List[int]:
        """The ring pages ``start .. start + count - 1``."""
        end = start + count
        if end <= self.n_pages:
            return list(range(start, end))
        return list(range(start, self.n_pages)) + list(range(end - self.n_pages))

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
            return self._pages(*existing), []
        evicted: List[int] = []
        if existing is not None:
            del self._extents[key]
            evicted.extend(self._pages(*existing))
        start = self._cursor
        ring = self.n_pages
        # Two ring intervals overlap iff one contains the other's start.
        for other_key in [
            k for k, (s, c) in self._extents.items()
            if (s - start) % ring < n_pages or (start - s) % ring < c
        ]:
            evicted.extend(self._pages(*self._extents.pop(other_key)))
        self._extents[key] = (start, n_pages)
        self._cursor = (start + n_pages) % ring
        return self._pages(start, n_pages), evicted

    def __contains__(self, key: object) -> bool:
        return key in self._extents

    def __len__(self) -> int:
        return len(self._extents)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExtentMap {len(self._extents)} extents over {self.n_pages} pages>"
