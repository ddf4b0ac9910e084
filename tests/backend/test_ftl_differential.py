"""Differential test: the batched FTL makes the per-page FTL's decisions.

``repro.backend.ftl`` handles host writes in segments, relocates GC
survivors with slice assignment and finds ring overlaps with an interval
test.  ``ftl_reference`` keeps the per-page versions those replaced.
Random operation sequences -- extent allocations (trimmed and written the
way the SSD destager does), lookups, raw writes, trims and reads -- run
through both, and after every operation the plans, GC events, maps,
valid counts, block lists, erase counts and counters must be equal and
:meth:`PageMappedFTL.check` must pass.
"""

from hypothesis import given, HealthCheck, settings
from hypothesis import strategies as st
import pytest

from repro.backend.ftl import ExtentMap, PageMappedFTL
from tests.backend.ftl_reference import ReferenceExtentMap, ReferenceFTL

_COUNTER_FIELDS = (
    "host_pages_written",
    "nand_pages_programmed",
    "nand_pages_read",
    "pages_relocated",
    "blocks_erased",
    "gc_runs",
)


def _state(ftl):
    return (
        ftl._l2p,
        ftl._p2l,
        ftl._valid,
        ftl._free,
        ftl._closed,
        ftl._open,
        ftl._fill,
        ftl._next_channel,
        ftl.erase_counts,
        tuple(getattr(ftl.counters, name) for name in _COUNTER_FIELDS),
    )


def _plan(plan):
    return (
        plan.programs,
        [(e.channel, e.pages_moved, e.block) for e in plan.gc_events],
    )


def _call(fn, *args):
    """``("ok", result)`` or ``("raised", exception type)``."""
    try:
        return "ok", fn(*args)
    except (RuntimeError, ValueError) as exc:
        return "raised", type(exc)


@st.composite
def scenarios(draw):
    n_logical = draw(st.integers(min_value=4, max_value=48))
    geometry = dict(
        n_logical_pages=n_logical,
        pages_per_block=draw(st.integers(min_value=2, max_value=8)),
        n_channels=draw(st.integers(min_value=1, max_value=4)),
        overprovision=draw(st.sampled_from([0.07, 0.25, 0.5, 1.0])),
        # Deep reserves leave channels below reserve after GC has done
        # all it can, so reclaims fail and are retried page by page.
        gc_free_fraction=draw(st.sampled_from([0.05, 0.1, 0.2, 0.35, 0.45])),
    )
    page = st.integers(min_value=0, max_value=n_logical - 1)
    op = st.one_of(
        st.tuples(
            st.just("allocate"),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=n_logical),
        ),
        st.tuples(st.just("lookup"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("write"), st.lists(page, unique=True, max_size=n_logical)),
        # Rewrite the whole logical space from some offset: fills the
        # device, so GC runs and deep reserves cannot be restored.
        st.integers(min_value=0, max_value=n_logical - 1).map(
            lambda k: ("write", [(k + i) % n_logical for i in range(n_logical)])
        ),
        st.tuples(st.just("trim"), st.lists(page, max_size=n_logical)),
        st.tuples(st.just("read"), st.lists(page, max_size=n_logical)),
    )
    return geometry, draw(st.lists(op, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_batched_ftl_matches_per_page_reference(scenario):
    geometry, ops = scenario
    ftl, ref = PageMappedFTL(**geometry), ReferenceFTL(**geometry)
    extents = ExtentMap(geometry["n_logical_pages"])
    ref_extents = ReferenceExtentMap(geometry["n_logical_pages"])
    for op in ops:
        kind = op[0]
        if kind == "allocate":
            _, key, n_pages = op
            got = extents.allocate(key, n_pages)
            assert got == ref_extents.allocate(key, n_pages)
            pages, evicted = got
            ftl.trim_pages(evicted)
            ref.trim_pages(evicted)
            outcome = _call(ftl.write_pages, pages)
            expected = _call(ref.write_pages, pages)
        elif kind == "lookup":
            assert extents.lookup(op[1]) == ref_extents.lookup(op[1])
            outcome = expected = ("ok", None)
        elif kind == "write":
            outcome = _call(ftl.write_pages, op[1])
            expected = _call(ref.write_pages, op[1])
        elif kind == "trim":
            ftl.trim_pages(op[1])
            ref.trim_pages(op[1])
            outcome = expected = ("ok", None)
        else:
            outcome = ("ok", ftl.read_pages(op[1]))
            expected = ("ok", ref.read_pages(op[1]))
        assert outcome[0] == expected[0]
        if outcome[0] == "raised":
            # Out of free blocks: both gave up; state after a raise is moot.
            assert outcome[1] is expected[1]
            return
        if kind in ("allocate", "write"):
            assert _plan(outcome[1]) == _plan(expected[1])
        elif kind == "read":
            assert outcome[1] == expected[1]
        assert _state(ftl) == _state(ref)
        assert (extents._extents, extents._cursor) == (
            ref_extents._extents,
            ref_extents._cursor,
        )
        ftl.check()


class _CountingFTL(PageMappedFTL):
    """Counts reclaims that leave their channel below its reserve."""

    failed_reclaims = 0

    def _reclaim(self, channel, events):
        super()._reclaim(channel, events)
        if len(self._free[channel]) < self._gc_reserve_blocks:
            self.failed_reclaims += 1


def test_deep_reserve_exercises_failed_reclaims():
    """Pin that such geometries reach the retry path: a reclaim leaves
    its channel below reserve, so the channel's next page reclaims
    again, and both versions still agree page by page."""
    geometry = dict(
        n_logical_pages=32,
        pages_per_block=4,
        n_channels=2,
        overprovision=0.5,
        gc_free_fraction=0.45,
    )
    ftl, ref = _CountingFTL(**geometry), ReferenceFTL(**geometry)
    for round_no in range(12):
        pages = [(round_no * 5 + i) % 32 for i in range(12)]
        assert _plan(ftl.write_pages(pages)) == _plan(ref.write_pages(pages))
        assert _state(ftl) == _state(ref)
        ftl.check()
    assert ftl.failed_reclaims > 0


def test_duplicate_pages_in_one_batch_are_rejected():
    ftl = PageMappedFTL(16, 4, 2, 0.25, 0.2)
    with pytest.raises(ValueError):
        ftl.write_pages([1, 2, 1])


class TestCheck:
    def _churned(self):
        ftl = PageMappedFTL(32, 4, 2, 0.25, 0.2)
        for round_no in range(6):
            ftl.write_pages([(round_no * 3 + i) % 32 for i in range(10)])
        ftl.check()
        return ftl

    def test_broken_bijection_is_caught(self):
        ftl = self._churned()
        logical = next(i for i, p in enumerate(ftl._l2p) if p >= 0)
        ftl._p2l[ftl._l2p[logical]] = (logical + 1) % 32
        with pytest.raises(RuntimeError, match="p2l"):
            ftl.check()

    def test_wrong_valid_count_is_caught(self):
        ftl = self._churned()
        ftl._valid[ftl._closed[0][0]] += 1
        with pytest.raises(RuntimeError, match="valid count"):
            ftl.check()

    def test_block_in_two_lists_is_caught(self):
        ftl = self._churned()
        ftl._free[1].append(ftl._open[1])
        with pytest.raises(RuntimeError, match="partition"):
            ftl.check()
