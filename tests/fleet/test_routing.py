"""Tests for the router registry and routing policies."""

import numpy as np
import pytest

from repro.fleet.routing import (
    ROUTERS,
    HashRouter,
    LBNRangeRouter,
    LeastLoadedStaticRouter,
    RoundRobinRouter,
    make_router,
    mix64,
)
from repro.sim import IOKind, Request, RequestBatch

CAPS = (1000, 2000, 500)


def req(rid, lbn, sectors=8):
    return Request(0.0, lbn, sectors, IOKind.READ, rid)


def route(router, *requests):
    """Members the router assigns to ``requests``, routed as one batch."""
    batch = RequestBatch.from_requests(requests)
    return router.route_array(batch).tolist()


def local(router, lbns, members):
    """Localized LBNs for parallel ``lbns``/``members`` lists."""
    return router.member_lbn_array(
        np.asarray(lbns, dtype=np.int64), np.asarray(members, dtype=np.int64)
    ).tolist()


class TestRegistry:
    def test_names(self):
        assert ROUTERS.names() == [
            "lbn-range", "hash", "round-robin", "least-loaded-static",
        ]

    def test_aliases(self):
        assert ROUTERS.canonical_name("range") == "lbn-range"
        assert ROUTERS.canonical_name("rr") == "round-robin"
        assert ROUTERS.canonical_name("least-loaded") == "least-loaded-static"
        assert type(make_router("rr", CAPS)) is RoundRobinRouter

    def test_case_folded(self):
        assert type(make_router("LBN-Range", CAPS)) is LBNRangeRouter

    def test_unknown_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'lbn-range'"):
            make_router("lbn-rnage", CAPS)

    def test_unknown_lists_names(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("zorp", CAPS)


class TestValidation:
    def test_empty_capacities(self):
        with pytest.raises(ValueError, match="no members"):
            make_router("lbn-range", ())

    def test_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="non-positive"):
            make_router("hash", (100, 0))

    def test_bad_chunk(self):
        with pytest.raises(ValueError, match="chunk_sectors"):
            make_router("hash", CAPS, chunk_sectors=0)


class TestLBNRange:
    def test_partition_boundaries(self):
        router = LBNRangeRouter(CAPS)
        lbns = [0, 999, 1000, 2999, 3000, 3499]
        assert route(
            router, *(req(rid, lbn) for rid, lbn in enumerate(lbns))
        ) == [0, 0, 1, 1, 2, 2]

    def test_member_lbn_is_offset(self):
        router = LBNRangeRouter(CAPS)
        assert local(router, [1500, 3000], [1, 2]) == [500, 0]

    def test_out_of_range_rejected(self):
        router = LBNRangeRouter(CAPS)
        with pytest.raises(ValueError, match="lbn 3500 outside fleet"):
            route(router, req(0, 0), req(1, 3500))

    def test_single_member_is_identity(self):
        router = LBNRangeRouter((5000,))
        assert route(router, req(7, 4321)) == [0]
        assert local(router, [4321], [0]) == [4321]


class TestHash:
    def test_deterministic_and_chunk_stable(self):
        router = HashRouter(CAPS, chunk_sectors=256)
        # Same chunk (lbn // 256 == 2) → same member, any rid, any run.
        first, second = route(router, req(0, 512), req(99, 700))
        assert first == second == mix64(2) % 3
        assert route(HashRouter(CAPS, chunk_sectors=256), req(5, 513)) == [
            first
        ]

    def test_mix64_is_fixed(self):
        # Pinned values: the assignment must never drift across versions,
        # or resumed/compared fleet runs silently reshard.
        assert mix64(0) == 16294208416658607535
        assert mix64(1) == 10451216379200822465

    def test_spreads_members(self):
        router = HashRouter(CAPS, chunk_sectors=1)
        members = route(router, *(req(i, i * 997) for i in range(200)))
        assert members == [mix64(i * 997) % 3 for i in range(200)]
        assert set(members) == {0, 1, 2}

    def test_member_lbn_in_bounds(self):
        router = HashRouter(CAPS)
        lbns = [0, 999, 1000, 3499, 3400]
        members = route(router, *(req(0, lbn) for lbn in lbns))
        localized = local(router, lbns, members)
        assert localized == [
            lbn % CAPS[member] for lbn, member in zip(lbns, members)
        ]
        assert all(
            0 <= lbn < CAPS[member] for lbn, member in zip(localized, members)
        )


class TestRoundRobin:
    def test_exact_balance(self):
        router = RoundRobinRouter(CAPS)
        members = route(router, *(req(rid, 0) for rid in range(30)))
        assert members == [rid % 3 for rid in range(30)]


class TestLeastLoadedStatic:
    def test_balances_sectors(self):
        router = LeastLoadedStaticRouter(CAPS)
        # Unequal request sizes: greedy keeps cumulative sectors level.
        sizes = [64, 8, 8, 8, 64, 8, 8, 8]
        members = route(
            router,
            *(req(rid, 0, sectors) for rid, sectors in enumerate(sizes)),
        )
        assert members == [0, 1, 2, 1, 2, 1, 1, 1]
        assert router._load == [64, 40, 72]
        assert max(router._load) - min(router._load) <= 64

    def test_ties_to_lowest_index(self):
        router = LeastLoadedStaticRouter(CAPS)
        members = route(router, *(req(rid, 0) for rid in range(4)))
        assert members == [0, 1, 2, 0]

    def test_pure_function_of_stream(self):
        stream = [req(i, i * 31, 8 + (i % 3) * 8) for i in range(50)]
        whole = route(LeastLoadedStaticRouter(CAPS), *stream)
        # State carries across calls: routing the stream in two batches
        # assigns exactly what one batch does.
        split = LeastLoadedStaticRouter(CAPS)
        assert route(split, *stream[:17]) + route(split, *stream[17:]) == whole
        assert whole == route(LeastLoadedStaticRouter(CAPS), *stream)
