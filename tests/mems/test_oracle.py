"""The MEMS positioning oracle on cylinder and row indices.

The device derives every access from integer cylinders and rows, reads
sled coordinates from per-parameter-set tables, and memoizes the X seek per
mirrored cylinder pair.  These tests hold it to the float-coordinate
reference in ``mems_reference.py`` bit for bit, check the identities that
make the tables and the memo key exact, and bound what the memo keeps.
"""

import gc
import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mems import DEFAULT_PARAMETERS, MEMSDevice, MEMSParameters, generations
from repro.mems import device as mems_device
from repro.sim import AccessResult, IOKind, Request, SimConfig

from .mems_reference import ReferenceMEMS

PARAMETER_SETS = {
    "table1": MEMSParameters,
    "generation1": generations.generation_1,
    "generation2": generations.generation_2,
    "generation3": generations.generation_3,
    "unidirectional": lambda: MEMSParameters(bidirectional_access=False),
    "settle0": lambda: MEMSParameters(settle_constants=0.0),
    "settle2": lambda: MEMSParameters(settle_constants=2.0),
}


def bits(value: float) -> bytes:
    """``value``'s IEEE-754 encoding: equal bits, signed zeros apart."""
    return struct.pack("<d", value)


def assert_same_access(actual: AccessResult, expected: AccessResult) -> None:
    for name, got, want in zip(AccessResult._fields, actual, expected):
        if isinstance(want, float):
            assert bits(got) == bits(want), (name, got, want)
        else:
            assert got == want, (name, got, want)


def assert_same_state(device: MEMSDevice, reference: ReferenceMEMS) -> None:
    assert [bits(v) for v in device.sled_state] == [
        bits(v) for v in reference.sled_state
    ]
    assert device.current_cylinder == reference.current_cylinder
    assert device.last_lbn == reference.last_lbn


def read(lbn: int, sectors: int) -> Request:
    return Request(0.0, lbn=lbn, sectors=sectors, kind=IOKind.READ)


@st.composite
def requests(draw, params: MEMSParameters):
    """``(lbn, sectors)`` anywhere on the device: one sector up to more
    than a track, at random, at and across track ends, and up to the last
    LBN."""
    per_track = params.sectors_per_track
    capacity = params.capacity_sectors
    sectors = draw(
        st.one_of(
            st.integers(1, 16),
            st.sampled_from(
                [params.sectors_per_row, per_track - 1, per_track, per_track + 1]
            ),
            st.integers(1, 2 * per_track + params.sectors_per_row),
        )
    )
    where = draw(st.sampled_from(["anywhere", "track end", "last"]))
    if where == "last":
        return capacity - sectors, sectors
    if where == "track end":
        track = draw(st.integers(1, capacity // per_track - 1))
        lbn = track * per_track - draw(st.integers(0, sectors))
    else:
        lbn = draw(st.integers(0, capacity - sectors))
    return min(max(lbn, 0), capacity - sectors), sectors


class TestMatchesTheFloatReference:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(PARAMETER_SETS)),
        memoize=st.booleans(),
        data=st.data(),
    )
    def test_every_result_matches_bit_for_bit(self, name, memoize, data):
        params = PARAMETER_SETS[name]()
        device = MEMSDevice(params, memoize=memoize)
        reference = ReferenceMEMS(params)
        operations = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("service"), requests(params)),
                    st.tuples(st.just("estimate"), requests(params)),
                    st.tuples(st.just("stop"), st.none()),
                ),
                min_size=1,
                max_size=25,
            )
        )
        for operation, request in operations:
            if operation == "stop":
                assert bits(device.stop_sled()) == bits(reference.stop_sled())
            elif operation == "service":
                assert_same_access(
                    device.service(read(*request)), reference.service(*request)
                )
            else:
                exact = reference.estimate_positioning(*request)
                for limit in (
                    math.inf,
                    2 * exact,
                    math.nextafter(exact, math.inf),
                    exact,
                    math.nextafter(exact, -math.inf),
                    exact / 2,
                    0.0,
                ):
                    got = device.estimate_positioning(read(*request), 0.0, limit)
                    want = reference.estimate_positioning(*request, limit)
                    assert bits(got) == bits(want), (request, limit)
            assert_same_state(device, reference)


@pytest.fixture(params=sorted(PARAMETER_SETS))
def components(request):
    return mems_device._components(PARAMETER_SETS[request.param](), memoize=True)


class TestTables:
    def test_cylinder_offsets_mirror_exactly(self, components):
        parts = components
        geometry = parts.geometry
        last = geometry.num_cylinders - 1
        assert len(parts.x_offsets) == geometry.num_cylinders
        for cylinder, x in enumerate(parts.x_offsets):
            assert bits(x) == bits(geometry.x_of_cylinder(cylinder))
            assert bits(parts.x_offsets[last - cylinder]) == bits(-x)

    def test_row_edges_are_the_row_spans(self, components):
        parts = components
        geometry = parts.geometry
        assert len(parts.row_low) == len(parts.row_high) == geometry.rows_per_track
        for row in range(geometry.rows_per_track):
            low, high = geometry.row_span_y(row)
            assert bits(parts.row_low[row]) == bits(low)
            assert bits(parts.row_high[row]) == bits(high)


class TestXSeekMemo:
    def test_the_memo_maps_canonical_pair_ints_to_floats(self):
        parts = mems_device._components(DEFAULT_PARAMETERS, memoize=True)
        count = parts.geometry.num_cylinders
        last = count - 1
        seek = parts.x_seek(700, 20)
        # The leftward seek and its mirror image share one entry, keyed by
        # the mirrored pair.
        assert bits(parts.x_seek(last - 700, last - 20)) == bits(seek)
        assert parts.x_memo == {(last - 700) * count + (last - 20): seek}
        device = MEMSDevice()
        for lbn in range(0, device.capacity_sectors, 999_983):
            device.estimate_positioning(read(lbn, 8))
            device.service(read(lbn, 8))
        memo = mems_device._shared_components(DEFAULT_PARAMETERS).x_memo
        assert memo
        assert all(type(key) is int for key in memo)
        assert all(type(value) is float for value in memo.values())
        assert all(
            key // count <= key % count < count for key in memo
        )  # c0 <= c1 < N

    def test_the_memo_clears_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(mems_device, "_X_SEEK_MEMO_LIMIT", 5)
        parts = mems_device._components(DEFAULT_PARAMETERS, memoize=True)
        plain = mems_device._components(DEFAULT_PARAMETERS, memoize=False)
        assert plain.x_memo is None
        sizes = []
        for c0, c1 in [(0, 9), (3, 2), (2400, 17), (5, 5)] * 2 + [
            (c, 2499 - c) for c in range(0, 2500, 250)
        ]:
            assert bits(parts.x_seek(c0, c1)) == bits(plain.x_seek(c0, c1))
            sizes.append(len(parts.x_memo))
        assert max(sizes) == 5
        assert sizes.count(1) >= 2  # cleared, then refilled


class TestMemoryGuard:
    """What a long SPTF run leaves behind in the per-parameter-set caches."""

    REQUESTS = 20_000
    BYTES_PER_REQUEST = 500

    def test_a_deep_run_keeps_little_per_request(self):
        def run(requests):
            config = SimConfig(
                device="mems", scheduler="SPTF", rate=2000.0,
                num_requests=requests, seed=42, warmup=min(500, requests // 2),
            )
            return config.run()

        run(10)  # build the parameter set's tables and bound tables first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run(self.REQUESTS)
            assert len(result.columns["total"]) == self.REQUESTS - 500
            del result
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / self.REQUESTS <= self.BYTES_PER_REQUEST, held
