"""Columnar-path identity: generators and routers equal their scalar
references, bitwise.

The columnar pipeline (RequestBatch generation, array routing) is pinned
from two sides:

* every workload generator's ``generate`` materializes to exactly the
  request list its scalar reference in ``stream_reference.py`` builds,
  across seeds, rates, and footprints (float-exact, not approx: both paths
  must perform the same IEEE operations in the same order);
* every built-in router's ``route_array``/``member_lbn_array`` agree
  element-for-element with a plain-Python reference of the policy (below,
  with :func:`~repro.fleet.routing.mix64` as the hash reference) over the
  same stream, including the stateful greedy policy.

``Request`` is a NamedTuple, so ``==`` over request lists compares every
field of every row with no tolerance.
"""

import bisect

import pytest

from repro.fleet.routing import ROUTERS, mix64
from repro.nputil import get_numpy
from repro.sim.batch import RequestBatch
from repro.workloads.cello import CelloLikeWorkload
from repro.workloads.synthetic import (
    RandomWorkload,
    SequentialWorkload,
    UniformFixedWorkload,
)
from repro.workloads.tpcc import TPCCLikeWorkload
from tests.workloads import stream_reference as reference

CAPACITY = 500_000
COUNT = 400


class TestGeneratorBatchIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("rate", [300.0, 1500.0])
    def test_random_workload(self, seed, rate):
        workload = RandomWorkload(CAPACITY, rate=rate, seed=seed)
        assert workload.generate(COUNT).to_requests() == (
            reference.random_requests(workload, COUNT)
        )

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("read_fraction", [0.0, 0.67, 1.0])
    def test_random_workload_mix(self, seed, read_fraction):
        workload = RandomWorkload(
            CAPACITY,
            rate=800.0,
            read_fraction=read_fraction,
            mean_size_sectors=16.0,
            seed=seed,
        )
        assert workload.generate(COUNT).to_requests() == (
            reference.random_requests(workload, COUNT)
        )

    def test_random_workload_matches_scalar_reference(self):
        # The reference is the executable spec: one scalar RNG draw per
        # column per request.  The whole-array path must replay it, down
        # to the sizes the truncation bound clips.
        workload = RandomWorkload(
            CAPACITY, rate=600.0, mean_size_sectors=64.0,
            max_size_sectors=96, seed=42,
        )
        batch = workload.generate(COUNT)
        assert batch.to_requests() == reference.random_requests(workload, COUNT)
        assert int(batch.sectors.max()) == 96

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("pool", [None, [0, 512, 1024, 65536]])
    def test_uniform_fixed_workload(self, seed, pool):
        workload = UniformFixedWorkload(
            CAPACITY, sectors=8, read_fraction=0.5, lbn_pool=pool, seed=seed
        )
        assert workload.generate(COUNT).to_requests() == (
            reference.uniform_fixed_requests(workload, COUNT)
        )

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("extent", [4096, 100_000])
    def test_sequential_workload(self, seed, extent):
        workload = SequentialWorkload(
            CAPACITY,
            rate=400.0,
            request_sectors=64,
            start_lbn=1000,
            extent_sectors=extent,
            seed=seed,
        )
        batch = workload.generate(COUNT)
        expected = reference.sequential_requests(workload, COUNT)
        if seed is None:
            # Unseeded streams differ per call; compare structure only.
            assert batch.lbn.tolist() == [r.lbn for r in expected]
        else:
            assert batch.to_requests() == expected

    @pytest.mark.parametrize("seed", [1, 8])
    @pytest.mark.parametrize("footprint", [0.25, 0.5])
    def test_cello_like(self, seed, footprint):
        workload = CelloLikeWorkload(
            CAPACITY, footprint_fraction=footprint, seed=seed
        )
        assert workload.generate(COUNT).to_requests() == (
            reference.cello_requests(workload, COUNT)
        )

    @pytest.mark.parametrize("seed", [1, 8])
    def test_tpcc_like(self, seed):
        workload = TPCCLikeWorkload(CAPACITY, seed=seed)
        batch = workload.generate(COUNT)
        assert batch.to_requests() == reference.tpcc_requests(workload, COUNT)
        # Transactions overlap, so arrival order is not id order: the
        # sort is exercised, not a no-op.
        assert batch.rid.tolist() != list(range(COUNT))


HETEROGENEOUS = (300_000, 100_000, 500_000, 200_000)


def reference_route(name, requests, capacities, chunk_sectors=256):
    """Each policy's assignment, one request at a time in plain Python.

    Returns the member list and, for the greedy policy, the final loads.
    """
    members = len(capacities)
    if name == "lbn-range":
        starts = [sum(capacities[:index]) for index in range(members)]
        return [bisect.bisect_right(starts, r.lbn) - 1 for r in requests], None
    if name == "hash":
        return [
            mix64(r.lbn // chunk_sectors) % members for r in requests
        ], None
    if name == "round-robin":
        return [r.request_id % members for r in requests], None
    load = [0] * members
    assigned = []
    for request in requests:
        member = load.index(min(load))
        load[member] += request.sectors
        assigned.append(member)
    return assigned, load


def reference_member_lbn(name, lbn, member, capacities):
    """The policy's localization of one fleet-wide LBN."""
    if name == "lbn-range":
        return lbn - sum(capacities[:member])
    return lbn % capacities[member]


ROUTER_NAMES = ["lbn-range", "hash", "round-robin", "least-loaded-static"]


class TestRouterArrayIdentity:
    """All four policies: array routing == the scalar reference, per row."""

    @pytest.fixture()
    def batch(self):
        fleet_capacity = sum(HETEROGENEOUS)
        return RandomWorkload(
            fleet_capacity, rate=1000.0, seed=11
        ).generate(COUNT)

    @pytest.mark.parametrize("name", ROUTER_NAMES)
    def test_route_array_matches_scalar(self, name, batch):
        np = get_numpy()
        router = ROUTERS.create(name, HETEROGENEOUS)
        expected, load = reference_route(
            name, batch.to_requests(), HETEROGENEOUS
        )
        array = router.route_array(batch)
        assert array.dtype == np.int64
        assert array.tolist() == expected
        # Stateful policies must leave the reference's state behind.
        if load is not None:
            assert router._load == load

    @pytest.mark.parametrize("name", ROUTER_NAMES)
    def test_member_lbn_array_matches_scalar(self, name, batch):
        router = ROUTERS.create(name, HETEROGENEOUS)
        members = router.route_array(batch)
        local = router.member_lbn_array(batch.lbn, members)
        assert local.tolist() == [
            reference_member_lbn(name, lbn, member, HETEROGENEOUS)
            for lbn, member in zip(batch.lbn.tolist(), members.tolist())
        ]

    def test_hash_router_chunk_parameter(self, batch):
        for chunk in (1, 256, 4096):
            router = ROUTERS.create("hash", HETEROGENEOUS, chunk_sectors=chunk)
            expected, _ = reference_route(
                "hash", batch.to_requests(), HETEROGENEOUS, chunk
            )
            assert router.route_array(batch).tolist() == expected


class TestBatchRoundTrip:
    def test_from_requests_round_trip(self):
        workload = RandomWorkload(CAPACITY, rate=500.0, seed=5)
        requests = reference.random_requests(workload, COUNT)
        batch = RequestBatch.from_requests(requests)
        assert batch.to_requests() == requests
