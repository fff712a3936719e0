"""The paper's *random* workload (§3), and its fixed-size and sequential kin.

"Request interarrival times are drawn from an exponential distribution; the
mean is generally varied to provide a range of workloads.  All other aspects
of requests are independent: 67% are reads, 33% are writes, the request size
distribution is exponential with a mean of 4 KB, and request starting
locations are uniformly distributed across the device's capacity."

Every generator here draws from *per-column* ``numpy.random.Generator``
streams spawned from one ``SeedSequence(seed)``: column k (interarrivals,
sizes, locations, directions — in that fixed order) owns child stream k.
Because each column consumes its own bit stream, drawing whole arrays (each
generator's ``generate``, which returns a
:class:`~repro.sim.batch.RequestBatch`) and drawing one value per request
produce *bit-identical* request streams: ``tests/workloads/
stream_reference.py`` keeps the one-draw-per-request loops as the
executable specification, and ``tests/workloads/test_batch_identity.py``
holds every ``generate`` to them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nputil import get_numpy
from repro.sim.batch import RequestBatch
from repro.sim.request import IOKind


def spawn_column_rngs(seed: Optional[int], columns: int):
    """Per-column RNG streams for a workload generator.

    One ``SeedSequence(seed)`` spawns ``columns`` independent child
    streams; scalar and vectorized drawing from the same column then
    consume identical bit streams in identical order, which is what makes
    a generator's whole-array stream equal its one-draw-per-request
    reference exactly rather than statistically.  ``seed=None`` draws
    fresh OS entropy (a deliberately non-deterministic generator),
    matching ``random.Random(None)``.
    """
    np = get_numpy()
    children = np.random.SeedSequence(seed).spawn(columns)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


class RandomWorkload:
    """Open Poisson-arrival random workload generator.

    Args:
        capacity_sectors: Device capacity; starting LBNs are uniform over it.
        rate: Mean arrival rate in requests/second.
        read_fraction: Probability a request is a read (paper: 0.67).
        mean_size_sectors: Mean of the exponential size distribution
            (paper: 4 KB = 8 sectors); sizes are rounded to ≥ 1 sector.
        max_size_sectors: Truncation bound for the size distribution, so a
            single request cannot exceed the device (default 2048 sectors =
            1 MB, far into the exponential tail).
        seed: RNG seed; every generator in this package is deterministic
            given its seed.
    """

    _COLUMNS = 4  # interarrival, size, location, direction

    def __init__(
        self,
        capacity_sectors: int,
        rate: float,
        read_fraction: float = 0.67,
        mean_size_sectors: float = 8.0,
        max_size_sectors: int = 2048,
        seed: Optional[int] = None,
    ) -> None:
        if capacity_sectors < 1:
            raise ValueError(f"empty device: {capacity_sectors}")
        if not rate > 0:  # NaN included
            raise ValueError(f"arrival rate must be > 0, got {rate}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read fraction out of [0,1]: {read_fraction}")
        if not mean_size_sectors > 0:
            raise ValueError(f"mean size must be > 0, got {mean_size_sectors}")
        if max_size_sectors < 1 or max_size_sectors > capacity_sectors:
            raise ValueError(f"bad size bound: {max_size_sectors}")
        self.capacity_sectors = capacity_sectors
        self.rate = rate
        self.read_fraction = read_fraction
        self.mean_size_sectors = mean_size_sectors
        self.max_size_sectors = max_size_sectors
        self.seed = seed

    def generate(self, count: int) -> RequestBatch:
        """Synthesize ``count`` requests in arrival order, whole-array ops
        only."""
        if count < 0:
            raise ValueError(f"negative request count: {count}")
        np = get_numpy()
        arrival_rng, size_rng, lbn_rng, kind_rng = spawn_column_rngs(
            self.seed, self._COLUMNS
        )
        arrival = np.cumsum(arrival_rng.standard_exponential(count) / self.rate)
        sectors = np.rint(
            size_rng.standard_exponential(count) * self.mean_size_sectors
        ).astype(np.int64)
        np.clip(sectors, 1, self.max_size_sectors, out=sectors)
        span = self.capacity_sectors - sectors + 1
        lbn = (lbn_rng.random(count) * span).astype(np.int64)
        np.minimum(lbn, span - 1, out=lbn)
        is_write = kind_rng.random(count) >= self.read_fraction
        return RequestBatch(
            arrival=arrival,
            lbn=lbn,
            sectors=sectors,
            is_write=is_write,
            rid=np.arange(count, dtype=np.int64),
        )


class UniformFixedWorkload:
    """Back-to-back fixed-size random requests (used by Figs. 9–11).

    All requests arrive at time zero, so a FCFS simulation measures pure
    device service time with no queueing effects; starting LBNs are drawn
    uniformly from ``lbn_pool`` (or the whole device).
    """

    _COLUMNS = 2  # location, direction

    def __init__(
        self,
        capacity_sectors: int,
        sectors: int,
        read_fraction: float = 1.0,
        lbn_pool: Optional[List[int]] = None,
        seed: Optional[int] = None,
    ) -> None:
        if sectors < 1:
            raise ValueError(f"non-positive request size: {sectors}")
        if lbn_pool is not None and not lbn_pool:
            raise ValueError("empty LBN pool")
        self.capacity_sectors = capacity_sectors
        self.sectors = sectors
        self.read_fraction = read_fraction
        self.lbn_pool = lbn_pool
        self.seed = seed

    def generate(self, count: int) -> RequestBatch:
        """Draw ``count`` requests, all arriving at time zero."""
        if count < 0:
            raise ValueError(f"negative request count: {count}")
        np = get_numpy()
        lbn_rng, kind_rng = spawn_column_rngs(self.seed, self._COLUMNS)
        if self.lbn_pool is not None:
            pool = np.asarray(self.lbn_pool, dtype=np.int64)
            index = (lbn_rng.random(count) * len(pool)).astype(np.int64)
            np.minimum(index, len(pool) - 1, out=index)
            lbn = pool[index]
        else:
            span = self.capacity_sectors - self.sectors + 1
            lbn = (lbn_rng.random(count) * span).astype(np.int64)
            np.minimum(lbn, span - 1, out=lbn)
        is_write = kind_rng.random(count) >= self.read_fraction
        return RequestBatch(
            arrival=np.zeros(count, dtype=np.float64),
            lbn=lbn,
            sectors=np.full(count, self.sectors, dtype=np.int64),
            is_write=is_write,
            rid=np.arange(count, dtype=np.int64),
        )


class SequentialWorkload:
    """Open-arrival sequential stream (the §5.2 'large, sequential
    transfers' pattern and §2.4.11's prefetch target).

    Requests of fixed size march through a contiguous extent in LBN order
    at a Poisson arrival rate; when the extent ends the stream wraps to
    its start.
    """

    _COLUMNS = 1  # interarrival

    def __init__(
        self,
        capacity_sectors: int,
        rate: float,
        request_sectors: int = 64,
        start_lbn: int = 0,
        extent_sectors: Optional[int] = None,
        kind: IOKind = IOKind.READ,
        seed: Optional[int] = None,
    ) -> None:
        if capacity_sectors < 1:
            raise ValueError(f"empty device: {capacity_sectors}")
        if not rate > 0:  # NaN included
            raise ValueError(f"arrival rate must be > 0, got {rate}")
        if request_sectors < 1:
            raise ValueError(f"non-positive request size: {request_sectors}")
        extent = (
            extent_sectors
            if extent_sectors is not None
            else capacity_sectors - start_lbn
        )
        if start_lbn < 0 or start_lbn + extent > capacity_sectors:
            raise ValueError("extent exceeds the device")
        if extent < request_sectors:
            raise ValueError("extent smaller than one request")
        self.capacity_sectors = capacity_sectors
        self.rate = rate
        self.request_sectors = request_sectors
        self.start_lbn = start_lbn
        self.extent_sectors = extent
        self.kind = kind
        self.seed = seed

    def generate(self, count: int) -> RequestBatch:
        """Produce ``count`` requests marching through the extent."""
        if count < 0:
            raise ValueError(f"negative request count: {count}")
        np = get_numpy()
        (arrival_rng,) = spawn_column_rngs(self.seed, self._COLUMNS)
        arrival = np.cumsum(arrival_rng.standard_exponential(count) / self.rate)
        # The stream restarts at the extent's start whenever the next
        # request would overrun it, so offsets cycle with period
        # ``extent // request_sectors``.
        period = self.extent_sectors // self.request_sectors
        lbn = self.start_lbn + (
            np.arange(count, dtype=np.int64) % period
        ) * self.request_sectors
        return RequestBatch(
            arrival=arrival,
            lbn=lbn,
            sectors=np.full(count, self.request_sectors, dtype=np.int64),
            is_write=np.full(
                count, not self.kind.is_read, dtype=np.bool_
            ),
            rid=np.arange(count, dtype=np.int64),
        )
