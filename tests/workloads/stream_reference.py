"""Scalar reference streams: every workload generator, one request at a time.

Each function here is the executable specification of one generator's
``generate(count)``: it draws from the same RNG streams in the same order,
one value per request, and builds validated ``Request`` objects.  The
production generators build the same stream as numpy columns (a
``RequestBatch``); ``test_batch_identity.py`` holds the two equal bit for
bit, and ``benchmarks/bench_hotpath.py`` times the random one as the
scalar leg of its ``workload_gen`` row.

* The synthetic generators draw from per-column ``Generator`` streams
  (``spawn_column_rngs``), so one draw per request per column consumes
  the same bits as one whole-array draw per column.
* The Cello-like and TPC-C-like generators are sequential by nature; their
  references build ``Request`` objects, sort them with Python's sort on
  ``(arrival_time, request_id)`` and divide each arrival by the trace
  scale, where the generators fill column lists, ``lexsort`` and divide
  the float64 column.
"""

from __future__ import annotations

import random
from typing import List

from repro.nputil import get_numpy
from repro.sim.request import IOKind, Request
from repro.workloads.cello import _BLOCK_SECTORS, _geometric
from repro.workloads.synthetic import spawn_column_rngs
from repro.workloads.tpcc import _PAGE_SECTORS


def uniform_index(u: float, n: int) -> int:
    """Map one uniform [0,1) draw to an index in [0, n).

    ``floor(u * n)`` with an explicit top clamp: for very large ``n`` the
    product can round up to ``n`` exactly (u is a 53-bit float), and the
    clamp matches the array path's ``np.minimum`` instead of relying on the
    rounding never landing there.
    """
    index = int(u * n)
    return n - 1 if index >= n else index


def random_requests(workload, count: int) -> List[Request]:
    """``RandomWorkload``: one scalar draw per column per request."""
    np = get_numpy()
    arrival_rng, size_rng, lbn_rng, kind_rng = spawn_column_rngs(
        workload.seed, workload._COLUMNS
    )
    requests = []
    clock = 0.0
    for request_id in range(count):
        clock += arrival_rng.standard_exponential() / workload.rate
        size = int(
            np.rint(size_rng.standard_exponential() * workload.mean_size_sectors)
        )
        size = min(max(size, 1), workload.max_size_sectors)
        span = workload.capacity_sectors - size + 1
        lbn = uniform_index(lbn_rng.random(), span)
        kind = (
            IOKind.READ
            if kind_rng.random() < workload.read_fraction
            else IOKind.WRITE
        )
        requests.append(Request(clock, lbn, size, kind, request_id))
    return requests


def uniform_fixed_requests(workload, count: int) -> List[Request]:
    """``UniformFixedWorkload``: every request arrives at time zero."""
    lbn_rng, kind_rng = spawn_column_rngs(workload.seed, workload._COLUMNS)
    requests = []
    for request_id in range(count):
        if workload.lbn_pool is not None:
            pool = workload.lbn_pool
            lbn = pool[uniform_index(lbn_rng.random(), len(pool))]
        else:
            lbn = uniform_index(
                lbn_rng.random(),
                workload.capacity_sectors - workload.sectors + 1,
            )
        kind = (
            IOKind.READ
            if kind_rng.random() < workload.read_fraction
            else IOKind.WRITE
        )
        requests.append(Request(0.0, lbn, workload.sectors, kind, request_id))
    return requests


def sequential_requests(workload, count: int) -> List[Request]:
    """``SequentialWorkload``: the offset restarts when a request would
    overrun the extent."""
    (arrival_rng,) = spawn_column_rngs(workload.seed, workload._COLUMNS)
    requests = []
    clock = 0.0
    offset = 0
    for request_id in range(count):
        clock += arrival_rng.standard_exponential() / workload.rate
        if offset + workload.request_sectors > workload.extent_sectors:
            offset = 0
        requests.append(
            Request(
                clock,
                workload.start_lbn + offset,
                workload.request_sectors,
                workload.kind,
                request_id,
            )
        )
        offset += workload.request_sectors
    return requests


def _arrival_order(requests: List[Request], scale: float) -> List[Request]:
    """Sort by ``(arrival_time, request_id)``, then divide every arrival
    time by the trace scale (footnote 2), one Python float at a time."""
    requests.sort(key=lambda r: (r.arrival_time, r.request_id))
    return [r._replace(arrival_time=r.arrival_time / scale) for r in requests]


def cello_requests(workload, count: int) -> List[Request]:
    """``CelloLikeWorkload``: bursts of hot-region blocks or sequential
    runs."""
    rng = random.Random(workload.seed)
    requests: List[Request] = []
    clock = 0.0
    sequential_lbn = None
    while len(requests) < count:
        clock += rng.expovariate(workload.burst_rate)
        burst_len = min(
            count - len(requests),
            1 + _geometric(rng, workload.mean_burst_length),
        )
        burst_time = clock
        hot_burst = rng.random() < workload.hot_fraction
        if not hot_burst:
            run_blocks = workload.footprint // _BLOCK_SECTORS
            sequential_lbn = (
                workload.hot_region_sectors
                + rng.randrange(run_blocks) * _BLOCK_SECTORS
            ) % (workload.footprint - _BLOCK_SECTORS)
        for _ in range(burst_len):
            burst_time += rng.expovariate(1.0 / 0.003)
            is_write = rng.random() < workload.write_fraction
            if hot_burst:
                blocks = workload.hot_region_sectors // _BLOCK_SECTORS
                lbn = rng.randrange(blocks) * _BLOCK_SECTORS
                sectors = _BLOCK_SECTORS
            else:
                lbn = sequential_lbn
                sectors = _BLOCK_SECTORS * rng.choice((1, 1, 1, 2))
                sequential_lbn = (lbn + sectors) % (
                    workload.footprint - 16 * _BLOCK_SECTORS
                )
            requests.append(
                Request(
                    burst_time,
                    min(lbn, workload.capacity_sectors - sectors),
                    sectors,
                    IOKind.WRITE if is_write else IOKind.READ,
                    len(requests),
                )
            )
        clock = burst_time
    return _arrival_order(requests, workload.scale)


def tpcc_requests(workload, count: int) -> List[Request]:
    """``TPCCLikeWorkload``: transactions of clustered page accesses."""
    rng = random.Random(workload.seed)
    pages = workload.database_sectors // _PAGE_SECTORS
    centers = [rng.randrange(pages) for _ in range(workload.hot_clusters)]
    requests: List[Request] = []
    clock = 0.0
    while len(requests) < count:
        clock += rng.expovariate(workload.transaction_rate)
        n_pages = min(
            count - len(requests),
            max(1, round(rng.expovariate(1.0 / workload.pages_per_transaction))),
        )
        access_time = clock
        cluster = rng.choice(centers)
        for _ in range(n_pages):
            access_time += rng.expovariate(1.0 / 1e-4)
            if rng.random() < 0.8:
                page = max(0, min(pages - 1, cluster + rng.randint(-16, 16)))
            else:
                page = rng.randrange(pages)
            lbn = min(
                page * _PAGE_SECTORS, workload.capacity_sectors - _PAGE_SECTORS
            )
            is_write = rng.random() < workload.write_fraction
            requests.append(
                Request(
                    access_time,
                    lbn,
                    _PAGE_SECTORS,
                    IOKind.WRITE if is_write else IOKind.READ,
                    len(requests),
                )
            )
    return _arrival_order(requests, workload.scale)
