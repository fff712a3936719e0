"""Synthetic TPC-C-like trace generator.

The paper's *TPC-C* trace (§4.3) comes from a Microsoft SQL Server TPC-C
testbed with a 1 GB database striped over two disks; its characteristics are
described in [RFGN00].  The trace is unavailable, so this generator
synthesizes an OLTP workload with the properties the paper's analysis
depends on:

* **small, page-sized I/Os** — SQL Server reads and writes 8 KB pages
  (16 sectors);
* **modest footprint** — ~1 GB database slice, so inter-request distances
  are small relative to the device;
* **high concurrency** — many transactions outstanding at once: arrivals
  come in near-simultaneous groups (a transaction touches several pages
  back-to-back);
* **clustered page access** — B-tree pages and hot tables make concurrently
  pending requests land *very close together in LBN space*.

The last property is the one driving Fig. 7(b): "the scaled-up version of
the workload includes many concurrently-pending requests with very small
inter-LBN distances.  LBN-based schemes do not have enough information to
choose between such requests, often causing small (but expensive)
X-dimension seeks.  SPTF addresses this problem."  Pages adjacent in LBN
space sit in the same MEMS cylinder only if they share its 2700-sector
span; neighbours one page apart frequently straddle cylinders, so an
LBN-greedy pick is often mechanically wrong.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.sim.request import IOKind, Request
from repro.workloads.traces import Trace

_PAGE_SECTORS = 16  # one 8 KB database page


class TPCCLikeWorkload:
    """Generator for a TPC-C-flavoured OLTP trace.

    Args:
        capacity_sectors: Target device capacity.
        transaction_rate: Mean transactions per second at trace scale 1.
        pages_per_transaction: Mean pages touched per transaction.
        write_fraction: Fraction of page accesses that are writes (data page
            updates plus log); TPC-C mixes reads and writes roughly evenly.
        database_sectors: Footprint of the database slice on this device
            (default 1 GB worth of sectors, the paper's database size).
        hot_clusters: Number of hot page clusters (B-tree roots, hot
            tables); concurrent transactions collide on these, creating the
            close-LBN pending sets.
        seed: RNG seed.
        scale: Trace scale factor (paper footnote 2): the scale-1 stream
            is generated, then :meth:`Trace.scale_arrivals` divides its
            inter-arrival times by ``scale``.
    """

    def __init__(
        self,
        capacity_sectors: int,
        transaction_rate: float = 40.0,
        pages_per_transaction: float = 6.0,
        write_fraction: float = 0.45,
        database_sectors: int = 2_000_000,
        hot_clusters: int = 64,
        seed: Optional[int] = None,
        scale: float = 1.0,
    ) -> None:
        if capacity_sectors < 4096:
            raise ValueError(f"device too small: {capacity_sectors}")
        if transaction_rate <= 0 or pages_per_transaction < 1:
            raise ValueError("transaction parameters must be positive")
        if not 0 <= write_fraction <= 1:
            raise ValueError(f"bad write fraction: {write_fraction}")
        if hot_clusters < 1:
            raise ValueError(f"need at least one cluster: {hot_clusters}")
        if not scale > 0:
            raise ValueError(f"non-positive scale factor: {scale}")
        self.capacity_sectors = capacity_sectors
        self.transaction_rate = transaction_rate
        self.pages_per_transaction = pages_per_transaction
        self.write_fraction = write_fraction
        self.database_sectors = min(database_sectors, capacity_sectors)
        self.hot_clusters = hot_clusters
        self.seed = seed
        self.scale = scale

    def generate(self, count: int) -> Trace:
        """Produce a trace of ``count`` page accesses."""
        if count < 0:
            raise ValueError(f"negative request count: {count}")
        rng = random.Random(self.seed)
        pages = self.database_sectors // _PAGE_SECTORS
        cluster_centers = [rng.randrange(pages) for _ in range(self.hot_clusters)]
        requests: List[Request] = []
        clock = 0.0
        while len(requests) < count:
            clock += rng.expovariate(self.transaction_rate)
            n_pages = min(
                count - len(requests),
                max(1, round(rng.expovariate(1.0 / self.pages_per_transaction))),
            )
            access_time = clock
            # Each transaction works one hot cluster (a B-tree path and its
            # neighbourhood), so its back-to-back page accesses land within
            # a few pages of each other — the close-LBN pending sets that
            # defeat LBN-based scheduling in Fig. 7(b).
            transaction_cluster = rng.choice(cluster_centers)
            for _ in range(n_pages):
                # Pages of one transaction issue back-to-back (~100 µs CPU
                # between them), so several stay pending simultaneously.
                access_time += rng.expovariate(1.0 / 1e-4)
                if rng.random() < 0.8:
                    page = transaction_cluster + rng.randint(-16, 16)
                    page = max(0, min(pages - 1, page))
                else:
                    page = rng.randrange(pages)
                lbn = page * _PAGE_SECTORS
                lbn = min(lbn, self.capacity_sectors - _PAGE_SECTORS)
                is_write = rng.random() < self.write_fraction
                requests.append(
                    Request(
                        arrival_time=access_time,
                        lbn=lbn,
                        sectors=_PAGE_SECTORS,
                        kind=IOKind.WRITE if is_write else IOKind.READ,
                        request_id=len(requests),
                    )
                )
        requests.sort(key=lambda r: (r.arrival_time, r.request_id))
        trace = Trace(name="tpcc-like", requests=requests[:count])
        return trace if self.scale == 1.0 else trace.scale_arrivals(self.scale)

    def generate_batch(self, count: int):
        """Columnar view of :meth:`generate`.

        Transaction grouping and cluster choice form a sequential
        dependency chain, so this generator is not vectorized; the batch is
        columnarized from the scalar stream and therefore trivially
        identical to it.
        """
        from repro.sim.batch import RequestBatch

        return RequestBatch.from_requests(self.generate(count).requests)
