"""Synthetic Cello-like trace generator.

The paper's *Cello* trace (§4.3) captures a week of disk activity from an
HP-UX server used for "program development, simulation, mail, and news"; it
is described in Ruemmler & Wilkes's "UNIX disk access patterns" [RW93].  The
trace itself is proprietary, so this generator synthesizes a workload with
the published first-order characteristics:

* **bursty arrivals** — I/O comes in bursts (Poisson cluster process):
  burst onsets are Poisson, burst lengths geometric, intra-burst gaps a few
  milliseconds;
* **write-heavy mix** — [RW93] reports most Cello disk traffic is writes
  (metadata updates and the news feed); we default to 57 % writes;
* **small requests** — predominantly one filesystem block (4 or 8 KB) with
  occasional larger transfers;
* **skewed spatial locality** — a small metadata/log region absorbs a large
  share of accesses, the rest spreads over a modest footprint with
  sequential runs inside bursts.

The paper's observation to reproduce (Fig. 7a) is that scheduler rankings on
Cello look much like the random workload; a general file-server mix with
these properties behaves exactly that way.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.sim.request import IOKind, Request
from repro.workloads.traces import Trace

_BLOCK_SECTORS = 8  # one 4 KB filesystem block


class CelloLikeWorkload:
    """Generator for a Cello-flavoured file-server trace.

    Args:
        capacity_sectors: Target device capacity.  The traced system's disks
            were ~1–2 GB, so the workload footprint covers only
            ``footprint_fraction`` of a modern device (footnote 2 of the
            paper makes the same observation about reduced seek spans).
        burst_rate: Mean burst onsets per second at trace scale 1.
        mean_burst_length: Mean requests per burst (geometric).
        write_fraction: Fraction of requests that are writes.
        hot_fraction: Fraction of accesses hitting the metadata/log region.
        footprint_fraction: Fraction of the device the trace touches.
        seed: RNG seed.
        scale: Trace scale factor (paper footnote 2): the scale-1 stream
            is generated, then :meth:`Trace.scale_arrivals` divides its
            inter-arrival times by ``scale``.
    """

    def __init__(
        self,
        capacity_sectors: int,
        burst_rate: float = 10.0,
        mean_burst_length: float = 4.0,
        write_fraction: float = 0.57,
        hot_fraction: float = 0.4,
        footprint_fraction: float = 0.35,
        seed: Optional[int] = None,
        scale: float = 1.0,
    ) -> None:
        if capacity_sectors < 1024:
            raise ValueError(f"device too small: {capacity_sectors}")
        if burst_rate <= 0 or mean_burst_length < 1:
            raise ValueError("burst parameters must be positive")
        if not 0 <= write_fraction <= 1 or not 0 <= hot_fraction <= 1:
            raise ValueError("fractions must lie in [0, 1]")
        if not 0 < footprint_fraction <= 1:
            raise ValueError(f"bad footprint fraction: {footprint_fraction}")
        if not scale > 0:
            raise ValueError(f"non-positive scale factor: {scale}")
        self.capacity_sectors = capacity_sectors
        self.burst_rate = burst_rate
        self.mean_burst_length = mean_burst_length
        self.write_fraction = write_fraction
        self.hot_fraction = hot_fraction
        self.footprint = max(1024, int(capacity_sectors * footprint_fraction))
        self.seed = seed
        self.scale = scale
        # Metadata/log region: the first 2 % of the footprint.
        self.hot_region_sectors = max(256, self.footprint // 50)

    def generate(self, count: int) -> Trace:
        """Produce a trace of ``count`` requests."""
        if count < 0:
            raise ValueError(f"negative request count: {count}")
        rng = random.Random(self.seed)
        requests: List[Request] = []
        clock = 0.0
        sequential_lbn = None
        while len(requests) < count:
            clock += rng.expovariate(self.burst_rate)
            burst_len = min(
                count - len(requests),
                1 + _geometric(rng, self.mean_burst_length),
            )
            burst_time = clock
            # Each burst is either metadata-ish (hot region, random blocks)
            # or a user-data run (sequential blocks in the cold region).
            hot_burst = rng.random() < self.hot_fraction
            if not hot_burst:
                run_blocks = self.footprint // _BLOCK_SECTORS
                sequential_lbn = (
                    self.hot_region_sectors
                    + rng.randrange(run_blocks) * _BLOCK_SECTORS
                ) % (self.footprint - _BLOCK_SECTORS)
            for _ in range(burst_len):
                burst_time += rng.expovariate(1.0 / 0.003)
                is_write = rng.random() < self.write_fraction
                if hot_burst:
                    blocks = self.hot_region_sectors // _BLOCK_SECTORS
                    lbn = rng.randrange(blocks) * _BLOCK_SECTORS
                    sectors = _BLOCK_SECTORS
                else:
                    lbn = sequential_lbn
                    sectors = _BLOCK_SECTORS * rng.choice((1, 1, 1, 2))
                    sequential_lbn = (lbn + sectors) % (
                        self.footprint - 16 * _BLOCK_SECTORS
                    )
                lbn = min(lbn, self.capacity_sectors - sectors)
                requests.append(
                    Request(
                        arrival_time=burst_time,
                        lbn=lbn,
                        sectors=sectors,
                        kind=IOKind.WRITE if is_write else IOKind.READ,
                        request_id=len(requests),
                    )
                )
            clock = burst_time
        requests.sort(key=lambda r: (r.arrival_time, r.request_id))
        trace = Trace(name="cello-like", requests=requests[:count])
        return trace if self.scale == 1.0 else trace.scale_arrivals(self.scale)

    def generate_batch(self, count: int):
        """Columnar view of :meth:`generate`.

        Burst onsets, lengths, and intra-burst sequential runs form a
        sequential dependency chain, so this generator is not vectorized;
        the batch is columnarized from the scalar stream and therefore
        trivially identical to it.
        """
        from repro.sim.batch import RequestBatch

        return RequestBatch.from_requests(self.generate(count).requests)


def _geometric(rng: random.Random, mean: float) -> int:
    """Geometric variate (support 0, 1, 2, …) with the given mean."""
    if mean <= 0:
        return 0
    p = 1.0 / (1.0 + mean)
    value = 0
    while rng.random() > p:
        value += 1
        if value > 10_000:  # pragma: no cover - guards pathological p
            break
    return value
