"""Cross-generation study (extension; §8's forward look).

The paper closes by pointing at the design roadmap its group explored in
companion work.  This experiment re-runs the core microbenchmarks across
the G1/G2/G3 presets (G2 = the paper's Table 1 device), asking which of
the paper's conclusions are design-point-specific:

* capacity, streaming bandwidth, mean random 4 KB service;
* read-modify-write total (the §6.2 advantage);
* the SPTF-over-SSTF_LBN scheduling margin at a fixed utilization — the
  Fig. 8 sensitivity, revisited per generation (faster devices shrink seek
  times toward the constant settle, squeezing SPTF's edge).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.faults.rmw import rmw_breakdown
from repro.experiments.common import run_sim_config
from repro.experiments.formatting import format_table
from repro.mems import GENERATIONS, MEMSDevice
from repro.sim import IOKind, Request, SimConfig


@dataclass
class GenerationsResult:
    rows: List[Tuple[str, float, float, float, float, float]]
    """(name, capacity GB, stream MB/s, random ms, rmw ms, sptf margin)."""

    def table(self) -> str:
        formatted = [
            [
                name,
                f"{capacity:.2f}",
                f"{bandwidth:.1f}",
                f"{service * 1e3:.3f}",
                f"{rmw * 1e3:.3f}",
                f"{margin:.2f}x",
            ]
            for name, capacity, bandwidth, service, rmw, margin in self.rows
        ]
        return format_table(
            [
                "device",
                "capacity (GB)",
                "stream (MB/s)",
                "random 4KB (ms)",
                "RMW (ms)",
                "SPTF/SSTF margin",
            ],
            formatted,
            title="Cross-generation study (G2 = the paper's Table 1 device)",
        )

    def metric(self, name: str, index: int) -> float:
        for row in self.rows:
            if row[0] == name:
                return row[index]
        raise KeyError(name)


def _mean_random_service(params, num_requests: int, seed: int) -> float:
    device = MEMSDevice(params)
    rng = random.Random(seed)
    total = 0.0
    for index in range(num_requests):
        lbn = rng.randrange(0, device.capacity_sectors - 8)
        total += device.service(Request(0.0, lbn, 8, IOKind.READ, index)).total
    return total / num_requests


def _rmw_total(params) -> float:
    device = MEMSDevice(params)
    geometry = device.geometry
    mid_row = geometry.rows_per_track // 2
    lbn = geometry.sectors_per_track * 1000 + mid_row * geometry.sectors_per_row
    lbn = min(lbn, device.capacity_sectors - 16)
    return rmw_breakdown(device, lbn, 8).total


def _sptf_margin(
    params, mean_service: float, num_requests: int, seed: int
) -> float:
    """SSTF_LBN / SPTF mean response under heavy load.

    The arrival rate is set to 1.25× the unscheduled service rate — past
    FCFS saturation, where seek-aware scheduling carries the load and the
    Fig. 6/8 margins become visible."""
    base = SimConfig(
        device="mems",
        device_params=dataclasses.asdict(params),
        rate=1.25 / mean_service,
        num_requests=num_requests,
        seed=seed,
        warmup=num_requests // 10,
    )
    responses = {}
    for algorithm in ("SSTF_LBN", "SPTF"):
        result = run_sim_config(base.replace(scheduler=algorithm))
        if result is None:
            return float("nan")
        responses[algorithm] = result.mean_response_time
    return responses["SSTF_LBN"] / responses["SPTF"]


def run(num_requests: int = 1500, seed: int = 42) -> GenerationsResult:
    """Regenerate the cross-generation table."""
    rows = []
    for name, factory in GENERATIONS.items():
        params = factory()
        service = _mean_random_service(params, num_requests // 3, seed)
        rows.append(
            (
                name,
                params.capacity_bytes / 1e9,
                params.streaming_bandwidth / 1e6,
                service,
                _rmw_total(params),
                _sptf_margin(params, service, num_requests, seed),
            )
        )
    return GenerationsResult(rows=rows)


def main() -> None:
    result = run()
    print(result.table())
    print()
    print("Shape: every generation keeps the paper's qualitative story —")
    print("sub-millisecond random access, turnaround-priced RMW, and a")
    print("positive (settle-limited) SPTF margin.")


if __name__ == "__main__":
    main()
