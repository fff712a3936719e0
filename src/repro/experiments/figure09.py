"""Figure 9: request service time inside media subregions (§5.1).

The tip-addressable media area is divided into 25 subregions, each 400×400
bits, centered at ⟨x, y⟩ ∈ {−800, −400, 0, 400, 800}² (bit offsets from the
sled's centered position).  For each subregion we issue thousands of 4 KB
reads that start *and* end inside it and report the average service time —
once with the default X settle time and once with zero settle (the paper's
italic numbers).

Observation to reproduce: because spring restoring forces grow with sled
displacement, the outermost subregions are 10–20 % slower than the
centermost one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.formatting import format_grid
from repro.mems import MEMSDevice, MEMSGeometry, MEMSParameters, SectorAddress
from repro.sim import IOKind, Request

SUBREGION_CENTERS_BITS = (-800, -400, 0, 400, 800)
SUBREGION_HALF_WIDTH_BITS = 200


@dataclass
class Figure9Result:
    """Average service time (seconds) per subregion, keyed by bit-offset
    center, for the with-settle and no-settle devices."""

    with_settle: Dict[Tuple[int, int], float]
    without_settle: Dict[Tuple[int, int], float]

    def grid(self) -> str:
        rows: List[List[str]] = []
        for y in reversed(SUBREGION_CENTERS_BITS):
            row = []
            for x in SUBREGION_CENTERS_BITS:
                settled = self.with_settle[(x, y)] * 1e3
                unsettled = self.without_settle[(x, y)] * 1e3
                row.append(f"{settled:.3f}/{unsettled:.3f}")
            rows.append(row)
        return format_grid(
            rows,
            title=(
                "Figure 9: avg service time (ms) per 400x400-bit subregion\n"
                "(with settle / zero settle); x increases rightward, "
                "y upward"
            ),
        )

    def edge_to_center_ratio(self, settled: bool = True) -> float:
        """Corner-subregion vs center-subregion average service time."""
        table = self.with_settle if settled else self.without_settle
        corners = [
            table[(x, y)] for x in (-800, 800) for y in (-800, 800)
        ]
        return (sum(corners) / len(corners)) / table[(0, 0)]


def subregion_lbn_pool(
    geometry: MEMSGeometry,
    center_x_bits: int,
    center_y_bits: int,
    request_sectors: int = 8,
    half_width_bits: int = SUBREGION_HALF_WIDTH_BITS,
) -> List[int]:
    """Aligned request-start LBNs whose access stays inside the subregion.

    A start qualifies when its cylinder's bit offset and its row's full bit
    span lie within the 400×400-bit window, and the request fits in one
    tip-sector row (4 KB = 8 of the 20 sectors in a row).
    """
    params = geometry.params
    half_cyls = (geometry.num_cylinders - 1) / 2.0
    cyl_lo = center_x_bits - half_width_bits + half_cyls
    cyl_hi = center_x_bits + half_width_bits + half_cyls
    cylinders = [
        c
        for c in range(geometry.num_cylinders)
        if cyl_lo <= c < cyl_hi
    ]

    half_bits = params.bits_per_tip_region_y / 2.0
    guard = (
        params.bits_per_tip_region_y
        - geometry.rows_per_track * params.tip_sector_bits
    ) / 2.0
    rows = []
    for row in range(geometry.rows_per_track):
        low = guard + row * params.tip_sector_bits - half_bits
        high = low + params.tip_sector_bits
        if low >= center_y_bits - half_width_bits and high <= (
            center_y_bits + half_width_bits
        ):
            rows.append(row)
    if not cylinders or not rows:
        raise ValueError(
            f"subregion ({center_x_bits}, {center_y_bits}) holds no "
            "complete rows"
        )

    max_slot = geometry.sectors_per_row - request_sectors
    lbns = []
    for cylinder in cylinders:
        for track in range(geometry.tracks_per_cylinder):
            for row in rows:
                for slot in range(0, max_slot + 1, request_sectors):
                    lbns.append(
                        geometry.lbn(SectorAddress(cylinder, track, row, slot))
                    )
    return lbns


def _measure_subregion(
    params: MEMSParameters,
    center: Tuple[int, int],
    num_requests: int,
    seed: int,
) -> float:
    device = MEMSDevice(params)
    pool = subregion_lbn_pool(device.geometry, center[0], center[1])
    rng = random.Random(seed)
    # Seed the sled inside the subregion, then discard that first access.
    device.service(Request(0.0, rng.choice(pool), 8, IOKind.READ))
    total = 0.0
    for index in range(num_requests):
        lbn = rng.choice(pool)
        total += device.service(Request(0.0, lbn, 8, IOKind.READ, index)).total
    return total / num_requests


def run(num_requests: int = 10_000, seed: int = 42) -> Figure9Result:
    """Regenerate Figure 9's grid."""
    # One parameter set at a time: MEMS devices share model caches for the
    # set in use only, and every subregion runs on a fresh device anyway.
    with_settle, without_settle = (
        {
            (x, y): _measure_subregion(params, (x, y), num_requests, seed)
            for x in SUBREGION_CENTERS_BITS
            for y in SUBREGION_CENTERS_BITS
        }
        for params in (MEMSParameters(), MEMSParameters(settle_constants=0.0))
    )
    return Figure9Result(with_settle=with_settle, without_settle=without_settle)


def main() -> None:
    result = run()
    print(result.grid())
    print()
    print(
        f"corner/center service-time ratio: "
        f"{result.edge_to_center_ratio(True):.3f} with settle, "
        f"{result.edge_to_center_ratio(False):.3f} without "
        f"(paper: 1.10-1.20)"
    )


if __name__ == "__main__":
    main()
