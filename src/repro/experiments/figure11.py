"""Figure 11: layout-scheme comparison (§5.3).

Replays a bipartite read stream — 89 % small (4 KB) requests against a
popular-block working set, 11 % large (400 KB) requests against a cold file
population — over four layouts on three devices:

* the default MEMS device,
* the MEMS device with zero settle time ("MEMS-nosettle"),
* the Quantum Atlas 10K (simple vs organ pipe, the paper's comparison —
  columnar is included as an extension; subregioned needs MEMS geometry).

Observations to reproduce: organ pipe / subregioned / columnar achieve a
13–20 % improvement over the simple layout on MEMS; the bipartite layouts
need no popularity bookkeeping yet beat or match organ pipe; for the
no-settle device the subregioned layout (the only one optimizing X *and* Y)
wins by a further margin; the Atlas 10K gains ~13 % from organ pipe.

Organ pipe is placed using *estimated* popularity: the true access weights
perturbed by lognormal noise (``popularity_noise``), modelling the stale
frequency statistics a real system reshuffles from.  Set the noise to 0 for
an oracle organ pipe.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.layout import (
    FileSet,
    LAYOUTS,
    Placement,
    UnsupportedLayoutError,
    make_layout,
)
from repro.experiments.formatting import format_table
from repro.sim import DEVICES, IOKind, Request, StorageDevice

SMALL_FRACTION = 0.89  # paper: 89% small requests
DEFAULT_SMALL_BLOCKS = 20_000
DEFAULT_LARGE_FILES = 500


@dataclass
class Figure11Result:
    """Mean service time (seconds) per (device, layout)."""

    service_times: Dict[str, Dict[str, float]]

    def table(self) -> str:
        layouts = ["simple", "organ-pipe", "subregioned", "columnar"]
        rows = []
        for device_name, by_layout in self.service_times.items():
            row: List[object] = [device_name]
            for layout in layouts:
                value = by_layout.get(layout)
                row.append("n/a" if value is None else f"{value * 1e3:.3f}")
            rows.append(row)
        return format_table(
            ["device"] + [f"{l} (ms)" for l in layouts],
            rows,
            title="Figure 11: average service time by layout scheme",
        )

    def improvement_over_simple(self, device: str, layout: str) -> float:
        """Fractional service-time reduction of ``layout`` vs simple."""
        base = self.service_times[device]["simple"]
        return 1.0 - self.service_times[device][layout] / base


def zipf_weights(count: int, exponent: float = 1.0) -> List[float]:
    """Zipf popularity weights for the small-block working set."""
    if count < 1:
        raise ValueError(f"need at least one unit: {count}")
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def make_fileset(
    small_blocks: int = DEFAULT_SMALL_BLOCKS,
    large_files: int = DEFAULT_LARGE_FILES,
) -> FileSet:
    return FileSet(
        small_blocks=small_blocks,
        large_files=large_files,
        small_weights=zipf_weights(small_blocks),
    )


def _noisy_fileset(
    fileset: FileSet, noise_sigma: float, seed: int
) -> FileSet:
    """Perturb the small-block weights with lognormal noise (organ pipe's
    stale popularity estimates)."""
    if noise_sigma == 0:
        return fileset
    rng = random.Random(seed)
    noisy = [
        w * math.exp(rng.gauss(0.0, noise_sigma))
        for w in (fileset.small_weights or [1.0] * fileset.small_blocks)
    ]
    return FileSet(
        small_blocks=fileset.small_blocks,
        large_files=fileset.large_files,
        small_sectors=fileset.small_sectors,
        large_sectors=fileset.large_sectors,
        small_weights=noisy,
        large_weights=fileset.large_weights,
    )


def replay_read_stream(
    device: StorageDevice,
    placement: Placement,
    fileset: FileSet,
    num_requests: int,
    seed: int,
) -> float:
    """Mean back-to-back service time of the Fig. 11 read stream."""
    rng = random.Random(seed)
    weights = fileset.small_weights or [1.0] * fileset.small_blocks
    cumulative = list(itertools.accumulate(weights))
    total_weight = cumulative[-1]
    total_time = 0.0
    for index in range(num_requests):
        if rng.random() < SMALL_FRACTION:
            pick = bisect.bisect(cumulative, rng.random() * total_weight)
            pick = min(pick, fileset.small_blocks - 1)
            request = Request(
                0.0,
                placement.small_lbns[pick],
                fileset.small_sectors,
                IOKind.READ,
                index,
            )
        else:
            pick = rng.randrange(fileset.large_files)
            request = Request(
                0.0,
                placement.large_lbns[pick],
                fileset.large_sectors,
                IOKind.READ,
                index,
            )
        total_time += device.service(request).total
    return total_time / num_requests


def run(
    num_requests: int = 10_000,
    small_blocks: int = DEFAULT_SMALL_BLOCKS,
    large_files: int = DEFAULT_LARGE_FILES,
    popularity_noise: float = 0.7,
    seed: int = 42,
) -> Figure11Result:
    """Regenerate Figure 11's bars."""
    fileset = make_fileset(small_blocks, large_files)
    organ_fileset = _noisy_fileset(fileset, popularity_noise, seed)

    # Every device comes from the registry (one dispatch path with the
    # CLI/configs), the zero-settle variant through a parameter override.
    devices: Dict[str, Callable[[], StorageDevice]] = {
        "MEMS": DEVICES["mems"],
        "MEMS-nosettle": functools.partial(DEVICES["mems"], settle_constants=0.0),
        "Atlas 10K": DEVICES["atlas10k"],
    }

    results: Dict[str, Dict[str, float]] = {}
    for device_name, factory in devices.items():
        probe = factory()
        by_layout: Dict[str, float] = {}
        for layout_name in LAYOUTS.names():
            try:
                layout = make_layout(layout_name, probe)
            except UnsupportedLayoutError:
                # e.g. subregioned on a device without MEMS geometry
                continue
            place_fileset = (
                organ_fileset if layout_name == "organ-pipe" else fileset
            )
            placement = layout.place(place_fileset, probe.capacity_sectors)
            by_layout[layout_name] = replay_read_stream(
                factory(), placement, fileset, num_requests, seed
            )
        results[device_name] = by_layout
    return Figure11Result(service_times=results)


def main() -> None:
    result = run()
    print(result.table())
    print()
    for device in result.service_times:
        gains = []
        for layout in result.service_times[device]:
            if layout == "simple":
                continue
            gain = result.improvement_over_simple(device, layout)
            gains.append(f"{layout} {gain * 100:+.1f}%")
        print(f"{device}: improvement over simple -> " + ", ".join(gains))


if __name__ == "__main__":
    main()
