"""Figure 7: scheduling under the Cello and TPC-C traces on MEMS (§4.3).

The paper replays two traces of real disk activity at a range of
*trace scale factors* (footnote 2: scale k divides inter-arrival times by
k).  The proprietary traces are replaced by calibrated synthetic
generators (see DESIGN.md §2); the observations to reproduce:

* (a) Cello: scheduler ranking closely resembles the random workload;
* (b) TPC-C: SPTF outperforms the LBN-based schemes by a much larger
  margin, because many concurrently-pending requests have inter-LBN
  distances too small for LBN-based schemes to rank usefully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.scheduling import PAPER_ALGORITHMS
from repro.experiments.common import (
    SweepResult,
    format_sweep_table,
    scheduling_sweep,
)
from repro.sim import SimConfig

DEFAULT_SCALES = (1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass
class Figure7Result:
    cello: SweepResult
    tpcc: SweepResult

    def cello_table(self) -> str:
        return format_sweep_table(
            self.cello,
            "Figure 7(a): Cello trace on MEMS, avg response time",
            "scale",
            x_format=lambda x: f"{x:g}",
        )

    def tpcc_table(self) -> str:
        return format_sweep_table(
            self.tpcc,
            "Figure 7(b): TPC-C trace on MEMS, avg response time",
            "scale",
            x_format=lambda x: f"{x:g}",
        )

    def sptf_margin(self, sweep_name: str, scale_index: int = -1) -> float:
        """best-LBN-based / SPTF response-time ratio at one scale point.

        The paper's TPC-C margin should come out well above the Cello one.
        """
        sweep = self.tpcc if sweep_name == "tpcc" else self.cello
        sptf = sweep.series["SPTF"][scale_index].mean_response_time
        lbn_based = [
            sweep.series[name][scale_index].mean_response_time
            for name in ("SSTF_LBN", "C-LOOK")
            if not sweep.series[name][scale_index].saturated
        ]
        if sptf is None or not lbn_based:
            raise ValueError("margin undefined at a saturated point")
        return min(lbn_based) / sptf


def run(
    scales: Sequence[float] = DEFAULT_SCALES,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    num_requests: int = 6000,
    seed: int = 42,
    jobs: Optional[int] = None,
) -> Figure7Result:
    """Regenerate Figure 7's data.

    Every point replays the scale-1 trace of its workload at one scale
    factor (the workload's ``scale`` parameter), so all algorithms at a
    scale see the same stream.
    """
    sweeps = {}
    # The generators' scale-1 intensities: Cello bursts/s, TPC-C transactions/s.
    for name, rate in (("cello", 10.0), ("tpcc", 40.0)):
        base = SimConfig(
            device="mems",
            workload=name,
            rate=rate,
            num_requests=num_requests,
            seed=seed,
            warmup=200,
        )
        sweeps[name] = scheduling_sweep(
            [base.replace(workload_params={"scale": scale}) for scale in scales],
            algorithms,
            scales,
            x_label="trace scale factor",
            jobs=jobs,
        )
    return Figure7Result(cello=sweeps["cello"], tpcc=sweeps["tpcc"])


def main() -> None:
    result = run()
    print(result.cello_table())
    print()
    print(result.tpcc_table())
    print()
    print(
        "SPTF margin (best LBN-based / SPTF) at the highest non-saturated "
        "scale:"
    )
    for name in ("cello", "tpcc"):
        sweep = result.cello if name == "cello" else result.tpcc
        for index in range(len(sweep.xs()) - 1, -1, -1):
            try:
                margin = result.sptf_margin(name, index)
            except ValueError:
                continue
            print(f"  {name}: {margin:.2f}x at scale {sweep.xs()[index]:g}")
            break


if __name__ == "__main__":
    main()
