"""Figure 6: scheduling algorithms on the MEMS-based storage device (§4.2).

Same sweep as Figure 5 but against the Table 1 MEMS device.  The paper's
observations to reproduce:

* the algorithms finish in the same order as on the disk (SPTF best
  response time, C-LOOK best starvation resistance);
* the FCFS ↔ LBN-based gap is relatively larger than on the disk (seek time
  is a larger share of MEMS service time, and there is no rotational delay
  to dilute it);
* the C-LOOK ↔ SSTF_LBN gap is smaller (both only cut X seeks, which are
  already down at the Y-seek scale);
* SPTF gains extra performance by addressing Y seeks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.core.scheduling import PAPER_ALGORITHMS
from repro.experiments.common import (
    SweepResult,
    format_sweep_table,
    random_workload_sweep,
)
from repro.mems import MEMSParameters

DEFAULT_RATES = (200.0, 500.0, 800.0, 1100.0, 1400.0, 1700.0, 2000.0)


@dataclass
class Figure6Result:
    sweep: SweepResult
    settle_constants: float

    def response_time_table(self) -> str:
        return format_sweep_table(
            self.sweep,
            (
                "Figure 6(a): MEMS average response time "
                f"(settle constants = {self.settle_constants:g})"
            ),
            "req/s",
            metric="response",
        )

    def cv2_table(self) -> str:
        return format_sweep_table(
            self.sweep,
            "Figure 6(b): MEMS squared coefficient of variation",
            "req/s",
            metric="cv2",
        )


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    num_requests: int = 6000,
    seed: int = 42,
    device_params: Optional[Mapping[str, Any]] = None,
    jobs: Optional[int] = None,
) -> Figure6Result:
    """Regenerate Figure 6's data.  ``device_params`` overrides fields of
    the Table 1 :class:`~repro.mems.MEMSParameters` (Figure 8 reuses this
    sweep with different settle settings)."""
    sweep = random_workload_sweep(
        device="mems",
        algorithms=algorithms,
        rates=rates,
        num_requests=num_requests,
        seed=seed,
        jobs=jobs,
        device_params=device_params,
    )
    settle = MEMSParameters(**(device_params or {})).settle_constants
    return Figure6Result(sweep=sweep, settle_constants=settle)


def main() -> None:
    result = run()
    print(result.response_time_table())
    print()
    print(result.cv2_table())


if __name__ == "__main__":
    main()
