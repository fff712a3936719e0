"""Figure 5: scheduling algorithms on the Quantum Atlas 10K disk (§4.1).

Two panels over the *random* workload at increasing arrival rates:

* (a) average response time — FCFS saturates first, SSTF_LBN beats C-LOOK,
  SPTF beats everything;
* (b) squared coefficient of variation of response time — C-LOOK resists
  starvation best; SSTF_LBN and SPTF starve requests at high load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.scheduling import PAPER_ALGORITHMS
from repro.experiments.common import (
    SweepResult,
    format_sweep_table,
    random_workload_sweep,
)

DEFAULT_RATES = (25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0)


@dataclass
class Figure5Result:
    sweep: SweepResult

    def response_time_table(self) -> str:
        return format_sweep_table(
            self.sweep,
            "Figure 5(a): Atlas 10K average response time",
            "req/s",
            metric="response",
        )

    def cv2_table(self) -> str:
        return format_sweep_table(
            self.sweep,
            "Figure 5(b): Atlas 10K squared coefficient of variation",
            "req/s",
            metric="cv2",
        )


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    num_requests: int = 6000,
    seed: int = 42,
    jobs: Optional[int] = None,
) -> Figure5Result:
    """Regenerate Figure 5's data."""
    sweep = random_workload_sweep(
        device="atlas10k",
        algorithms=algorithms,
        rates=rates,
        num_requests=num_requests,
        seed=seed,
        jobs=jobs,
    )
    return Figure5Result(sweep=sweep)


def main() -> None:
    result = run()
    print(result.response_time_table())
    print()
    print(result.cv2_table())


if __name__ == "__main__":
    main()
