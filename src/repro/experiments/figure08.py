"""Figure 8: interaction of SPTF and settling time (§4.4).

Repeats the Figure 6(a) sweep with the number of settling time constants
set to 0 and 2 (the default device uses 1).  Observations to reproduce:

* with **2** settle constants, X-dimension seek times dominate Y, so
  SSTF_LBN closely approximates SPTF;
* with **0** settle constants (active damping), Y seeks matter and SPTF
  outperforms the other algorithms by a large margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.scheduling import PAPER_ALGORITHMS
from repro.experiments import figure06
from repro.experiments.figure06 import Figure6Result

DEFAULT_SETTLE_CONSTANTS = (0.0, 2.0)


@dataclass
class Figure8Result:
    by_settle: Dict[float, Figure6Result]

    def tables(self) -> str:
        parts = []
        for constants, result in sorted(self.by_settle.items()):
            parts.append(result.response_time_table())
        return "\n\n".join(parts)

    def sptf_advantage(self, constants: float, rate_index: int) -> Optional[float]:
        """SSTF_LBN / SPTF mean-response ratio at one rate (≥ 1 when SPTF
        wins); ``None`` if either is saturated there."""
        sweep = self.by_settle[constants].sweep
        sptf = sweep.series["SPTF"][rate_index]
        sstf = sweep.series["SSTF_LBN"][rate_index]
        if sptf.saturated or sstf.saturated:
            return None
        return sstf.mean_response_time / sptf.mean_response_time


def run(
    settle_constants: Sequence[float] = DEFAULT_SETTLE_CONSTANTS,
    rates: Sequence[float] = figure06.DEFAULT_RATES,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    num_requests: int = 6000,
    seed: int = 42,
    jobs: Optional[int] = None,
) -> Figure8Result:
    """Regenerate Figure 8's data (both panels)."""
    by_settle = {}
    for constants in settle_constants:
        by_settle[constants] = figure06.run(
            rates=rates,
            algorithms=algorithms,
            num_requests=num_requests,
            seed=seed,
            device_params={"settle_constants": constants},
            jobs=jobs,
        )
    return Figure8Result(by_settle=by_settle)


def main() -> None:
    result = run()
    print(result.tables())
    print()
    print("SPTF advantage over SSTF_LBN (ratio of mean response times) at")
    print("the highest mutually-unsaturated rate:")
    for constants, fig in sorted(result.by_settle.items()):
        xs = fig.sweep.xs()
        for index in range(len(xs) - 1, -1, -1):
            advantage = result.sptf_advantage(constants, index)
            if advantage is not None:
                print(
                    f"  settle constants = {constants:g}: {advantage:.2f}x "
                    f"at {xs[index]:g} req/s"
                )
                break


if __name__ == "__main__":
    main()
