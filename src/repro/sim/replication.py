"""Replication methodology: independent runs and confidence intervals.

Single-run simulation estimates carry sampling error; standard practice is
replicating the run over independent seeds and reporting a t-based
confidence interval.  :func:`replicate` does exactly that for any
seed-parameterized experiment function.

The Student-t critical value comes from :func:`_t_quantile`, which uses
only the standard library, so importing the package stays cheap for
short CLI runs: ``scipy.stats`` alone would take most of their start-up.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, List, Sequence

_EPS = 4 * 2.0 ** -52  # continued-fraction tolerance: a few ulps at 1.0
_TINY = 1e-300  # Lentz's guard against zero denominators
_MAX_TERMS = 1_000  # continued-fraction terms; under 50 are used to df 1e7
_STEP_TOL = 1e-12  # relative Newton step after which the error is ~step**2
_MAX_STEPS = 200  # Newton steps; tails q >= 2**-53 need at most ~45


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b).

    Evaluated with the modified Lentz method; converges quickly for
    ``x < (a + 1) / (a + b + 2)``, the only side it is called on.
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        even = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        for term in (even, odd):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + term / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return h


def _t_tail(t: float, df: float, log_beta: float) -> float:
    """``P(T > t)`` for ``t > 0`` and T Student-t with ``df`` degrees.

    The tail is ``I_x(df/2, 1/2) / 2`` with ``x = df / (df + t²)``.  Its
    complement ``1 − x`` is formed directly as ``t² / (df + t²)``:
    subtracting from 1 loses digits at large df, where x is within about
    ``t²/df`` of 1.  ``log_beta`` is ``ln B(df/2, 1/2)``.
    """
    a, b = 0.5 * df, 0.5
    square = t * t
    x = df / (df + square)
    y = square / (df + square)
    front = math.exp(
        -a * math.log1p(square / df) + b * math.log(y) - log_beta
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _beta_fraction(a, b, x) / a
    return 0.5 * (1.0 - front * _beta_fraction(b, a, y) / b)


def _t_quantile(p: float, df: int) -> float:
    """The Student-t quantile: ``t`` with ``P(T <= t) = p``.

    Closed forms at ``df`` 1 and 2; otherwise Newton steps on the tail
    probability ``q = min(p, 1 - p)`` from the normal quantile.  The tail
    is convex and the normal quantile lies below the t quantile, so the
    steps approach the root from below without overshooting.  Agrees with
    ``scipy.stats.t.ppf`` to better than 1e-10 relative for df up to 10⁴.
    ``p`` of 0 or 1 gives ∓inf, as scipy does; ``q`` below 2**-53, which
    no ``0.5 + confidence / 2`` produces, may raise ``ArithmeticError``.
    """
    if p == 0.5:
        return 0.0
    q = p if p < 0.5 else 1.0 - p
    if q == 0.0:  # 0.5 + confidence / 2 rounds to 1 within 2**-54 of 1
        t = math.inf
    elif df == 1:
        t = 1.0 / math.tan(math.pi * q)
    elif df == 2:
        t = (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))
    else:
        log_beta = math.lgamma(0.5 * df) + math.lgamma(0.5) - math.lgamma(
            0.5 * df + 0.5
        )
        log_norm = -0.5 * math.log(df) - log_beta
        t = -statistics.NormalDist().inv_cdf(q)
        for _ in range(_MAX_STEPS):
            density = math.exp(
                log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df)
            )
            step = (_t_tail(t, df, log_beta) - q) / density
            t += step
            if abs(step) <= _STEP_TOL * t:
                break
        else:
            raise ArithmeticError(f"t quantile did not converge: {p=}, {df=}")
    return t if p > 0.5 else -t


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence out of (0, 1): {confidence}")


@dataclass(frozen=True)
class ReplicationResult:
    """Point estimate with a t-based confidence interval."""

    samples: tuple
    confidence: float

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def stdev(self) -> float:
        if self.n < 2:
            raise ValueError("need at least two replications for a spread")
        return statistics.stdev(self.samples)

    @property
    def half_width(self) -> float:
        """Half-width of the confidence interval around the mean."""
        if self.n < 2:
            raise ValueError("need at least two replications for an interval")
        t_critical = _t_quantile(0.5 + self.confidence / 2.0, self.n - 1)
        return t_critical * self.stdev / math.sqrt(self.n)

    @property
    def interval(self) -> tuple:
        half = self.half_width
        return (self.mean - half, self.mean + half)

    def contains(self, value: float) -> bool:
        low, high = self.interval
        return low <= value <= high

    def __str__(self) -> str:
        if self.n < 2:
            return f"{self.mean:.6g} (single run)"
        return (
            f"{self.mean:.6g} ± {self.half_width:.2g} "
            f"({self.confidence * 100:.0f}% CI, n={self.n})"
        )


def replicate(
    experiment: Callable[[int], float],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> ReplicationResult:
    """Run ``experiment(seed)`` once per seed and summarize.

    Args:
        experiment: Maps a seed to a scalar metric (e.g. mean response
            time of one simulation run).
        seeds: Independent seeds; must be non-empty.
        confidence: Two-sided confidence level in (0, 1).

    Example:
        >>> from repro import MEMSDevice, RandomWorkload, Simulation
        >>> from repro.core.scheduling import FCFSScheduler
        >>> def run(seed):
        ...     device = MEMSDevice()
        ...     workload = RandomWorkload(device.capacity_sectors,
        ...                               rate=200.0, seed=seed)
        ...     result = Simulation(device, FCFSScheduler()).run(
        ...         workload.generate(300))
        ...     return result.mean_response_time
        >>> summary = replicate(run, seeds=range(5))
        >>> 0 < summary.mean < 0.01
        True
    """
    if not seeds:
        raise ValueError("need at least one seed")
    _check_confidence(confidence)
    samples: List[float] = [float(experiment(seed)) for seed in seeds]
    return ReplicationResult(samples=tuple(samples), confidence=confidence)
