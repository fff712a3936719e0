"""Analytic oracle: an FCFS run is an M/G/1 queue.

Arrivals of the random workload are Poisson and FCFS serves them in
arrival order, so the mean queue wait must match the Pollaczek–Khinchine
formula ``λ·E[S²] / (2(1 − ρ))`` with ``ρ = λ·E[S]``, computed from the
run's own service-time moments.  The formula does not care how the stream
was drawn, so this checks the engine's queueing where the pinned paper
tables cannot: a new random stream moves the tables but not this ratio.
Device utilization must likewise come out at ``λ·E[S]``.

Service times are not independent (each one starts where the previous
request left the sled or arm), but at these loads the formula still holds
to within the seed spread.  Bands, from 20 seeds per point at this run
length: the wait ratio spread over 0.943–1.036 (standard deviation 0.017
at ρ ≈ 0.3, 0.021–0.022 at ρ ≈ 0.6), the utilization ratio over
0.989–1.010 (standard deviation 0.0055).  Near saturation (ρ ≈ 0.9) the
wait ratio spreads too widely to test.
"""

import math

import pytest

from repro.sim import SimConfig

REQUESTS = 40_000

WAIT_BAND = (0.92, 1.08)
UTILIZATION_BAND = (0.975, 1.025)


@pytest.mark.parametrize(
    "device, rate",
    [
        ("mems", 400.0),  # ρ ≈ 0.30
        ("mems", 800.0),  # ρ ≈ 0.60
        ("atlas10k", 40.0),  # ρ ≈ 0.32
        ("atlas10k", 80.0),  # ρ ≈ 0.65
    ],
)
def test_fcfs_matches_pollaczek_khinchine(device, rate):
    result = SimConfig(
        device=device,
        scheduler="FCFS",
        rate=rate,
        num_requests=REQUESTS,
        seed=1,
        max_queue_depth=None,
    ).run()
    service = result.service_times
    mean_service = math.fsum(service) / len(service)
    second_moment = math.fsum(s * s for s in service) / len(service)
    rho = rate * mean_service
    assert 0.25 < rho < 0.7
    formula = rate * second_moment / (2.0 * (1.0 - rho))
    low, high = WAIT_BAND
    assert low < result.mean_queue_time / formula < high
    low, high = UTILIZATION_BAND
    assert low < result.utilization / rho < high
