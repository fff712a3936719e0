"""Record-based reference for :class:`SimulationResult`'s summaries.

These are the summaries as they were computed when a result was a list
of :class:`RequestRecord` tuples: ``statistics.fmean`` over per-record
properties, a left-to-right ``sum`` of service times for utilization, and
the percentile interpolation written out over ``sorted``.  The columnar
result must match them bit for bit.  :func:`columnar` builds the
columnar result for a record list.
"""

import math
import statistics

from repro.sim import SimulationResult, squared_coefficient_of_variation
from repro.sim.request import AccessResult, IOKind

PHASES = (
    "seek_x",
    "seek_y",
    "settle",
    "rotational_latency",
    "transfer",
    "turnarounds",
)


def columnar(records, end_time: float) -> SimulationResult:
    """The :class:`SimulationResult` holding ``records`` in their order."""
    if not records:
        return SimulationResult(end_time=end_time)
    columns = {
        "arrival": [r.request.arrival_time for r in records],
        "lbn": [r.request.lbn for r in records],
        "sectors": [r.request.sectors for r in records],
        "is_write": [r.request.kind is IOKind.WRITE for r in records],
        "rid": [r.request.request_id for r in records],
        "dispatch": [r.dispatch_time for r in records],
        "completion": [r.completion_time for r in records],
    }
    for name in AccessResult._fields:
        columns[name] = [getattr(r.access, name) for r in records]
    return SimulationResult(columns, end_time=end_time)


def percentile(records, pct: float) -> float:
    if not 0 < pct <= 100:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = sorted(r.response_time for r in records)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def percentiles(records, *pcts: float) -> dict:
    return {
        f"p{pct:g}": percentile(records, pct)
        for pct in (pcts or (50.0, 95.0, 99.0))
    }


def to_dict(records, end_time: float) -> dict:
    responses = tuple(r.response_time for r in records)
    return {
        "completed": len(records),
        "end_time_s": end_time,
        "mean_response_time_s": statistics.fmean(responses),
        "mean_service_time_s": statistics.fmean(
            r.service_time for r in records
        ),
        "mean_queue_time_s": statistics.fmean(r.queue_time for r in records),
        "max_response_time_s": max(responses),
        "response_time_cv2": squared_coefficient_of_variation(responses),
        "response_time_percentiles_s": percentiles(records),
        "throughput_rps": len(records) / end_time,
        "utilization": sum(r.service_time for r in records) / end_time,
        "mean_phase_breakdown_s": {
            phase: statistics.fmean(getattr(r.access, phase) for r in records)
            for phase in PHASES
        },
    }


def merge(record_lists) -> list:
    """Every member's records in ``(completion_time, rid)`` order."""
    records = [record for records in record_lists for record in records]
    records.sort(key=lambda r: (r.completion_time, r.request.request_id))
    return records
