"""Metrics over a completed simulation run.

The paper evaluates schedulers with two metrics (§4.1):

* **average response time** — queue time plus service time;
* **squared coefficient of variation** of response time, σ²/µ² — the
  starvation-resistance ("fairness") metric of Teorey & Pinkerton [TP72] and
  Worthington et al. [WGP94]; lower is better.

:class:`SimulationResult` holds a run's completions as numpy columns, one
row per completed request in completion order: the request columns of
:class:`~repro.sim.batch.RequestBatch`, the dispatch and completion times,
and the :class:`~repro.sim.request.AccessResult` fields.  Every summary is
computed from those columns with the same float arithmetic the per-record
code used, so printed digits do not depend on the representation: means
are ``math.fsum`` over the column divided by the count (what
``statistics.fmean`` computes), utilization is a left-to-right ``sum`` of
service times in completion order, and percentiles use the package's one
linear interpolation (:func:`repro.obs.metrics.percentile`) over the
sorted values.  numpy's pairwise summation would move the last digit, so
no summary uses it.
"""

from __future__ import annotations

import math
import statistics as _stats
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.nputil import get_numpy
from repro.obs.metrics import ACCESS_PHASES, percentile
from repro.sim.request import AccessResult, IOKind, Request, RequestRecord

COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("arrival", "float64"), ("lbn", "int64"), ("sectors", "int64"),
    ("is_write", "bool"), ("rid", "int64"),
    ("dispatch", "float64"), ("completion", "float64"),
    *((name, "float64") for name in AccessResult._fields[:-1]),
    ("bits_accessed", "int64"),
)
"""``(name, dtype)`` of every completion column.  The request columns come
first under their :class:`~repro.sim.batch.RequestBatch` names, the access
columns last under their :class:`~repro.sim.request.AccessResult` names."""


class SimulationResult:
    """One run's completions as columns, plus the simulated end time.

    Args:
        columns: ``name -> values`` for every name in :data:`COLUMNS`, all
            of one length, rows in completion order; ``None`` for a run
            that completed nothing.
        end_time: Simulated time at which the run ended.

    The result is read-only by convention: :meth:`drop_warmup` and
    :func:`repro.fleet.merge.merge_results` build new results rather than
    editing columns, which lets :attr:`records` cache its view.
    """

    def __init__(
        self,
        columns: Optional[Mapping[str, Any]] = None,
        end_time: float = 0.0,
    ) -> None:
        np = get_numpy()
        if columns is None:
            columns = {name: () for name, _ in COLUMNS}
        self.columns: Dict[str, Any] = {
            name: np.asarray(columns[name], dtype=dtype)
            for name, dtype in COLUMNS
        }
        lengths = {len(column) for column in self.columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged result columns: lengths {lengths}")
        self.end_time = end_time

    def __len__(self) -> int:
        return len(self.columns["rid"])

    def __getstate__(self) -> dict:
        # A pickled result is its columns; the record view stays behind.
        return {"columns": self.columns, "end_time": self.end_time}

    @cached_property
    def records(self) -> Tuple[RequestRecord, ...]:
        """The completions as :class:`RequestRecord` tuples (built once).

        A read-only view for object-level consumers (the energy accountant,
        tests); no summary reads it.
        """
        c = {name: column.tolist() for name, column in self.columns.items()}
        kinds = [IOKind.WRITE if flag else IOKind.READ for flag in c["is_write"]]
        requests = map(
            Request._make,
            zip(c["arrival"], c["lbn"], c["sectors"], kinds, c["rid"]),
        )
        accesses = map(
            AccessResult._make, zip(*(c[name] for name in AccessResult._fields))
        )
        return tuple(
            map(
                RequestRecord._make,
                zip(requests, c["dispatch"], c["completion"], accesses),
            )
        )

    # -- per-request times ---------------------------------------------- #

    @property
    def response_times(self) -> List[float]:
        """Completion minus arrival, per request in completion order."""
        c = self.columns
        return (c["completion"] - c["arrival"]).tolist()

    @property
    def queue_times(self) -> List[float]:
        """Dispatch minus arrival, per request in completion order."""
        c = self.columns
        return (c["dispatch"] - c["arrival"]).tolist()

    @property
    def service_times(self) -> List[float]:
        """Completion minus dispatch, per request in completion order."""
        c = self.columns
        return (c["completion"] - c["dispatch"]).tolist()

    # -- response time ------------------------------------------------- #

    @property
    def mean_response_time(self) -> float:
        """Average response time in seconds."""
        return _mean(self.response_times)

    @property
    def response_time_cv2(self) -> float:
        """Squared coefficient of variation (σ²/µ²) of response time."""
        return squared_coefficient_of_variation(self.response_times)

    # -- components ---------------------------------------------------- #

    @property
    def mean_service_time(self) -> float:
        return _mean(self.service_times)

    @property
    def mean_queue_time(self) -> float:
        return _mean(self.queue_times)

    @property
    def max_response_time(self) -> float:
        return max(self.response_times or _empty())

    def response_time_percentile(self, pct: float) -> float:
        """Linear-interpolated percentile of response time (0 < pct <= 100)."""
        return self.percentiles(pct)[f"p{pct:g}"]

    def percentiles(self, *pcts: float) -> dict:
        """Several response-time percentiles from one sort, keyed
        ``{"p50": ..., "p95": ...}`` (defaults to 50/95/99)."""
        c = self.columns
        ordered = get_numpy().sort(c["completion"] - c["arrival"]).tolist()
        return {
            f"p{pct:g}": percentile(ordered, pct)
            for pct in pcts or (50.0, 95.0, 99.0)
        }

    def to_dict(self) -> dict:
        """JSON-ready summary of the run (no per-request rows).

        The stable exchange format for experiment results — covers the
        means, percentiles, throughput/utilization, and the per-phase
        breakdown.
        """
        return {
            "completed": len(self),
            "end_time_s": self.end_time,
            "mean_response_time_s": self.mean_response_time,
            "mean_service_time_s": self.mean_service_time,
            "mean_queue_time_s": self.mean_queue_time,
            "max_response_time_s": self.max_response_time,
            "response_time_cv2": self.response_time_cv2,
            "response_time_percentiles_s": self.percentiles(),
            "throughput_rps": self.throughput,
            "utilization": self.utilization,
            "mean_phase_breakdown_s": self.mean_phase_breakdown(),
        }

    @property
    def throughput(self) -> float:
        """Completed requests per second of simulated time."""
        if self.end_time <= 0:
            raise ValueError("simulation ended at time zero")
        return len(self) / self.end_time

    @property
    def utilization(self) -> float:
        """Fraction of the run the device spent servicing requests.

        Service times are summed left to right with plain float additions;
        the built-in ``sum()`` compensates its rounding from Python 3.12
        on, which would make this value depend on the interpreter version.
        """
        if self.end_time <= 0:
            raise ValueError("simulation ended at time zero")
        busy = 0.0
        for service in self.service_times:
            busy += service
        return busy / self.end_time

    def mean_phase_breakdown(self) -> dict:
        """Mean seconds spent per mechanical phase across all accesses.

        Keys: ``seek_x``, ``seek_y``, ``settle``, ``rotational_latency``,
        ``transfer``, ``turnarounds`` — the AccessResult decomposition.
        """
        return {
            phase: _mean(self.columns[phase].tolist()) for phase in ACCESS_PHASES
        }

    def drop_warmup(self, count: int) -> "SimulationResult":
        """Return a copy without the first ``count`` completed requests.

        Open-queueing experiments start from an empty queue and an idle
        device; dropping a warmup prefix removes that transient.
        """
        if count < 0:
            raise ValueError(f"negative warmup count: {count}")
        return SimulationResult(
            {name: column[count:] for name, column in self.columns.items()},
            end_time=self.end_time,
        )


def _empty():
    raise ValueError("no completed requests")


def _mean(values: List[float]) -> float:
    """``statistics.fmean``: the correctly rounded sum divided by the count."""
    return math.fsum(values) / len(values) if values else _empty()


def squared_coefficient_of_variation(values: Sequence[float]) -> float:
    """σ²/µ² of ``values`` (population variance), the paper's fairness metric."""
    if not values:
        raise ValueError("no values")
    mean = _stats.fmean(values)
    if mean == 0:
        raise ValueError("mean is zero; cv² undefined")
    var = _stats.fmean((v - mean) ** 2 for v in values)
    return var / (mean * mean)
