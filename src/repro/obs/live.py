"""Live observability: windowed metrics, quantile sketches and SLO burn.

The live layer describes a run per tumbling window of simulated time, and
needs no trace to do so: every input — arrival, dispatch and completion
times, service time, read/write — is a column of the finished
:class:`~repro.sim.statistics.SimulationResult`.  :class:`LiveAggregator`
folds those columns once, after an untraced drain.
:meth:`~LiveAggregator.summary` yields the :class:`LiveSummary` (per-class
quantile sketches, the closed-window count, per-SLO stats) at a cost that
does not grow with the window count; for traced runs,
:meth:`~LiveAggregator.events` yields the two event kinds below, which
:func:`splice_trace` interleaves into the trace at their boundary times.

``obs.window``
    One per closed window ``(start, end]``: completion and arrival counts,
    throughput, device utilization (busy seconds over the window's width,
    not capped: over a merged fleet result the devices' busy seconds add
    up past 1.0), and the time-averaged queue depth.
``slo.violation``
    One per SLO window whose observed objective-quantile latency exceeded
    the threshold, with the short- and long-window burn rates.

An arrival or completion at time ``t`` belongs to window ``k``, the first
whose boundary ``(k + 1) * W`` (that float product) is ``>= t``.  Every
window whose boundary is ``<= end_time`` closes, empty ones included; the
final partial window closes only if it saw traffic (an SLO window: a
completion of its class).  An access's busy time is spread across the
windows it overlaps.  The **burn rate** of an :class:`SLOSpec` is
``bad_fraction / (1 - objective)`` — 1.0 consumes the error budget exactly,
10.0 ten times too fast — over one window and over the trailing
``long_windows`` (page on fast burn, ticket on slow burn).

Quantiles come from :class:`~repro.obs.sketch.QuantileSketch`, so the
per-member :class:`LiveSummary` objects a fleet ships back from its
workers merge bit-identically for any worker count.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from repro.nputil import get_numpy
from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch
from repro.obs.tracer import _open_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.statistics import SimulationResult

DEFAULT_WINDOW_S = 1.0
"""Default tumbling-window width (simulated seconds)."""

SLO_CLASSES = ("all", "read", "write")
"""Request classes an :class:`SLOSpec` can track."""

MAX_WINDOWS = 1_000_000
"""Most ``obs.window`` events :meth:`LiveAggregator.events` builds for one
run: each costs a dict, so a narrower window is rejected before any is
built."""


def check_width(name: str, value: float) -> float:
    """``value`` when it is a finite window width > 0; else ``ValueError``."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0: {value}")
    return value


@dataclass(frozen=True)
class SLOSpec:
    """One per-class latency objective.

    Attributes:
        cls: Request class to track — ``all``, ``read``, or ``write``.
        objective: Objective quantile in (0, 1), e.g. ``0.99``.
        threshold_s: Latency threshold in seconds the objective quantile
            must stay under.
        window_s: Evaluation window width in simulated seconds.
        long_windows: Trailing window count for the long burn rate
            (``long_windows * window_s`` of history).
    """

    cls: str = "all"
    objective: float = 0.99
    threshold_s: float = 0.010
    window_s: float = DEFAULT_WINDOW_S
    long_windows: int = 12

    def __post_init__(self) -> None:
        if self.cls not in SLO_CLASSES:
            close = difflib.get_close_matches(str(self.cls), SLO_CLASSES, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ValueError(
                f"unknown SLO class {self.cls!r}{hint}; known classes: "
                f"{', '.join(SLO_CLASSES)}"
            )
        if not 0 < self.objective < 1:
            raise ValueError(f"objective must be in (0, 1): {self.objective}")
        check_width("threshold_s", self.threshold_s)
        check_width("window_s", self.window_s)
        if self.long_windows < 1:
            raise ValueError(f"long_windows must be >= 1: {self.long_windows}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLOSpec":
        names = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in names:
                raise ValueError(
                    f"unknown SLOSpec field: {key!r}; known fields: "
                    f"{', '.join(sorted(names))}"
                )
        return cls(**dict(data))

    def label(self) -> str:
        """Human-readable spec label, e.g. ``read p99 < 10ms / 0.5s``."""
        return (
            f"{self.cls} p{self.objective * 100:g} < "
            f"{self.threshold_s * 1e3:g}ms / {self.window_s:g}s"
        )


def parse_slo(spec: str) -> SLOSpec:
    """Parse a CLI SLO spec: ``CLASS:pQUANTILE:THRESHOLD_S[:WINDOW_S]``.

    Examples: ``all:p99:0.02`` (99% of all requests under 20 ms per
    default window), ``read:p95:0.01:0.5`` (95% of reads under 10 ms per
    0.5 s window).
    """
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"bad SLO spec {spec!r}: expected CLASS:pQQ:THRESHOLD_S"
            f"[:WINDOW_S], e.g. 'all:p99:0.02' or 'read:p95:0.01:0.5'"
        )
    cls, quantile, threshold = parts[0], parts[1], parts[2]
    if not quantile.startswith("p"):
        raise ValueError(
            f"bad SLO quantile {quantile!r} in {spec!r}: expected pQQ "
            f"(e.g. p99, p99.9)"
        )
    try:
        objective = float(quantile[1:]) / 100.0
        threshold_s = float(threshold)
        window_s = float(parts[3]) if len(parts) == 4 else DEFAULT_WINDOW_S
    except ValueError:
        raise ValueError(f"bad SLO spec {spec!r}: non-numeric field") from None
    return SLOSpec(
        cls=cls,
        objective=objective,
        threshold_s=threshold_s,
        window_s=window_s,
    )


@dataclass
class LiveSummary:
    """Picklable end-of-run snapshot of a run's live observability.

    ``sketches`` maps request class (``all`` plus each of ``read``/``write``
    that completed something) to the run-level
    :class:`~repro.obs.sketch.QuantileSketch`; ``windows`` counts the
    closed ``obs.window`` windows; ``slo`` carries one cumulative stats
    dict per configured :class:`SLOSpec`.  The fleet runner ships one of
    these back per member and folds them with :func:`merge_live_summaries`.
    """

    window_s: float
    windows: int
    completions: int
    sketches: Dict[str, QuantileSketch]
    slo: List[dict]

    def to_dict(self) -> dict:
        """JSON-ready dump; byte-deterministic for a deterministic run."""
        classes = {}
        for cls in sorted(self.sketches):
            sketch = self.sketches[cls]
            entry = {"count": sketch.count}
            entry.update(sketch.percentiles())
            entry["sketch"] = sketch.to_dict()
            classes[cls] = entry
        return {
            "window_s": self.window_s,
            "windows": self.windows,
            "completions": self.completions,
            "classes": classes,
            "slo": self.slo,
        }


def merge_live_summaries(
    summaries: Sequence[Optional[LiveSummary]],
) -> Optional[LiveSummary]:
    """Fold per-member summaries into one fleet-level summary.

    Sketch merges are exactly associative and the fold runs in member-index
    order (an order the worker count never changes), so the merged summary
    — and its ``to_dict`` bytes — are identical for every ``jobs`` value.
    ``None`` members (live tracking disabled) are skipped; returns ``None``
    when nothing was tracked.
    """
    present = [summary for summary in summaries if summary is not None]
    if not present:
        return None
    first = present[0]
    sketches: Dict[str, QuantileSketch] = {}
    windows = 0
    completions = 0
    slo: List[dict] = [
        {
            "spec": dict(entry["spec"]),
            "windows": 0,
            "violations": 0,
            "completions": 0,
            "bad": 0,
            "burn_rate": 0.0,
        }
        for entry in first.slo
    ]
    for summary in present:
        windows += summary.windows
        completions += summary.completions
        for cls in sorted(summary.sketches):
            sketch = summary.sketches[cls]
            if cls in sketches:
                sketches[cls].merge(sketch)
            else:
                fresh = QuantileSketch(alpha=sketch.alpha)
                sketches[cls] = fresh.merge(sketch)
        for merged, entry in zip(slo, summary.slo):
            merged["windows"] += entry["windows"]
            merged["violations"] += entry["violations"]
            merged["completions"] += entry["completions"]
            merged["bad"] += entry["bad"]
    for merged in slo:
        budget = 1.0 - merged["spec"]["objective"]
        if merged["completions"]:
            merged["burn_rate"] = (
                merged["bad"] / merged["completions"]
            ) / budget
    return LiveSummary(
        window_s=first.window_s,
        windows=windows,
        completions=completions,
        sketches=sketches,
        slo=slo,
    )


def _closed_windows(width: float, end: float) -> int:
    """How many window boundaries ``(k + 1) * width`` are ``<= end``."""
    if end <= 0:
        return 0
    if end / width >= 2.0**53:
        # Beyond 2**53 the float products stop telling windows apart.
        raise ValueError(
            f"window {width:g}s is too narrow for a run of {end:g}s "
            f"(more than 2**53 windows)"
        )
    count = int(end / width)
    while count and count * width > end:
        count -= 1
    while (count + 1) * width <= end:
        count += 1
    return count


def _window_of(times, width: float):
    """Per time ``t``, the first window ``k`` whose boundary ``(k + 1) *
    width`` is ``>= t``, as a float64 array (exact: ``_closed_windows``
    has bounded the window count below 2**53)."""
    np = get_numpy()
    window = np.floor(times / width)
    while True:
        late = (window + 1) * width < times
        if not late.any():
            break
        window += late
    while True:
        early = (window > 0) & (window * width >= times)
        if not early.any():
            return window
        window -= early


class LiveAggregator:
    """One windowed fold over a finished run's completion columns.

    ``window_s`` is the ``obs.window`` width, ``slos`` the objectives to
    evaluate, ``alpha`` every sketch's error bound.  Pass :meth:`summary`
    and :meth:`events` the *full* result, before warmup rows are dropped.
    Both reproduce bit for bit what a per-event aggregator watching the
    trace stream computes (``tests/obs/live_reference.py``): boundaries
    are ``(k + 1) * window_s`` products, sums run left to right in time
    order, and bucket indexes come from :meth:`QuantileSketch.index_of`.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        slos: Sequence[SLOSpec] = (),
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        self.window_s = check_width("window_s", window_s)
        self.slos = tuple(slos)
        self.alpha = alpha

    # -- summary ----------------------------------------------------------- #

    def summary(self, result: "SimulationResult") -> LiveSummary:
        """The run's :class:`LiveSummary`."""
        end = result.end_time
        rows = self._rows(result)
        windows = _closed_windows(self.window_s, end)
        windows += self._partial_traffic(result.columns, windows, end)
        slo = []
        for spec in self.slos:
            times, values, bins = rows[spec.cls]
            closed = _closed_windows(spec.window_s, end)
            violations = total = bad = 0
            if end > 0 and values:
                windows_seen = list(self._slo_windows(spec, times, values, bins))
                for _, count, over, observed in windows_seen:
                    violations += observed > spec.threshold_s
                    total += count
                    bad += over
                closed += windows_seen[-1][0] >= closed  # the partial closes
            budget = 1.0 - spec.objective
            slo.append({
                "spec": spec.to_dict(), "windows": closed,
                "violations": violations, "completions": total, "bad": bad,
                "burn_rate": (bad / total) / budget if total else 0.0,
            })
        return LiveSummary(
            window_s=self.window_s,
            windows=windows,
            completions=len(rows["all"][1]),
            sketches={
                cls: self._sketch(values, bins)
                for cls, (_, values, bins) in rows.items()
                if values or cls == "all"
            },
            slo=slo,
        )

    def _rows(self, result: "SimulationResult") -> Dict[str, tuple]:
        """Per class: completion times (array), response times and bucket
        indexes (lists) of its completions, in completion order."""
        c = result.columns
        responses = (c["completion"] - c["arrival"]).tolist()
        index_of = QuantileSketch(alpha=self.alpha).index_of
        indexes = [index_of(value) for value in responses]
        rows = {"all": (c["completion"], responses, indexes)}
        for cls, mask in (("read", ~c["is_write"]), ("write", c["is_write"])):
            flags = mask.tolist()
            rows[cls] = (c["completion"][mask], list(compress(responses, flags)),
                         list(compress(indexes, flags)))
        return rows

    def _sketch(self, values: List[float], indexes: list) -> QuantileSketch:
        sketch = QuantileSketch(alpha=self.alpha)
        sketch.add_indexed(values, indexes)
        return sketch

    def _partial_traffic(self, c, closed: int, end: float) -> bool:
        """Whether the partial window after ``closed`` full ones saw an
        arrival, a completion, or the start of an access."""
        start = closed * self.window_s
        if not len(c["arrival"]) or end <= start:
            return False
        np = get_numpy()
        return bool(
            (c["arrival"] > start).any()
            or (c["completion"] > start).any()
            or (np.floor(c["dispatch"] / self.window_s) == closed).any()
        )

    def _slo_windows(
        self, spec: SLOSpec, times, responses: List[float], indexes: list
    ) -> Iterator[Tuple[int, int, int, Optional[float]]]:
        """``(window, completions, bad, observed quantile)`` per SLO window
        that completed a request of the spec's class, in window order."""
        np = get_numpy()
        window = _window_of(times, spec.window_s)
        cuts = [0, *(np.flatnonzero(np.diff(window)) + 1).tolist(), len(times)]
        threshold = spec.threshold_s
        for lo, hi in zip(cuts, cuts[1:]):
            values = responses[lo:hi]
            yield (
                int(window[lo]),
                hi - lo,
                sum(1 for value in values if value > threshold),
                self._sketch(values, indexes[lo:hi]).quantile(spec.objective),
            )

    # -- trace events ------------------------------------------------------ #

    def events(self, result: "SimulationResult") -> List[dict]:
        """The run's ``obs.window``/``slo.violation`` events in trace order.

        Sorted by time; at one boundary the ``obs.window`` event comes
        first and the SLO events follow in spec order; the final partial
        windows (``obs.window`` first) come after every boundary event.
        """
        end = result.end_time
        if end <= 0:
            return []
        keyed = self._window_events(result, end)
        rows = self._rows(result) if self.slos else {}
        for grid, spec in enumerate(self.slos, start=1):
            if rows[spec.cls][1]:
                keyed.extend(self._violations(grid, spec, end, *rows[spec.cls]))
        keyed.sort(key=lambda item: item[0])
        return [event for _, event in keyed]

    def _window_events(self, result: "SimulationResult", end: float) -> list:
        """``(sort key, obs.window event)`` for every closed window."""
        np = get_numpy()
        c = result.columns
        width = self.window_s
        closed, count = self._window_grid(c, end)
        arrivals = Counter(
            _window_of(c["arrival"], width).astype(np.int64).tolist()
        )
        done = _window_of(c["completion"], width).astype(np.int64).tolist()
        completions = Counter(done)
        response_sum: Dict[int, float] = {}
        for window, response in zip(
            done, (c["completion"] - c["arrival"]).tolist()
        ):
            response_sum[window] = response_sum.get(window, 0.0) + response
        busy: Dict[int, float] = {}
        for t, total in zip(c["dispatch"].tolist(), c["total"].tolist()):
            _add_busy(busy, t, total, width)
        # Queue depth after the last arrival/dispatch at each distinct time:
        # events at one instant add an exact 0.0 to the area, so only the
        # depth they leave behind matters.
        times = np.concatenate((c["arrival"], c["dispatch"]))
        order = np.argsort(times, kind="stable")
        times = times[order]
        depths = np.cumsum(np.repeat([1, -1], len(c["arrival"]))[order])
        last = np.ones(len(times), dtype=bool)
        last[:-1] = times[1:] != times[:-1]
        changes = list(zip(
            _window_of(times[last], width).astype(np.int64).tolist(),
            times[last].tolist(),
            depths[last].tolist(),
        ))
        keyed = []
        depth, depth_t, cursor = 0, 0.0, 0
        for window in range(count):
            stop = (window + 1) * width if window < closed else end
            area = 0.0
            while cursor < len(changes) and changes[cursor][0] <= window:
                _, t, after = changes[cursor]
                area += depth * (t - depth_t)
                depth_t, depth = t, after
                cursor += 1
            area += depth * (stop - depth_t)
            depth_t = stop
            start = window * width
            span = stop - start
            done_here = completions.get(window, 0)
            event = {
                "kind": "obs.window", "t": stop, "window": window,
                "start": start, "end": stop,
                "arrivals": arrivals.get(window, 0), "completions": done_here,
                "throughput_iops": done_here / span if span > 0 else 0.0,
                "utilization": busy.get(window, 0.0) / span if span > 0 else 0.0,
                "queue_depth": area / span if span > 0 else 0.0,
            }
            if done_here:
                event["response_mean"] = response_sum[window] / done_here
            keyed.append(((stop, window >= closed, 0, window), event))
        return keyed

    def _window_grid(self, c, end: float) -> Tuple[int, int]:
        """``(closed windows, obs.window events)``: the events add the
        partial window if it saw traffic.  ``ValueError`` beyond
        :data:`MAX_WINDOWS` events, naming the narrowest width accepted."""
        width = self.window_s
        # A grid far past the limit is rejected without counting it
        # exactly (which fails beyond 2**53 windows).
        closed = count = MAX_WINDOWS + 1
        if end / width <= MAX_WINDOWS + 2:
            closed = _closed_windows(width, end)
            count = closed + self._partial_traffic(c, closed, end)
        if count > MAX_WINDOWS:
            # Slightly above end / (MAX_WINDOWS - 1), where at most
            # MAX_WINDOWS - 1 windows close, whatever the rounding of .4g.
            narrowest = end / (MAX_WINDOWS - 1) * 1.001
            raise ValueError(
                f"window {width:g}s is too narrow for a run of {end:g}s: "
                f"more than {MAX_WINDOWS:,} windows; the narrowest window "
                f"accepted for this run is about {narrowest:.4g}s"
            )
        return closed, count

    def _violations(self, grid, spec, end, times, values, bins) -> list:
        """``(sort key, slo.violation event)`` per violating window."""
        closed = _closed_windows(spec.window_s, end)
        budget = 1.0 - spec.objective
        history: Dict[int, Tuple[int, int]] = {}
        keyed = []
        for window, count, bad, observed in self._slo_windows(
            spec, times, values, bins
        ):
            history[window] = (count, bad)
            if observed is None or observed <= spec.threshold_s:
                continue
            trailing = [
                history.get(index, (0, 0))
                for index in range(window - spec.long_windows + 1, window + 1)
            ]
            long_count = sum(entry[0] for entry in trailing)
            long_bad = sum(entry[1] for entry in trailing)
            t = (window + 1) * spec.window_s if window < closed else end
            keyed.append(((t, window >= closed, grid, window), {
                "kind": "slo.violation", "t": t, "class": spec.cls,
                "objective": spec.objective, "threshold": spec.threshold_s,
                "observed": observed, "burn_rate": (bad / count) / budget,
                "burn_rate_long": (long_bad / long_count) / budget,
                "window": window,
            }))
        return keyed


def _add_busy(busy: Dict[int, float], t: float, total: float, width: float):
    """Spread one access's busy time over the windows it overlaps, from
    window ``int(t / width)`` on; a slice for a window whose boundary is
    already behind ``t`` (a rounding edge) is dropped: that window closed
    before the access began."""
    end = t + total
    index = int(t / width)
    if end <= (index + 1) * width:
        busy[index] = busy.get(index, 0.0) + total
        return
    start = t
    while start < end:
        boundary = (index + 1) * width
        slice_end = boundary if boundary < end else end
        if boundary >= t:
            busy[index] = busy.get(index, 0.0) + (slice_end - start)
        start = slice_end
        index += 1


def stream_path(trace_path: str) -> str:
    """Where a traced live run writes its event stream before
    :func:`splice_trace` turns it into ``trace_path``."""
    return trace_path + ".tmp"


def splice_trace(stream: str, trace_path: str, events: Sequence[dict]) -> None:
    """Copy the trace at ``stream`` to ``trace_path`` with ``events``
    interleaved, then delete ``stream`` (also when the copy fails).

    Each event goes right before the first stream line whose ``t`` is
    greater than its own, or else before the closing ``sim.end``.  Stream
    lines are copied as they are, events serialized as
    :class:`~repro.obs.tracer.JsonlTracer` does (a ``.gz`` ``trace_path``
    gets its own name in the gzip header).
    """
    try:
        with _open_text(stream, "r") as source, \
                _open_text(trace_path, "w") as out:
            pending = iter(events)
            event = next(pending, None)
            for line in source:
                if event is not None:
                    t = _line_time(line)
                    while event is not None and event["t"] < t:
                        out.write(json.dumps(event, sort_keys=True) + "\n")
                        event = next(pending, None)
                out.write(line)
    finally:
        os.remove(stream)


def _line_time(line: str) -> float:
    """The ``t`` of one trace line (``inf`` for ``sim.end``); JSON escapes
    quotes inside strings, so ``"t": `` only occurs as the key."""
    if '"kind": "sim.end"' in line:
        return math.inf
    start = line.index('"t": ') + 5
    stop = line.find(",", start)
    return float(line[start:stop if stop >= 0 else line.rindex("}")])
