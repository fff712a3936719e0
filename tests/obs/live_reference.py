"""The per-event live aggregator: the oracle for :mod:`repro.obs.live`.

:class:`StreamingLiveAggregator` is the :class:`~repro.obs.tracer.Tracer`
that computed live observability before the columnar fold: it sits between
the simulation and its trace sink, folds every event into tumbling windows
and quantile sketches as the run goes, and interleaves ``obs.window`` and
``slo.violation`` events into the stream at their boundary times.  The
tests run it next to :class:`repro.obs.live.LiveAggregator` and require the
same :class:`~repro.obs.live.LiveSummary` bytes and the same trace bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.live import DEFAULT_WINDOW_S, LiveSummary, SLOSpec
from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch
from repro.obs.tracer import NULL_TRACER, Tracer


class _SLOTracker:
    """Per-spec tumbling-window state (one instance per :class:`SLOSpec`)."""

    __slots__ = ("spec", "window", "sketch", "count", "bad",
                 "history", "windows", "violations", "total", "total_bad",
                 "alpha")

    def __init__(self, spec: SLOSpec, alpha: float) -> None:
        self.spec = spec
        self.alpha = alpha
        self.window = 0
        self.sketch = QuantileSketch(alpha=alpha)
        self.count = 0
        self.bad = 0
        # (count, bad) per closed window, trailing long_windows entries.
        self.history: List[Tuple[int, int]] = []
        self.windows = 0
        self.violations = 0
        self.total = 0
        self.total_bad = 0

    def boundary(self) -> float:
        """Simulated time at which the current window closes."""
        return (self.window + 1) * self.spec.window_s

    def observe(self, response: float, index: Optional[int]) -> None:
        """Fold one completion in. ``index`` is the precomputed
        :meth:`QuantileSketch.index_of` result for ``response`` — every
        tracker shares the aggregator's alpha, so the logarithm is paid
        once per completion across the whole sketch fan-out."""
        self.sketch.add_with_index(response, index)
        self.count += 1
        if response > self.spec.threshold_s:
            self.bad += 1

    def close_window(self, end: float) -> Optional[dict]:
        """Close the current window; returns a ``slo.violation`` event or
        ``None`` when the window met its objective (or saw no traffic)."""
        spec = self.spec
        count, bad = self.count, self.bad
        self.windows += 1
        self.total += count
        self.total_bad += bad
        self.history.append((count, bad))
        if len(self.history) > spec.long_windows:
            del self.history[0]
        event: Optional[dict] = None
        if count:
            observed = self.sketch.quantile(spec.objective)
            budget = 1.0 - spec.objective
            burn = (bad / count) / budget
            long_count = sum(entry[0] for entry in self.history)
            long_bad = sum(entry[1] for entry in self.history)
            burn_long = (
                (long_bad / long_count) / budget if long_count else 0.0
            )
            if observed is not None and observed > spec.threshold_s:
                self.violations += 1
                event = {
                    "kind": "slo.violation",
                    "t": end,
                    "class": spec.cls,
                    "objective": spec.objective,
                    "threshold": spec.threshold_s,
                    "observed": observed,
                    "burn_rate": burn,
                    "burn_rate_long": burn_long,
                    "window": self.window,
                }
        self.window += 1
        self.sketch = QuantileSketch(alpha=self.alpha)
        self.count = 0
        self.bad = 0
        return event

    def stats(self) -> dict:
        """Cumulative per-spec stats (JSON-ready, merge-friendly)."""
        budget = 1.0 - self.spec.objective
        burn = (self.total_bad / self.total) / budget if self.total else 0.0
        return {
            "spec": self.spec.to_dict(),
            "windows": self.windows,
            "violations": self.violations,
            "completions": self.total,
            "bad": self.total_bad,
            "burn_rate": burn,
        }


class StreamingLiveAggregator(Tracer):
    """Streaming windowed aggregation over the live event stream.

    Wraps a downstream sink (the JSONL/sampling chain, or
    :data:`~repro.obs.tracer.NULL_TRACER` for summary-only runs): every
    incoming event is forwarded unchanged, and ``obs.window`` /
    ``slo.violation`` events are interleaved at their window-boundary
    times.  Wrap *outside* a :class:`~repro.obs.tracer.SamplingTracer` so
    the aggregator sees the full stream — its own events carry no ``rid``,
    so the sampler forwards them regardless.

    Per-event cost is a few dict operations plus one logarithm per
    completion (shared across the class/window sketch fan-out via
    :meth:`QuantileSketch.index_of`).
    """

    def __init__(
        self,
        downstream: Optional[Tracer] = None,
        window_s: float = DEFAULT_WINDOW_S,
        slos: Sequence[SLOSpec] = (),
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0: {window_s}")
        self.downstream_tracer = (
            downstream if downstream is not None else NULL_TRACER
        )
        self.window_s = window_s
        self.slos = tuple(slos)
        self.alpha = alpha
        self._trackers = [_SLOTracker(spec, alpha) for spec in self.slos]
        # Completion-path routing, resolved once: trackers watching every
        # class, and the rest keyed by the class they watch.
        self._all_trackers = tuple(
            tracker for tracker in self._trackers if tracker.spec.cls == "all"
        )
        self._cls_trackers: Dict[str, Tuple[_SLOTracker, ...]] = {}
        for tracker in self._trackers:
            cls = tracker.spec.cls
            if cls != "all":
                self._cls_trackers[cls] = self._cls_trackers.get(cls, ()) + (
                    tracker,
                )
        # Run-level per-class sketches ("all" plus each io kind seen).
        self._sketches: Dict[str, QuantileSketch] = {
            "all": QuantileSketch(alpha=alpha)
        }
        self._rid_class: Dict[int, str] = {}
        # Current obs.window state.
        self._window = 0
        self._arrivals = 0
        self._completions = 0
        self._response_sum = 0.0
        self._busy: Dict[int, float] = {}  # window index -> busy seconds
        self._depth = 0
        self._depth_t = 0.0
        self._depth_area = 0.0  # depth-seconds inside the current window
        self._windows_emitted = 0
        self._total_completions = 0
        self._end_t = 0.0
        self._flushed = False
        # Hot-path caches: the run-level "all" sketch (looked up once, not
        # per completion) and the earliest upcoming boundary across the
        # obs grid and every SLO grid — so the per-event crossing check is
        # one float compare instead of a method call and a tracker scan.
        # _advance() refreshes the cache whenever a window closes.
        self._all_sketch = self._sketches["all"]
        self._boundary = self._next_boundary()

    # -- Tracer protocol -------------------------------------------------- #

    def emit(self, event: dict) -> None:
        # This method runs once per simulation event; the folds are inlined
        # (no helper calls on the common branches) and the boundary check
        # is a single compare against the cached ``_boundary``.
        kind = event["kind"]
        t = event["t"]
        if t > self._end_t:
            self._end_t = t
        # Close every window whose boundary this event crosses, in
        # boundary-time order, *before* forwarding the event — output
        # stays time-monotonic.  The crossing is strict (t > boundary):
        # an event landing exactly on a boundary counts into the closing
        # window, so completions at the run's final instant are never
        # dropped into a zero-width tail window.
        if t > self._boundary:
            self._advance(t)
        if kind == "sim.complete":
            self._on_complete(event, t)
        elif kind == "sim.arrival":
            self._rid_class[event["rid"]] = event["io"]
            self._arrivals += 1
            self._depth_area += self._depth * (t - self._depth_t)
            self._depth_t = t
            self._depth = event["queue_depth"]
        elif kind == "sim.dispatch":
            # queue_depth is the pending depth *before* the pick.
            self._depth_area += self._depth * (t - self._depth_t)
            self._depth_t = t
            self._depth = event["queue_depth"] - 1
        elif kind == "dev.access":
            self._add_busy(t, event["total"])
        elif kind == "sim.end":
            self._flush(t)
        downstream = self.downstream_tracer
        if downstream.enabled:
            downstream.emit(event)

    def close(self) -> None:
        if not self._flushed and (
            self._arrivals or self._completions or self._windows_emitted
        ):
            self._flush(self._end_t)
        self.downstream_tracer.close()

    # -- per-kind folds ---------------------------------------------------- #

    def _on_complete(self, event: dict, t: float) -> None:
        response = event["response"]
        cls = self._rid_class.pop(event["rid"], None)
        all_sketch = self._all_sketch
        index = all_sketch.index_of(response)
        all_sketch.add_with_index(response, index)
        if cls is not None:
            sketch = self._sketches.get(cls)
            if sketch is None:
                sketch = self._sketches[cls] = QuantileSketch(alpha=self.alpha)
            sketch.add_with_index(response, index)
        self._completions += 1
        self._total_completions += 1
        self._response_sum += response
        for tracker in self._all_trackers:
            tracker.observe(response, index)
        if cls is not None and self._cls_trackers:
            for tracker in self._cls_trackers.get(cls, ()):
                tracker.observe(response, index)

    def _add_busy(self, t: float, total: float) -> None:
        """Spread one access's busy time across the windows it overlaps."""
        window_s = self.window_s
        busy = self._busy
        end = t + total
        if end > self._end_t:
            self._end_t = end
        index = int(t / window_s)
        if end <= (index + 1) * window_s:
            # Common case: the access fits inside one window.
            busy[index] = busy.get(index, 0.0) + total
            return
        while t < end:
            boundary = (index + 1) * window_s
            slice_end = boundary if boundary < end else end
            busy[index] = busy.get(index, 0.0) + (slice_end - t)
            t = slice_end
            index += 1

    # -- window machinery -------------------------------------------------- #

    def _next_boundary(self) -> float:
        boundary = (self._window + 1) * self.window_s
        for tracker in self._trackers:
            candidate = tracker.boundary()
            if candidate < boundary:
                boundary = candidate
        return boundary

    def _advance(self, t: float, inclusive: bool = False) -> None:
        """Close every window with boundary < ``t``, oldest first.

        ``inclusive`` also closes a window ending exactly at ``t`` — the
        end-of-run flush uses it so a boundary-coincident final event is
        flushed with the window it was counted into.
        """
        while True:
            boundary = self._next_boundary()
            if boundary > t or (boundary == t and not inclusive):
                self._boundary = boundary
                return
            obs_boundary = (self._window + 1) * self.window_s
            if obs_boundary <= boundary:
                self._close_obs_window(obs_boundary, obs_boundary)
            for tracker in self._trackers:
                if tracker.boundary() <= boundary:
                    violation = tracker.close_window(boundary)
                    if violation is not None:
                        downstream = self.downstream_tracer
                        if downstream.enabled:
                            downstream.emit(violation)

    def _close_obs_window(self, end: float, t: float) -> None:
        """Emit one ``obs.window`` event for the window ending at ``end``."""
        window_s = self.window_s
        start = self._window * window_s
        width = end - start
        self._depth_area += self._depth * (end - self._depth_t)
        self._depth_t = end
        busy = self._busy.pop(self._window, 0.0)
        completions = self._completions
        event = {
            "kind": "obs.window",
            "t": t,
            "window": self._window,
            "start": start,
            "end": end,
            "arrivals": self._arrivals,
            "completions": completions,
            "throughput_iops": completions / width if width > 0 else 0.0,
            "utilization": busy / width if width > 0 else 0.0,
            "queue_depth": self._depth_area / width if width > 0 else 0.0,
        }
        if completions:
            event["response_mean"] = self._response_sum / completions
        downstream = self.downstream_tracer
        if downstream.enabled:
            downstream.emit(event)
        self._windows_emitted += 1
        self._window += 1
        self._arrivals = 0
        self._completions = 0
        self._response_sum = 0.0
        self._depth_area = 0.0

    def _flush(self, end: float) -> None:
        """Close the final (partial) windows at simulation end."""
        if self._flushed:
            return
        self._flushed = True
        if end > 0:
            self._advance(end, inclusive=True)
            # Partial obs window: [window*W, end) with its true width.
            if end > self._window * self.window_s and (
                self._arrivals or self._completions or
                self._window in self._busy
            ):
                self._close_obs_window(end, end)
            for tracker in self._trackers:
                if tracker.count:
                    violation = tracker.close_window(end)
                    if violation is not None:
                        downstream = self.downstream_tracer
                        if downstream.enabled:
                            downstream.emit(violation)

    # -- read-back --------------------------------------------------------- #

    def summary(self) -> LiveSummary:
        """Snapshot the run-level state (call after the run completes)."""
        return LiveSummary(
            window_s=self.window_s,
            windows=self._windows_emitted,
            completions=self._total_completions,
            sketches=dict(self._sketches),
            slo=[tracker.stats() for tracker in self._trackers],
        )
