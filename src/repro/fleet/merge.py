"""Deterministic merge of per-shard results, metrics, and traces.

Each shard of a fleet run produces an ordinary single-device
:class:`~repro.sim.statistics.SimulationResult` (and optionally a JSONL
trace).  This module folds them back into one fleet-level view:

* :func:`merge_results` — every shard's completion columns concatenated
  into a single ``SimulationResult`` and put in ``(completion_time, rid)``
  order by one lexsort, so every fleet-level metric
  (mean/percentiles/cv²/throughput) reuses the exact single-device summary
  code.  ``utilization`` over a merged result is
  *aggregate device-seconds per second* — it approaches the member count,
  not 1.0, on a busy fleet.
* :class:`FleetResult` — per-member results plus the merged view and the
  routing record; ``to_dict()`` is the stable exchange format the fleet
  report and CLI render.
* :func:`merge_traces` — a streaming k-way merge of the per-shard JSONL
  traces into one fleet trace: shard headers and ``sim.start``/``sim.end``
  boundaries are replaced by fleet-level ones, every member event gains a
  ``member`` field, and the front-end's ``fleet.route`` events are
  interleaved at their arrival times (sorting before same-time member
  events).  Output is time-ordered (the validator's monotonicity check
  holds), span-complete per rid, and byte-identical for every ``jobs``
  value — the shard traces it merges are themselves deterministic.

Everything here is pure data-plumbing over already-deterministic inputs;
no step depends on worker count, scheduling, or wall clock.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.nputil import get_numpy
from repro.obs.live import LiveSummary, merge_live_summaries
from repro.obs.tracer import JsonlTracer, iter_trace
from repro.sim.config import SimConfig
from repro.sim.statistics import COLUMNS, SimulationResult


def merge_results(results: Sequence[SimulationResult]) -> SimulationResult:
    """Fold per-shard results into one fleet-level ``SimulationResult``.

    Completions are interleaved by ``(completion_time, rid)`` — the order a
    single observer watching the whole fleet would have seen them — with
    one stable lexsort over the concatenated columns, and ``end_time`` is
    the latest shard end, so ``throughput`` is fleet-wide completions per
    second of simulated time.
    """
    if not results:
        return SimulationResult()
    np = get_numpy()
    columns = {
        name: np.concatenate([result.columns[name] for result in results])
        for name, _ in COLUMNS
    }
    order = np.lexsort((columns["rid"], columns["completion"]))
    return SimulationResult(
        {name: column[order] for name, column in columns.items()},
        end_time=max(result.end_time for result in results),
    )


@dataclass
class FleetResult:
    """Everything one fleet run produced, per member and merged.

    ``live`` carries one :class:`~repro.obs.live.LiveSummary` per member
    (``None`` entries for members that ran without live aggregation) when
    the run tracked live observability, else ``None`` — existing consumers
    of non-live runs see an unchanged result.
    """

    members: List[SimulationResult]
    combined: SimulationResult
    member_configs: Tuple[SimConfig, ...]
    router: str
    routed_counts: List[int]
    total_requests: int
    live: Optional[List[Optional[LiveSummary]]] = None

    def __len__(self) -> int:
        return len(self.combined)

    def member_label(self, index: int) -> str:
        config = self.member_configs[index]
        return f"m{index:02d} {config.device}+{config.scheduler}"

    def merged_live(self) -> Optional[LiveSummary]:
        """The fleet-level live summary: per-member sketches folded in
        member-index order (bit-identical for any ``jobs``)."""
        if self.live is None:
            return None
        return merge_live_summaries(self.live)

    def to_dict(self) -> dict:
        """JSON-ready fleet summary: merged metrics + per-member rows.

        ``fleet`` is the merged :meth:`SimulationResult.to_dict`;
        ``per_member`` carries each member's routed/completed counts and
        summary (``None`` for a member that completed nothing).  When the
        run tracked live observability each row also gains a ``live``
        entry and the top level a merged ``live`` section (sketch
        percentiles + SLO compliance); non-live runs dump the exact
        pre-live shape.  The dump is bit-identical across ``jobs`` values
        — the merge-determinism tests compare its JSON bytes.
        """
        per_member = []
        for index, result in enumerate(self.members):
            config = self.member_configs[index]
            row = {
                "member": index,
                "label": self.member_label(index),
                "device": config.device,
                "scheduler": config.scheduler,
                "routed": self.routed_counts[index],
                "completed": len(result),
                "summary": result.to_dict() if len(result) else None,
            }
            if self.live is not None:
                summary = self.live[index]
                row["live"] = (
                    summary.to_dict() if summary is not None else None
                )
            per_member.append(row)
        out = {
            "router": self.router,
            "members": len(self.members),
            "requests": self.total_requests,
            "completed": len(self.combined),
            "fleet": self.combined.to_dict() if len(self.combined) else None,
            "per_member": per_member,
        }
        merged = self.merged_live()
        if merged is not None:
            out["live"] = merged.to_dict()
        return out


# --------------------------------------------------------------------------- #
# trace merge
# --------------------------------------------------------------------------- #

_SHARD_BOUNDARY_KINDS = frozenset({"trace.meta", "sim.start", "sim.end"})


def shard_trace_path(trace_path: str, member: int) -> str:
    """Per-shard trace path derived from the merged fleet trace path.

    Inserts ``.m<NN>`` ahead of the ``.jsonl[.gz]`` suffix so shard traces
    keep the same compression as the merged output
    (``fleet.jsonl.gz`` → ``fleet.m03.jsonl.gz``).
    """
    for suffix in (".jsonl.gz", ".jsonl", ".gz"):
        if trace_path.endswith(suffix):
            stem = trace_path[: -len(suffix)]
            return f"{stem}.m{member:02d}{suffix}"
    return f"{trace_path}.m{member:02d}"


def _shard_events(
    path: str, member: int
) -> Iterator[Tuple[Tuple[float, int, int, int], dict]]:
    """Yield ``(sort_key, event)`` for one shard, boundaries stripped.

    The key is ``(t, 1, member, seq)``: time first, member events after
    same-time ``fleet.route`` events (rank 0), ties across members by
    member index, ties within a member by file order — a total and
    deterministic order over the merged stream.
    """
    for seq, event in enumerate(iter_trace(path)):
        if event.get("kind") in _SHARD_BOUNDARY_KINDS:
            continue
        event["member"] = member
        yield (event["t"], 1, member, seq), event


def _route_entries(
    route_events: Sequence[dict],
) -> Iterator[Tuple[Tuple[float, int, int, int], dict]]:
    for event in route_events:
        yield (event["t"], 0, event["member"], event["rid"]), event


def merge_traces(
    shard_paths: Sequence[str],
    out_path: str,
    route_events: Sequence[dict],
    total_requests: int,
    total_completed: int,
    end_time: float,
    meta: Optional[dict] = None,
) -> None:
    """K-way merge shard traces (+ route events) into one fleet trace.

    Streaming: shard traces are iterated line-by-line and never held in
    memory.  ``meta`` extends the fleet ``trace.meta`` header (the fleet
    runner records the router and member count there).
    """
    streams = [
        _shard_events(path, member)
        for member, path in enumerate(shard_paths)
    ]
    merged = heapq.merge(
        _route_entries(route_events), *streams, key=lambda item: item[0]
    )
    sink = JsonlTracer(out_path, meta=meta)
    try:
        if sink.enabled:
            sink.emit(
                {"kind": "sim.start", "t": 0.0, "requests": total_requests}
            )
            for _key, event in merged:
                sink.emit(event)
            sink.emit(
                {
                    "kind": "sim.end",
                    "t": end_time,
                    "completed": total_completed,
                }
            )
    finally:
        sink.close()


def remove_shard_traces(shard_paths: Sequence[str]) -> None:
    """Delete intermediate per-shard traces after a successful merge."""
    for path in shard_paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
