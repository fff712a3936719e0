"""Validate and diff JSONL trace files.

Usage::

    python -m repro.obs.validate trace.jsonl            # schema check
    python -m repro.obs.validate --diff a.jsonl b.jsonl # structural diff

Validation checks the ``trace.meta`` header, that every event carries
``kind``/``t`` with sane types, that required per-kind fields are present
(:data:`repro.obs.tracer.EVENT_FIELDS`, including the ``rid`` that ties
``dev.access``/``sched.dispatch`` events to requests), that time never runs
backwards, that every ``dev.access`` event's serialized phases sum to its
total (``positioning + transfer + turnarounds == total``), and that every
``sched.dispatch`` event carrying the SPTF pricing telemetry accounts
for each candidate exactly once (``candidates_priced + candidates_pruned
== candidates``) and names a known selection ``fast_path``
(:data:`FAST_PATHS`) when it carries one.  Live-engine
events (:mod:`repro.obs.live`) get their own checks: every ``obs.window``
must span a non-empty interval with utilization in ``[0, 1]`` and
non-negative counts/queue depth, and every ``slo.violation`` must carry an
objective in ``(0, 1)``, a non-negative burn rate, and an observed
quantile that actually exceeds its threshold.  Merged fleet
traces (:mod:`repro.fleet.merge`) pass the same checks: their
``fleet.route`` events must carry a non-negative ``member`` index and a
localized ``member_lbn`` that is non-negative and no larger than the
fleet-wide ``lbn``.

In file mode, every problem is reported as ``path:LINE`` with the 1-based
line number of the offending event in the (decompressed) JSONL file, so
``sed -n 'LINEp' trace.jsonl`` shows the exact record.

Exit-code contract (relied on by CI and scripts):

* ``0`` — every input trace is valid (or the two diffed traces are
  structurally identical);
* ``1`` — at least one trace is invalid or unreadable / the diffed
  traces differ;
* ``2`` — usage error (unknown flag, wrong argument count; argparse's
  standard exit code).

The diff mode compares two traces of (supposedly) the same scenario: it
reports per-kind event-count deltas and the first event at which the two
streams structurally diverge — ``t`` is compared too, since the simulator
is deterministic.  CI uses validation on a tiny traced run; the diff is the
debugging tool for "this scheduler change altered behaviour, where?".
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import Counter as _Counter
from typing import List, Optional, Sequence

from repro.obs.tracer import (
    EVENT_FIELDS,
    TRACE_SCHEMA,
    iter_trace,
    iter_trace_lines,
)

PHASE_SUM_REL_TOL = 1e-9

FAST_PATHS = frozenset({"scan", "pruned"})
"""Valid ``fast_path`` values in ``sched.dispatch`` events — whether SPTF
priced every candidate or priced best-first by lower bound."""


def validate_events(
    events: Sequence[dict],
    source: str = "<trace>",
    linenos: Optional[Sequence[int]] = None,
) -> List[str]:
    """Return a list of problems (empty when the trace is valid).

    ``linenos`` (parallel to ``events``) switches locations from
    ``source[index]`` to ``source:lineno`` — file mode passes the 1-based
    JSONL line numbers so reports point into the file itself.
    """
    errors: List[str] = []
    if not events:
        return [f"{source}: empty trace"]
    head = events[0]
    if head.get("kind") != "trace.meta":
        errors.append(f"{source}: first event is not trace.meta")
    elif head.get("schema") != TRACE_SCHEMA:
        errors.append(
            f"{source}: schema {head.get('schema')!r} != {TRACE_SCHEMA!r}"
        )
    last_t = -math.inf
    for index, event in enumerate(events):
        if linenos is not None:
            where = f"{source}:{linenos[index]}"
        else:
            where = f"{source}[{index}]"
        kind = event.get("kind")
        if not isinstance(kind, str):
            errors.append(f"{where}: missing/invalid 'kind'")
            continue
        t = event.get("t")
        if not isinstance(t, (int, float)) or t < 0:
            errors.append(f"{where}: {kind}: missing/invalid 't'")
            continue
        if t < last_t - 1e-12:
            errors.append(
                f"{where}: {kind}: time runs backwards ({t} < {last_t})"
            )
        last_t = max(last_t, t)
        required = EVENT_FIELDS.get(kind)
        if required is None:
            errors.append(f"{where}: unknown event kind {kind!r}")
            continue
        missing = [field for field in required if field not in event]
        if missing:
            errors.append(
                f"{where}: {kind}: missing fields {', '.join(missing)}"
            )
            continue
        if kind == "dev.access":
            total = event["total"]
            serialized = (
                event["positioning"] + event["transfer"] + event["turnarounds"]
            )
            if not math.isclose(
                serialized, total, rel_tol=PHASE_SUM_REL_TOL, abs_tol=1e-12
            ):
                errors.append(
                    f"{where}: dev.access phases sum to {serialized!r}, "
                    f"total is {total!r}"
                )
        elif kind == "sched.dispatch" and "candidates_priced" in event:
            candidates = event["candidates"]
            priced = event["candidates_priced"]
            pruned = event.get("candidates_pruned")
            if pruned is None:
                errors.append(
                    f"{where}: sched.dispatch has candidates_priced "
                    f"without candidates_pruned"
                )
            elif (
                priced < 0
                or pruned < 0
                or priced + pruned != candidates
            ):
                errors.append(
                    f"{where}: sched.dispatch prices {priced} + prunes "
                    f"{pruned} != {candidates} candidates"
                )
            fast_path = event.get("fast_path")
            if fast_path is not None and fast_path not in FAST_PATHS:
                errors.append(
                    f"{where}: sched.dispatch has unknown fast_path "
                    f"{fast_path!r} (expected one of "
                    f"{', '.join(sorted(FAST_PATHS))})"
                )
        elif kind == "obs.window":
            if event["end"] <= event["start"]:
                errors.append(
                    f"{where}: obs.window spans [{event['start']}, "
                    f"{event['end']}) — empty or inverted interval"
                )
            if not 0.0 <= event["utilization"] <= 1.0 + PHASE_SUM_REL_TOL:
                errors.append(
                    f"{where}: obs.window utilization "
                    f"{event['utilization']!r} outside [0, 1]"
                )
            if event["completions"] < 0 or event["arrivals"] < 0:
                errors.append(
                    f"{where}: obs.window has negative counts "
                    f"({event['arrivals']} arrivals, "
                    f"{event['completions']} completions)"
                )
            if event["queue_depth"] < 0:
                errors.append(
                    f"{where}: obs.window has negative queue_depth "
                    f"{event['queue_depth']!r}"
                )
        elif kind == "slo.violation":
            if not 0.0 < event["objective"] < 1.0:
                errors.append(
                    f"{where}: slo.violation objective "
                    f"{event['objective']!r} outside (0, 1)"
                )
            if event["threshold"] <= 0 or event["observed"] < 0:
                errors.append(
                    f"{where}: slo.violation has non-positive threshold "
                    f"{event['threshold']!r} or negative observed "
                    f"{event['observed']!r}"
                )
            elif event["observed"] <= event["threshold"]:
                # A violation event exists *because* the observed quantile
                # exceeded the threshold; anything else is emitter drift.
                errors.append(
                    f"{where}: slo.violation observed {event['observed']!r} "
                    f"does not exceed threshold {event['threshold']!r}"
                )
            if event["burn_rate"] < 0:
                errors.append(
                    f"{where}: slo.violation has negative burn_rate "
                    f"{event['burn_rate']!r}"
                )
        elif kind == "fleet.route":
            member = event["member"]
            if not isinstance(member, int) or member < 0:
                errors.append(
                    f"{where}: fleet.route has invalid member {member!r}"
                )
            # Routers only ever subtract a range start (or fold modulo a
            # capacity) from the fleet-wide address, so the localized LBN
            # can never exceed the global one.
            elif event["member_lbn"] < 0 or event["member_lbn"] > event["lbn"]:
                errors.append(
                    f"{where}: fleet.route localizes lbn {event['lbn']} to "
                    f"invalid member_lbn {event['member_lbn']}"
                )
    return errors


def validate_file(path: str) -> List[str]:
    """Validate one JSONL trace file; returns problems (empty = valid).

    Problems are located as ``path:LINE`` using the 1-based line number of
    the offending event.
    """
    linenos: List[int] = []
    events: List[dict] = []
    try:
        for lineno, event in iter_trace_lines(path):
            linenos.append(lineno)
            events.append(event)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    return validate_events(events, source=path, linenos=linenos)


def diff_traces(path_a: str, path_b: str) -> List[str]:
    """Structural differences between two traces (empty = identical)."""
    events_a = list(iter_trace(path_a))
    events_b = list(iter_trace(path_b))
    differences: List[str] = []

    counts_a = _Counter(event.get("kind") for event in events_a)
    counts_b = _Counter(event.get("kind") for event in events_b)
    for kind in sorted(set(counts_a) | set(counts_b)):
        if counts_a[kind] != counts_b[kind]:
            differences.append(
                f"event count: {kind}: {counts_a[kind]} vs {counts_b[kind]}"
            )

    for index, (event_a, event_b) in enumerate(
        itertools.zip_longest(events_a, events_b)
    ):
        if event_a != event_b:
            differences.append(
                f"first divergence at event {index}:\n"
                f"  a: {json.dumps(event_a, sort_keys=True)}\n"
                f"  b: {json.dumps(event_b, sort_keys=True)}"
            )
            break
    return differences


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate (or diff) repro JSONL trace files."
    )
    parser.add_argument("paths", nargs="+", metavar="trace.jsonl")
    parser.add_argument(
        "--diff",
        action="store_true",
        help="compare exactly two traces instead of validating each",
    )
    args = parser.parse_args(argv)

    if args.diff:
        if len(args.paths) != 2:
            parser.error("--diff takes exactly two trace files")
        try:
            differences = diff_traces(*args.paths)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if differences:
            print("\n".join(differences))
            return 1
        print(f"{args.paths[0]} == {args.paths[1]} (structurally identical)")
        return 0

    status = 0
    for path in args.paths:
        errors = validate_file(path)
        if errors:
            status = 1
            print("\n".join(errors))
        else:
            count = sum(1 for _ in iter_trace(path))
            print(f"{path}: OK ({count} events, schema {TRACE_SCHEMA})")
    return status


if __name__ == "__main__":
    sys.exit(main())
