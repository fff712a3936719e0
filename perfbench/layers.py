"""Outside-in per-layer tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer with timing wrappers:

* methods at class level (scheduler ``add``/``pop_next``, device
  ``service``/``estimate_positioning[_batch]``/``prime_request_profiles``,
  generator ``generate``/``generate_batch``, ``Simulation.run``, the public
  ``SimulationResult`` methods and properties, ``LiveAggregator.emit`` and
  ``summary``), so forked workers inherit them and the untraced
  ``_run_fast`` loop picks them up through its bound-method lookups;
* module-level functions (``parallel_map``, ``shard_requests``,
  ``merge_results``) in every ``repro`` module that imported them.

Each process keeps a stack of open calls.  A call into a *coarse*
operation (about one per run or per task) becomes a span: id, layer, op,
start, end, parent span, pid and self time.  A call into a *hot*
operation (per request or per event) is rolled up into its enclosing span
as ``(calls, total_s, self_s)``, which keeps the dump bounded on runs with
millions of calls.  A call into a layer from inside the same layer (a
``super().add`` chain, the scalar oracle a batch oracle falls back to, a
property that ``to_dict`` reads) passes straight through, so each layer
counts its outermost calls only.  Self time is a call's duration minus the
time its traced children cover; the root span's self time is the explicit
unattributed remainder.

``parallel_map`` wraps the work function so every task returns its
worker-side start/end stamps, result size and recorder dump alongside the
result; the wrapper strips them before the caller sees the results.  A
picklable work function stays picklable (``_Task``), so the choice between
the persistent pool and the per-call fork pool does not change.
"""

from __future__ import annotations

import functools
import gc
import os
import pickle
import sys
import time
from typing import Dict, List, Optional

clock = time.monotonic

_rec: Optional["Recorder"] = None


class Recorder:
    """Per-process span stack, finished spans, hot-call rollups, counters."""

    def __init__(self, root_layer: str, root_op: str, parent=None) -> None:
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.rollups: Dict[tuple, list] = {}
        self.counters: Dict[str, float] = {}
        self.foreign: List[dict] = []
        self.ingest_start: Optional[float] = None
        self._seq = 0
        self.cur = parent
        self.stack: List[list] = []
        self.push(root_layer, root_op)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def push(self, layer: str, op: str) -> str:
        self._seq += 1
        span_id = f"{self.pid}.{self._seq}"
        self.stack.append([layer, clock(), 0.0, span_id, op, self.cur])
        self.cur = span_id
        return span_id

    def pop(self, end: Optional[float] = None) -> None:
        if end is None:
            end = clock()
        layer, start, child, span_id, op, parent = self.stack.pop()
        total = end - start
        if self.stack:
            self.stack[-1][2] += total
        self.spans.append(
            {
                "id": span_id, "layer": layer, "op": op, "start": start,
                "end": end, "parent": parent, "pid": self.pid,
                "self_s": total - child,
            }
        )
        self.cur = parent

    def finish(self, end: float) -> None:
        while self.stack:
            if len(self.stack[-1]) == 6:
                self.pop(end)
            else:  # an open hot frame: cannot happen unless a call leaked
                raise RuntimeError(f"unclosed {self.stack[-1][0]} call")

    def dump(self) -> dict:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "rollups": [
                [span, op, calls, total, own]
                for (span, op), (calls, total, own) in self.rollups.items()
            ],
            "counters": self.counters,
        }


def _roll(rec: Recorder, op: str, frame: list, end: float) -> None:
    stack = rec.stack
    total = end - frame[1]
    stack[-1][2] += total
    key = (rec.cur, op)
    roll = rec.rollups.get(key)
    if roll is None:
        rec.rollups[key] = [1, total, total - frame[2]]
    else:
        roll[0] += 1
        roll[1] += total
        roll[2] += total - frame[2]


def _hot(fn, layer: str, op: str, pre=None, post=None):
    def wrapper(*args, **kwargs):
        rec = _rec
        stack = rec.stack
        if stack[-1][0] == layer:
            return fn(*args, **kwargs)
        if pre is not None:
            pre(rec, args)
        frame = [layer, clock(), 0.0]
        stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            _roll(rec, op, frame, end)
            if post is not None:
                post(rec, args, result)

    return functools.wraps(fn)(wrapper)


def _coarse(fn, layer: str, op: str, pre=None, post=None):
    def wrapper(*args, **kwargs):
        rec = _rec
        if rec.stack[-1][0] == layer:
            return fn(*args, **kwargs)
        if pre is not None:
            pre(rec, args)
        rec.push(layer, op)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.pop()
            if post is not None:
                post(rec, args, result)

    return functools.wraps(fn)(wrapper)


def _gc_callback(phase: str, info: dict) -> None:
    rec = _rec
    if not rec.stack:  # the recording has ended
        return
    if phase == "start":
        rec.stack.append(["gc", clock(), 0.0])
    elif rec.stack[-1][0] == "gc" and len(rec.stack[-1]) == 3:
        frame = rec.stack.pop()
        _roll(rec, "gc.collect", frame, clock())


# -- hooks -------------------------------------------------------------------- #


def _engine_pre(rec, args):
    rec.ingest_start = clock()


def _engine_post(rec, args, result):
    rec.ingest_start = None
    scheduler = args[0].scheduler
    hits = getattr(scheduler, "cache_hits", None)
    misses = getattr(scheduler, "cache_misses", None)
    if isinstance(hits, int) and isinstance(misses, int):
        rec.count("sptf_cache_hits", hits)
        rec.count("sptf_cache_misses", misses)


def _add_pre(rec, args):
    if rec.ingest_start is not None:
        rec.count("engine.ingest_s", clock() - rec.ingest_start)
        rec.ingest_start = None


def _pop_pre(rec, args):
    rec.count("depth_sum", len(args[0]))


def _estimate_pre(rec, args):
    rec.count("estimates", 1)


def _estimate_batch_pre(rec, args):
    rec.count("estimates", len(args[1]))


def _generate_post(rec, args, result):
    if result is not None:
        rec.count("workloads.requests", len(result))


# -- parallel_map --------------------------------------------------------------- #


def _run_task(fn, task, parent_pid: int, map_id: str):
    global _rec
    pid = os.getpid()
    if pid == parent_pid:  # the sequential in-process fallback
        start = clock()
        result = fn(*task)
        return result, (pid, start, clock(), None, 0)
    rec = _rec = Recorder("worker", "parallel.task", parent=map_id)
    start = rec.stack[0][1]
    result = fn(*task)
    end = clock()
    rec.finish(end)
    size = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    return result, (pid, start, end, rec.dump(), size)


class _Task:
    """Picklable stand-in for a picklable work function."""

    def __init__(self, fn, parent_pid: int, map_id: str) -> None:
        self.fn = fn
        self.parent_pid = parent_pid
        self.map_id = map_id

    def __call__(self, *task):
        return _run_task(self.fn, task, self.parent_pid, self.map_id)


def _picklable(fn) -> bool:
    try:
        pickle.dumps(fn)
    except Exception:
        return False
    return True


def _traced_parallel_map(original):
    def parallel_map(point_fn, tasks, jobs=None):
        rec = _rec
        map_id = rec.push("parallel", "parallel.map")
        t0 = rec.stack[-1][1]
        parent_pid = os.getpid()
        try:
            if _picklable(point_fn):
                work = _Task(point_fn, parent_pid, map_id)
            else:
                def work(*task):
                    return _run_task(point_fn, task, parent_pid, map_id)
            outcomes = original(work, tasks, jobs=jobs)
            t1 = clock()
            results = []
            pids = set()
            busy = ship = 0.0
            last_end = t0
            for result, (pid, start, end, dump, size) in outcomes:
                results.append(result)
                pids.add(pid)
                busy += end - start
                ship += start - t0
                last_end = max(last_end, end)
                rec.count("parallel.result_bytes", size)
                if dump is not None:
                    rec.foreign.append(dump)
            workers = len(pids)
            rec.count("parallel.maps")
            rec.counters["parallel.workers"] = max(
                workers, rec.counters.get("parallel.workers", 0)
            )
            rec.count("parallel.map_s", t1 - t0)
            rec.count("parallel.worker_capacity_s", workers * (t1 - t0))
            rec.count("parallel.worker_busy_s", busy)
            rec.count("parallel.ship_s", ship)
            rec.count("parallel.tail_s", t1 - last_end)
            return results
        finally:
            rec.pop()

    return functools.wraps(original)(parallel_map)


# -- installation --------------------------------------------------------------- #


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def _wrap_methods(classes, layer: str, table: dict) -> None:
    """``table``: method name -> (op, kind, pre, post); own methods only."""
    for cls in classes:
        for name, (op, kind, pre, post) in table.items():
            fn = cls.__dict__.get(name)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            setattr(cls, name, kind(fn, layer, op, pre, post))


def _wrap_functions(originals: dict) -> None:
    """Replace each original function everywhere a ``repro`` module holds it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            replacement = originals.get(id(value))
            if replacement is not None and replacement[0] is value:
                setattr(module, attr, replacement[1])


def install() -> None:
    """Install every layer wrapper and the GC callback (once per process)."""
    global _rec
    from repro.core.scheduling import Scheduler
    from repro.disk import DiskDevice
    # Imported so the module-level references they hold get replaced.
    from repro.experiments import common, parallel  # noqa: F401
    from repro.fleet import frontend, merge, run  # noqa: F401
    from repro.mems import MEMSDevice
    from repro.obs.live import LiveAggregator
    from repro.sim.engine import Simulation
    from repro.sim.statistics import SimulationResult
    from repro import workloads

    _rec = Recorder("driver", "driver.idle")
    _wrap_methods(
        _subclasses(Scheduler),
        "scheduling",
        {
            "add": ("scheduling.add", _hot, _add_pre, None),
            "pop_next": ("scheduling.pop", _hot, _pop_pre, None),
        },
    )
    for root, layer in ((MEMSDevice, "mems"), (DiskDevice, "disk")):
        _wrap_methods(
            _subclasses(root),
            layer,
            {
                "service": (f"{layer}.service", _hot, None, None),
                "estimate_positioning": (
                    f"{layer}.estimate", _hot, _estimate_pre, None
                ),
                "estimate_positioning_batch": (
                    f"{layer}.estimate_batch", _hot, _estimate_batch_pre, None
                ),
                "prime_request_profiles": (
                    f"{layer}.prime", _coarse, None, None
                ),
            },
        )
    generators = [
        getattr(workloads, name)
        for name in workloads.__all__
        if hasattr(getattr(workloads, name), "generate")
    ]
    _wrap_methods(
        generators,
        "workloads",
        {
            "generate": ("workloads.generate", _coarse, None, _generate_post),
            "generate_batch": (
                "workloads.generate_batch", _coarse, None, _generate_post
            ),
        },
    )
    _wrap_methods(
        _subclasses(Simulation),
        "engine",
        {"run": ("engine.run", _coarse, _engine_pre, _engine_post)},
    )
    _wrap_methods(
        _subclasses(LiveAggregator),
        "obs",
        {
            "emit": ("obs.emit", _hot, None, None),
            "summary": ("obs.summary", _coarse, None, None),
        },
    )
    for name, value in list(vars(SimulationResult).items()):
        if name.startswith("_"):
            continue
        if isinstance(value, property):
            wrapped = _hot(value.fget, "statistics", f"statistics.{name}")
            setattr(SimulationResult, name, property(wrapped, doc=value.__doc__))
        elif callable(value):
            setattr(
                SimulationResult,
                name,
                _hot(value, "statistics", f"statistics.{name}"),
            )
    originals = {}
    for fn, wrapped in (
        (parallel.parallel_map, _traced_parallel_map(parallel.parallel_map)),
        (frontend.shard_requests,
         _coarse(frontend.shard_requests, "fleet", "fleet.shard")),
        (merge.merge_results,
         _coarse(merge.merge_results, "fleet", "fleet.merge")),
    ):
        originals[id(fn)] = (fn, wrapped)
    _wrap_functions(originals)
    gc.callbacks.append(_gc_callback)


def begin() -> Recorder:
    """Start a fresh recording whose root span is the measured run."""
    global _rec
    _rec = Recorder("driver", "driver.run")
    return _rec


def end(when: float) -> List[dict]:
    """Close the root span at ``when``; return the dumps of this process and
    of every worker task."""
    rec = _rec
    rec.finish(when)
    return [rec.dump()] + rec.foreign


# -- derived metrics ------------------------------------------------------------ #


def op_totals(dumps: List[dict]) -> Dict[str, list]:
    """op -> [calls, total_s, self_s] over every span and rollup."""
    totals: Dict[str, list] = {}
    for dump in dumps:
        for span in dump["spans"]:
            entry = totals.setdefault(span["op"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self_s"]
        for _, op, calls, total, own in dump["rollups"]:
            entry = totals.setdefault(op, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
    return totals


def self_by_layer(dump: dict) -> Dict[str, float]:
    """Self seconds per layer within one process's dump."""
    layers: Dict[str, float] = {}
    for span in dump["spans"]:
        layer = span["layer"]
        layers[layer] = layers.get(layer, 0.0) + span["self_s"]
    for _, op, _, _, own in dump["rollups"]:
        layer = op.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def layer_metrics(dumps: List[dict]) -> Dict[str, float]:
    """The per-layer metric values of one traced run (import.* and trace.*
    are added by the benchmark parent)."""
    ops = op_totals(dumps)
    counters: Dict[str, float] = {}
    for dump in dumps:
        for name, value in dump["counters"].items():
            if name == "parallel.workers":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def calls(*names):
        return sum(ops.get(name, (0, 0.0, 0.0))[0] for name in names)

    def total(*names):
        return sum(ops.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names):
        return sum(ops.get(name, (0, 0.0, 0.0))[2] for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    stats_ops = [op for op in ops if op.startswith("statistics.")]
    pops = calls("scheduling.pop")
    hits = counters.get("sptf_cache_hits", 0)
    misses = counters.get("sptf_cache_misses", 0)
    map_s = counters.get("parallel.map_s", 0.0)
    metrics = {
        "workloads.calls": calls("workloads.generate", "workloads.generate_batch"),
        "workloads.requests": counters.get("workloads.requests", 0),
        "workloads.s": total("workloads.generate", "workloads.generate_batch"),
        "engine.runs": calls("engine.run"),
        "engine.run_s": total("engine.run"),
        "engine.ingest_s": counters.get("engine.ingest_s", 0.0),
        "engine.self_s": own("engine.run"),
        "scheduling.add_calls": calls("scheduling.add"),
        "scheduling.add_s": total("scheduling.add"),
        "scheduling.pop_calls": pops,
        "scheduling.pop_s": total("scheduling.pop"),
        "scheduling.mean_depth": ratio(counters.get("depth_sum", 0), pops),
        "scheduling.estimates_per_pop": ratio(counters.get("estimates", 0), pops),
        "scheduling.sptf_cache_hit_ratio": ratio(hits, hits + misses),
        "parallel.maps": counters.get("parallel.maps", 0),
        "parallel.workers": counters.get("parallel.workers", 0),
        "parallel.map_s": map_s,
        "parallel.worker_busy_s": counters.get("parallel.worker_busy_s", 0.0),
        "parallel.efficiency": ratio(
            counters.get("parallel.worker_busy_s", 0.0),
            counters.get("parallel.worker_capacity_s", 0.0),
        ),
        "parallel.ship_s": counters.get("parallel.ship_s", 0.0),
        "parallel.tail_s": counters.get("parallel.tail_s", 0.0),
        "parallel.result_bytes": counters.get("parallel.result_bytes", 0),
        "fleet.shard_s": total("fleet.shard"),
        "fleet.merge_s": total("fleet.merge"),
        "obs.emit_calls": calls("obs.emit"),
        "obs.emit_s": total("obs.emit"),
        "obs.summary_s": total("obs.summary"),
        "gc.collections": calls("gc.collect"),
        "gc.pause_s": total("gc.collect"),
        "statistics.calls": calls(*stats_ops),
        "statistics.s": total(*stats_ops),
    }
    for layer in ("mems", "disk"):
        metrics[f"{layer}.service_calls"] = calls(f"{layer}.service")
        metrics[f"{layer}.service_s"] = total(f"{layer}.service")
        metrics[f"{layer}.estimate_calls"] = calls(
            f"{layer}.estimate", f"{layer}.estimate_batch"
        )
        metrics[f"{layer}.estimate_s"] = total(
            f"{layer}.estimate", f"{layer}.estimate_batch"
        )
    metrics["mems.prime_s"] = total("mems.prime")
    return metrics
