"""Simulator self-profiler: attribute wall time to subsystems, cheaply.

Answers "where does a simulation spend its host time" — engine loop,
device kinematics, scheduler pricing, or tracing — without an external
profiler, so the benchmark harness can report a subsystem breakdown next
to its throughput numbers and future perf PRs can see what they moved.

Design: **counted-call accounting on the existing hot-path seams**.
:meth:`SimProfiler.instrument` shadows four bound methods with timing
wrappers *on the instances* of one :class:`~repro.sim.engine.Simulation`:

* ``device.service`` — the kinematic model (seek/settle/transfer);
* ``scheduler.pop_next`` — selection/pricing (the SPTF scan or walk);
* ``scheduler.add`` — queue insertion;
* ``tracer.emit`` — the whole obs sink chain.

Each wrapper keeps *self time*: a frame stack subtracts nested wrapped
calls, so a ``dev.access`` event emitted from inside ``device.service``
bills its serialization to ``tracing``, not the device.  Every profiled
instant lands in exactly one bucket; whatever remains of the run's wall
time is the engine loop itself (event queue, dispatch bookkeeping, record
construction), reported as ``engine``.

**Zero cost when off is structural, not a flag check**: the engine has no
profiler hook and the wrappers exist only as instance attributes on an
explicitly instrumented simulation.  An uninstrumented run executes the
exact same bytecode as before this module existed — the benchmark's
profiler-off check asserts the instances carry no shadowing attributes.

Wall-clock reads (``time.perf_counter``) are the point of this module, so
lint rule R2 (host-clock reads) exempts this file by path, like the
experiment runner and the benchmark harnesses
(:data:`repro.analysis.suppress.DEFAULT_ALLOWLIST`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.statistics import SimulationResult

SUBSYSTEMS = ("device", "scheduler.pop", "scheduler.add", "tracing")
"""Instrumented seams, in report order; ``engine`` is the remainder."""


@dataclass
class ProfileReport:
    """One profiled run's subsystem attribution (JSON-ready)."""

    total_s: float
    engine_s: float
    self_s: Dict[str, float]
    calls: Dict[str, int]

    def to_dict(self) -> dict:
        subsystems = {}
        for key in SUBSYSTEMS:
            seconds = self.self_s.get(key, 0.0)
            subsystems[key] = {
                "calls": self.calls.get(key, 0),
                "self_s": round(seconds, 6),
                "share": round(seconds / self.total_s, 4)
                if self.total_s > 0 else 0.0,
            }
        return {
            "total_s": round(self.total_s, 6),
            "engine_s": round(self.engine_s, 6),
            "engine_share": round(self.engine_s / self.total_s, 4)
            if self.total_s > 0 else 0.0,
            "subsystems": subsystems,
        }


class SimProfiler:
    """Instrument one simulation's hot-path seams with timing wrappers.

    Usage::

        profiler = SimProfiler()
        profiler.instrument(sim)
        result, report = profiler.profile(sim, requests)

    ``instrument`` may be followed by :meth:`restore` to strip the
    wrappers again (the instances return to plain class-method dispatch).
    One profiler instruments one simulation at a time.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {key: 0.0 for key in SUBSYSTEMS}
        self.calls: Dict[str, int] = {key: 0 for key in SUBSYSTEMS}
        self._stack: List[List] = []
        self._restores: List[Tuple[object, str]] = []

    def _wrap(self, key: str, func: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        perf_counter = time.perf_counter

        def timed(*args, **kwargs):
            frame = [key, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[1]
                stack.pop()
                self_s[key] += elapsed - frame[2]
                calls[key] += 1
                if stack:
                    # Bill the whole nested interval to the child: the
                    # parent's self time excludes it.
                    stack[-1][2] += elapsed

        timed._sim_profiler = self  # type: ignore[attr-defined]
        return timed

    def instrument(self, simulation: "Simulation") -> "SimProfiler":
        """Shadow the hot-path seams of ``simulation`` with wrappers."""
        if self._restores:
            raise RuntimeError("profiler is already instrumenting a run")
        seams = [
            (simulation.device, "service", "device"),
            (simulation.scheduler, "pop_next", "scheduler.pop"),
            (simulation.scheduler, "add", "scheduler.add"),
        ]
        if simulation.tracer.enabled:
            seams.append((simulation.tracer, "emit", "tracing"))
        for obj, name, key in seams:
            self._restores.append((obj, name))
            setattr(obj, name, self._wrap(key, getattr(obj, name)))
        return self

    def restore(self) -> None:
        """Strip the wrappers; instances return to class-method dispatch."""
        for obj, name in self._restores:
            try:
                delattr(obj, name)
            except AttributeError:
                pass
        self._restores = []

    def report(self, total_s: float) -> ProfileReport:
        """Attribution report for a run that took ``total_s`` wall seconds.

        Every profiled instant is billed to exactly one subsystem (the
        innermost wrapped frame), so ``engine`` — the event loop, queue
        maintenance, and record construction — is the exact remainder.
        """
        attributed = sum(self.self_s.values())
        return ProfileReport(
            total_s=total_s,
            engine_s=max(total_s - attributed, 0.0),
            self_s=dict(self.self_s),
            calls=dict(self.calls),
        )

    def profile(
        self, simulation: "Simulation", requests
    ) -> Tuple["SimulationResult", ProfileReport]:
        """Run ``simulation`` over ``requests`` under instrumentation.

        Instruments (if not already), times the run, restores the seams,
        and returns the untouched result next to the attribution report.
        """
        if not self._restores:
            self.instrument(simulation)
        start = time.perf_counter()
        try:
            result = simulation.run(requests)
        finally:
            total = time.perf_counter() - start
            self.restore()
        return result, self.report(total)


def is_instrumented(simulation: "Simulation") -> bool:
    """True when any hot-path seam of ``simulation`` is shadowed.

    The benchmark's profiler-off zero-cost check: a fresh simulation must
    return ``False`` — proof the uninstrumented hot path carries no
    profiler residue (dispatch goes straight to the class methods).
    """
    return (
        "service" in vars(simulation.device)
        or "pop_next" in vars(simulation.scheduler)
        or "add" in vars(simulation.scheduler)
        or "emit" in vars(simulation.tracer)
    )
