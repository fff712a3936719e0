"""Sharded multi-device ("fleet") simulation.

The paper's simulator models one MEMS (or disk) device; real deployments
put many behind an OS-level front-end.  This package scales the
single-device stack out to N member devices with the same config-first
contract the rest of the repo uses:

* :class:`FleetConfig` — one frozen, picklable, JSON-round-trippable value
  describing the whole run: member :class:`~repro.sim.SimConfig`
  substrates, the global workload, and the routing policy;
* :data:`ROUTERS` — the router registry (``lbn-range``, ``hash``,
  ``round-robin``, ``least-loaded-static``), sibling of
  ``SCHEDULERS``/``DEVICES``/``WORKLOADS``;
* :mod:`~repro.fleet.frontend` — deterministic sharding of one global
  open-arrival :class:`~repro.sim.batch.RequestBatch` into per-member
  batches in whole-array passes, assignment recorded per rid;
* :mod:`~repro.fleet.run` — shard execution on worker processes
  (:func:`~repro.experiments.parallel.parallel_map`), bit-identical for
  every ``jobs`` value;
* :mod:`~repro.fleet.merge` — deterministic folding of per-shard results,
  metrics, and JSONL traces into one fleet-level
  :class:`~repro.fleet.merge.FleetResult` and merged trace
  (``fleet.route`` events + per-member tagging).

Quick start::

    from repro.fleet import FleetConfig

    fleet = FleetConfig.uniform(16, rate=12_800.0, num_requests=100_000)
    result = fleet.run(jobs=4)          # same bytes as jobs=1
    print(result.to_dict()["fleet"])    # merged fleet-level metrics
"""

from repro.fleet.config import FleetConfig
from repro.fleet.frontend import ShardPlan, shard_requests
from repro.fleet.merge import (
    FleetResult,
    merge_results,
    merge_traces,
    shard_trace_path,
)
from repro.fleet.routing import (
    ROUTERS,
    HashRouter,
    LBNRangeRouter,
    LeastLoadedStaticRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.fleet.run import run_fleet

__all__ = [
    "FleetConfig",
    "FleetResult",
    "ROUTERS",
    "Router",
    "LBNRangeRouter",
    "HashRouter",
    "RoundRobinRouter",
    "LeastLoadedStaticRouter",
    "make_router",
    "ShardPlan",
    "shard_requests",
    "merge_results",
    "merge_traces",
    "shard_trace_path",
    "run_fleet",
]
