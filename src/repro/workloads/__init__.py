"""Workload generators and trace I/O (§3, §4.3).

Every generator's ``generate(count)`` returns a
:class:`~repro.sim.batch.RequestBatch`, the one stream type this package
hands out:

* :class:`~repro.workloads.synthetic.RandomWorkload` — the paper's *random*
  workload (Poisson arrivals, 67 % reads, exponential 4 KB sizes, uniform
  locations);
* :class:`~repro.workloads.synthetic.UniformFixedWorkload` — back-to-back
  fixed-size requests for the service-time experiments (Figs. 9–11);
* :class:`~repro.workloads.synthetic.SequentialWorkload` — a sequential
  stream through one extent (§2.4.11's prefetch target);
* :class:`~repro.workloads.cello.CelloLikeWorkload`,
  :class:`~repro.workloads.tpcc.TPCCLikeWorkload` — synthetic stand-ins for
  the proprietary Cello and TPC-C traces (see DESIGN.md §2), replayed at
  the paper's trace scale through
  :meth:`~repro.sim.batch.RequestBatch.scale_arrivals` (footnote 2);
* :func:`~repro.workloads.traces.read_trace` /
  :func:`~repro.workloads.traces.write_trace` — a stream as ASCII lines.
"""

from repro.sim.batch import RequestBatch
from repro.workloads.cello import CelloLikeWorkload
from repro.workloads.synthetic import (
    RandomWorkload,
    SequentialWorkload,
    UniformFixedWorkload,
    spawn_column_rngs,
)
from repro.workloads.tpcc import TPCCLikeWorkload
from repro.workloads.traces import read_trace, write_trace

__all__ = [
    "CelloLikeWorkload",
    "RandomWorkload",
    "RequestBatch",
    "SequentialWorkload",
    "TPCCLikeWorkload",
    "UniformFixedWorkload",
    "read_trace",
    "spawn_column_rngs",
    "write_trace",
]
