"""Caches shared per parameter set do not leak between parameter sets.

Memoizing MEMS devices built from equal :class:`MEMSParameters` share one
geometry, seek planner and request-profile memo
(``repro.mems.device._shared_components``, keyed by the parameters).
Memoizing disk devices likewise share one geometry and request-profile memo
(``repro.disk.device._shared_components``), and every disk device shares
the seek tables of its curve (``seek_time_table`` and
``seek_lower_bounds``, module-level caches keyed by the curve).  Runs over
different parameter sets interleaved in one process must produce exactly
the columns each run produces as the first thing in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.scheduling.sptf import SCAN_DEPTH

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# name -> (rate, requests, seed).  Within a device family the streams share
# a seed and an address range, so runs over different parameter sets ask
# for the same (lbn, sectors) keys the shared caches index, at different
# arrival rates.
CASES = {
    "mems-gen1": (900.0, 500, 11),
    "mems-gen2": (2600.0, 500, 11),  # queues past SCAN_DEPTH
    "mems-gen3": (1500.0, 500, 11),
    "mems-default": (1200.0, 500, 11),
    "disk-atlas": (220.0, 300, 15),  # queues past SCAN_DEPTH
    "disk-slow-seek": (70.0, 300, 15),
}

RUN_CASE = r'''
import dataclasses
from repro.core.scheduling import make_scheduler
from repro.sim import Simulation
from repro.workloads import RandomWorkload


def device_for(name):
    if name.startswith("mems"):
        from repro.mems import MEMSDevice, generations

        params = {
            "mems-gen1": generations.generation_1,
            "mems-gen2": generations.generation_2,
            "mems-gen3": generations.generation_3,
        }.get(name)
        return MEMSDevice(params() if params else None)
    from repro.disk import DiskDevice, atlas_10k

    params = atlas_10k()
    if name == "disk-slow-seek":
        curve = dataclasses.replace(
            params.seek_curve,
            sqrt_coeff_b=params.seek_curve.sqrt_coeff_b * 1.5,
            linear_coeff_e=params.seek_curve.linear_coeff_e * 1.5,
        )
        params = dataclasses.replace(params, seek_curve=curve)
    return DiskDevice(params)


def run_case(name, rate, requests, seed):
    from repro.mems import generations

    device = device_for(name)
    span = device.capacity_sectors
    if name.startswith("mems"):  # the smallest MEMS generation's range
        span = generations.generation_1().capacity_sectors
    batch = RandomWorkload(span, rate=rate, seed=seed).generate(requests)
    result = Simulation(device, make_scheduler("SPTF", device)).run(batch)
    return {key: column.tolist() for key, column in result.columns.items()}
'''


def fresh_interpreter_columns(name):
    """``name``'s columns from a run that is the first in its process."""
    rate, requests, seed = CASES[name]
    code = RUN_CASE + (
        "\nimport json, sys\n"
        f"json.dump(run_case({name!r}, {rate!r}, {requests!r}, {seed!r}), "
        "sys.stdout)\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def max_queue_depth(columns):
    """The deepest pending queue any dispatch chose from."""
    arrivals = sorted(columns["arrival"])
    depth, arrived = 0, 0
    for dispatched, t in enumerate(columns["dispatch"]):
        while arrived < len(arrivals) and arrivals[arrived] <= t:
            arrived += 1
        depth = max(depth, arrived - dispatched)
    return depth


@pytest.fixture(scope="module")
def interleaved():
    """Every case run twice in this process, parameter sets interleaved."""
    namespace = {}
    exec(RUN_CASE, namespace)
    order = list(CASES) + list(reversed(list(CASES)))
    return [
        (name, namespace["run_case"](name, *CASES[name])) for name in order
    ]


@pytest.mark.parametrize("name", list(CASES))
def test_interleaved_runs_match_a_fresh_interpreter(interleaved, name):
    expected = fresh_interpreter_columns(name)
    runs = [columns for case, columns in interleaved if case == name]
    assert len(runs) == 2
    for columns in runs:
        assert columns == expected


def test_some_streams_queue_past_the_scan_depth(interleaved):
    depths = {name: max_queue_depth(columns) for name, columns in interleaved}
    assert depths["mems-gen2"] > SCAN_DEPTH
    assert depths["disk-atlas"] > SCAN_DEPTH
