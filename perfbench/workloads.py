"""The benchmark's four workloads: what each runs and how its output is checked.

Every workload is an open-loop Poisson stream from the repo's ``random``
generator, seeded by the benchmark's ``--seed``.  The seed reaches the
program only through the command: ``--seed`` for the ``simulate`` and
``fleet`` CLIs, ``seed=`` for the figure modules (``experiments`` has no
seed flag).

This module imports nothing from ``repro`` at import time, so the parent
benchmark process stays light; :func:`execute` runs inside the driver
process after the measured ``repro.__main__`` import.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import List, Tuple

DEFAULT_SEED = 42
# Repetition r of a benchmark run at seed S runs the command with seed
# S * INPUTS + r % INPUTS.  Near saturation the work a stream causes
# varies from seed to seed by about as much as the host's own noise, so a
# run's median over several input streams is steadier than the median of
# one stream's repetitions.
INPUTS = 8


def program_seed(seed: int, rep: int) -> int:
    return seed * INPUTS + rep % INPUTS


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Requests the command offers (the sweep counts every point's stream,
    # saturated points included); events = 2 x requests.
    requests: int
    # ``python -m repro`` arguments; empty for the sweep, which calls the
    # figure modules because ``experiments`` has no seed flag.
    command: Tuple[str, ...]

    def argv(self, seed: int, jobs: int) -> List[str]:
        return [
            arg.format(seed=seed, jobs=jobs, requests=self.requests)
            for arg in self.command
        ]


SWEEP_REQUESTS = 3000
# Figure 5 sweeps 8 rates on the Atlas 10K, Figure 6 sweeps 7 on the MEMS
# device; 4 schedulers each -> 60 simulations of SWEEP_REQUESTS requests.
SWEEP_POINTS = 4 * 8 + 4 * 7

_SIMULATE = ("simulate", "--device", "mems", "--scheduler", "SPTF",
             "--requests", "{requests}", "--seed", "{seed}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_sptf_deep",
            "MEMS SPTF near saturation: deep queues, SPTF selection and "
            "device estimates dominate the drain",
            20000,
            _SIMULATE + ("--rate", "2000"),
        ),
        Workload(
            "sweep_fig5_fig6",
            "the paper's Figure 5 and 6 sweeps: 60 short runs over every "
            "paper scheduler on both devices, fanned out over workers",
            SWEEP_POINTS * SWEEP_REQUESTS,
            (),
        ),
        Workload(
            "fleet16_par",
            "16-member fleet on the persistent pool: columnar sharding, "
            "shared-memory shipping, pickled results and the k-way merge",
            96000,
            ("fleet", "--members", "16", "--router", "lbn-range",
             "--rate", "12800", "--requests", "{requests}",
             "--seed", "{seed}", "--jobs", "{jobs}"),
        ),
        Workload(
            "sim_live_shallow",
            "shallow MEMS SPTF with live windows and SLOs: the general "
            "event loop and obs aggregation run on every event",
            30000,
            _SIMULATE + ("--rate", "800", "--live-window", "0.25",
                         "--slo", "all:p99:0.02", "--slo", "read:p95:0.01"),
        ),
    )
}


def _run_sweep(seed: int, jobs: int) -> int:
    from repro.experiments import figure05, figure06

    fig5 = figure05.run(num_requests=SWEEP_REQUESTS, seed=seed, jobs=jobs)
    fig6 = figure06.run(num_requests=SWEEP_REQUESTS, seed=seed, jobs=jobs)
    for table in (
        fig5.response_time_table(),
        fig5.cv2_table(),
        fig6.response_time_table(),
        fig6.cv2_table(),
    ):
        print(table)
        print()
    return 0


def execute(workload: Workload, seed: int, jobs: int) -> int:
    """Run the workload's command once in this process; returns its exit code.

    Output goes to ``sys.stdout``; the driver captures it for the digest.
    """
    if not workload.command:
        return _run_sweep(seed, jobs)
    import repro.__main__ as cli

    return cli.main(workload.argv(seed, jobs))


_RUNNER_LINE = re.compile(r"^--- .* done in [0-9.]+s ---$")
_PATH = re.compile(r"(?:[A-Za-z0-9_.-]*/)+[A-Za-z0-9_.-]+")


def normalize(text: str) -> str:
    """Output with runner timing lines and file paths removed."""
    lines = [
        _PATH.sub("<path>", line)
        for line in text.splitlines()
        if not _RUNNER_LINE.match(line.strip())
    ]
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(normalize(text).encode("utf-8")).hexdigest()[:20]


_HEADER = re.compile(r" @ [0-9.]+ req/s, (\d+) requests:$")
_FLEET_ROW = re.compile(r"^\s+m\d+\s+\S+\s+(\d+)\s+(\d+)\s+[0-9.]+$")
_SWEEP_ROW = re.compile(r"^\s*\d+\s+")


def sane(workload: Workload, text: str) -> Tuple[bool, str]:
    """Seed-independent checks on one run's output: (ok, reason)."""
    lines = text.splitlines()
    if workload.name == "sweep_fig5_fig6":
        rows = [line for line in lines if _SWEEP_ROW.match(line)]
        expected = 2 * SWEEP_POINTS // 4
        if len(rows) != expected:
            return False, f"{len(rows)} sweep rows, expected {expected}"
        return True, ""
    header = next((m for m in map(_HEADER.search, lines) if m), None)
    if header is None or int(header.group(1)) != workload.requests:
        return False, "missing or wrong request count in the header"
    if "mean response" not in text or re.search(r"\bnan\b", text, re.I):
        return False, "missing or non-finite mean response"
    if workload.name == "fleet16_par":
        rows = [m for m in map(_FLEET_ROW.match, lines) if m]
        routed = sum(int(m.group(1)) for m in rows)
        if len(rows) != 16 or routed != workload.requests:
            return False, f"{len(rows)} member rows routing {routed} requests"
        if any(m.group(1) != m.group(2) for m in rows):
            return False, "a member completed fewer requests than routed"
    if workload.name == "sim_live_shallow" and "SLO read p95" not in text:
        return False, "live SLO summary missing"
    return True, ""
