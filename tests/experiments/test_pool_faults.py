"""Killed workers and Ctrl-C: a clear failure, and nothing left behind.

Each case runs in its own process group (``start_new_session``) under a
timeout, so a pool that hangs fails the test instead of the suite, and
every process the case started can be found — and killed — by group.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments.parallel import available_parallelism, fork_available

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
SHM = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not fork_available() or not os.path.isdir(SHM),
    reason="needs fork, and /dev/shm to look for leaked segments",
)


def _env() -> dict:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _segments() -> set:
    return {name for name in os.listdir(SHM) if name.startswith("psm_")}


def _group(pgid: int) -> list:
    """``(pid, ppid, cmdline)`` of every live process in group ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stream:
                stat = stream.read().decode(errors="replace")
            with open(f"/proc/{entry}/cmdline", "rb") as stream:
                cmdline = stream.read().replace(b"\0", b" ").decode(
                    errors="replace"
                )
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        state, ppid, group = fields[0], int(fields[1]), int(fields[2])
        if group == pgid and state != "Z":
            found.append((int(entry), ppid, cmdline))
    return found


def _settled_group(pgid: int, timeout: float = 5.0) -> list:
    """The group's processes once it empties, or whatever is left."""
    deadline = time.monotonic() + timeout
    while True:
        left = _group(pgid)
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


KILLED_WORKER = r"""
import json, multiprocessing, os, signal, sys, time
from concurrent.futures.process import BrokenProcessPool

from repro.experiments import parallel
from repro.workloads.synthetic import RandomWorkload

parallel.available_parallelism = lambda: 2


def work(batch, kill):
    if kill:
        os.kill(os.getpid(), signal.SIGKILL)
    return len(batch)


def workers():
    return sorted(child.pid for child in multiprocessing.active_children())


batches = [
    RandomWorkload(10_000, rate=500.0, seed=seed).generate(64 + seed)
    for seed in range(4)
]
before = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
start = time.monotonic()
try:
    parallel.parallel_map(
        work, [(batch, i == 1) for i, batch in enumerate(batches)], jobs=2
    )
    error = None
except BrokenProcessPool:
    error = "BrokenProcessPool"
elapsed = time.monotonic() - start
after = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
left = workers()
again = parallel.parallel_map(work, [(batch, False) for batch in batches], jobs=2)
print(json.dumps({
    "error": error,
    "elapsed": elapsed,
    "new_segments": sorted(after - before),
    "workers_left": left,
    "again": again,
}))
"""


def test_killed_worker_raises_and_leaves_nothing_behind():
    proc = subprocess.Popen(
        [sys.executable, "-c", KILLED_WORKER],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        pytest.fail("parallel_map hung after a worker was killed")
    assert proc.returncode == 0, err
    report = json.loads(out.strip().splitlines()[-1])
    assert report["error"] == "BrokenProcessPool"
    assert report["elapsed"] < 10.0
    assert report["new_segments"] == []
    assert report["workers_left"] == []
    assert report["again"] == [64, 65, 66, 67]
    assert _settled_group(proc.pid) == []


def test_sigint_mid_fleet_prints_one_line_and_cleans_up():
    before = _segments()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "--members", "8",
            "--requests", "200000", "--jobs", "2",
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        # Interrupt once the pool's workers are up, while the members are
        # running; a one-CPU host runs them in-process instead.
        pool = available_parallelism() >= 2
        deadline = time.monotonic() + (10.0 if pool else 1.5)
        while time.monotonic() < deadline and proc.poll() is None:
            workers = [
                pid for pid, ppid, cmdline in _group(proc.pid)
                if ppid == proc.pid and "resource_tracker" not in cmdline
            ]
            if pool and len(workers) >= 2:
                break
            time.sleep(0.02)
        assert proc.poll() is None, "the fleet finished before the signal"
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        out, err = proc.communicate(timeout=30)
        elapsed = time.monotonic() - sent
    except BaseException:
        _kill_group(proc)
        raise
    assert proc.returncode == 130, err
    assert err.splitlines() == ["interrupted"]
    assert elapsed < 2.0
    assert _settled_group(proc.pid) == []
    assert _segments() - before == set()


def test_workers_exit_when_the_parent_is_killed():
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "--members", "8",
            "--requests", "200000", "--jobs", "2",
        ],
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and proc.poll() is None:
            if len(_group(proc.pid)) >= 3:  # the parent and two workers
                break
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert _settled_group(proc.pid) == []
    finally:
        _kill_group(proc)


def _wait_for_streams(proc: subprocess.Popen, directory, count: int) -> None:
    """Block until ``count`` live stream files (``*.tmp``) exist."""
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline and proc.poll() is None:
        if sum(name.endswith(".tmp") for name in os.listdir(directory)) >= count:
            return
        time.sleep(0.02)
    pytest.fail("the traced live run never started writing its streams")


def test_sigint_mid_traced_live_run_keeps_the_trace_only(tmp_path):
    """The stream written so far becomes the trace; its temporary goes."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "simulate", "--requests",
            "300000", "--live-window", "0.5", "--trace", "live.jsonl",
        ],
        env=_env(),
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _wait_for_streams(proc, tmp_path, 1)
        time.sleep(0.2)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    except BaseException:
        _kill_group(proc)
        raise
    assert proc.returncode == 130, err
    assert err.splitlines() == ["interrupted"]
    assert os.listdir(tmp_path) == ["live.jsonl"]
    with open(tmp_path / "live.jsonl", encoding="utf-8") as stream:
        first = json.loads(stream.readline())
    assert first["kind"] == "trace.meta"


@pytest.mark.parametrize("fault", ["kill-worker", "sigint"])
def test_traced_live_fleet_fault_leaves_no_file(tmp_path, fault):
    """Killed or interrupted mid-run, a traced live fleet removes its shard
    traces and the workers' stream files; no merged trace is written."""
    if fault == "kill-worker" and available_parallelism() < 2:
        pytest.skip("needs two cores for pool workers to kill")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "--members", "4",
            "--requests", "400000", "--jobs", "2", "--live-window", "0.5",
            "--trace", "fleet.jsonl",
        ],
        env=_env(),
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _wait_for_streams(proc, tmp_path, 1)
        if fault == "sigint":
            os.killpg(proc.pid, signal.SIGINT)
        else:
            worker = next(
                pid for pid, ppid, cmdline in _group(proc.pid)
                if ppid == proc.pid and "resource_tracker" not in cmdline
            )
            os.kill(worker, signal.SIGKILL)
        out, err = proc.communicate(timeout=30)
    except BaseException:
        _kill_group(proc)
        raise
    if fault == "sigint":
        assert proc.returncode == 130, err
        assert err.splitlines() == ["interrupted"]
    else:
        assert proc.returncode == 1, err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert _settled_group(proc.pid) == []
    assert os.listdir(tmp_path) == []
