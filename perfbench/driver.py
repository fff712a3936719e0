"""One benchmark process: import the CLI, run a workload cold, then warm.

    python perfbench/driver.py --workload NAME --seed N --jobs J \
        --result OUT.json [--cold-only | --trace --spans OUT.jsonl]
    python perfbench/driver.py --probe --result OUT.json

The parent (``run.py``) spawns this with ``PYTHONPATH=src`` and records
the spawn time.  The first thing the process does is import
``repro.__main__``; the moment that returns ends set-up.  The cold run is
the workload's command on a fresh interpreter with empty per-process
caches and no worker pool; the warm run repeats the same command in the
same process.  With ``--trace`` the layer wrappers (``layers.py``) are
installed after set-up, the cold run is recorded and its span dump is
written to ``--spans``; there is no warm run.

The result file holds monotonic-clock stamps (CLOCK_MONOTONIC is
system-wide on Linux, so the parent can subtract its spawn stamp), CPU
seconds of the process tree at the end of the cold run, and the output
digests.
"""

import time
import sys

import repro.__main__  # noqa: F401  (the measured set-up)

T_SETUP = time.monotonic()
if "importtime" in sys._xoptions:
    # Marks where set-up ends in the -X importtime log.
    print("perfbench: setup done", file=sys.stderr, flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _proc_cpu(pid: int) -> float:
    """utime+stime+cutime+cstime of a live process, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def _live_descendants() -> list:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stream:
                parents[int(entry)] = int(
                    stream.read().rsplit(")", 1)[1].split()[1]
                )
        except (OSError, ValueError, IndexError):
            continue
    found, frontier = [], [os.getpid()]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items() if parent == pid]
        found.extend(children)
        frontier.extend(children)
    return found


def tree_cpu_s() -> float:
    """CPU seconds of this process, its reaped children and live descendants."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in _live_descendants():
        try:
            total += _proc_cpu(pid)
        except (OSError, ValueError):
            continue  # exited between the scan and the read
    return total


def _run(workload, seed: int, jobs: int):
    from workloads import execute

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = execute(workload, seed, jobs)
    return code, buffer.getvalue()


def _check(workload, code: int, text: str) -> dict:
    from workloads import digest, sane

    ok, reason = sane(workload, text)
    if code != 0:
        ok, reason = False, f"exit code {code}"
    return {"digest": digest(text), "sane": ok, "reason": reason}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--cold-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    out = {"t_setup": T_SETUP}
    if not args.probe:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        if args.trace:
            import layers

            layers.install()
            recorder = layers.begin()
            out["t_cold_start"] = recorder.stack[0][1]
        else:
            out["t_cold_start"] = time.monotonic()
        code, text = _run(workload, args.seed, args.jobs)
        out["t_cold_end"] = time.monotonic()
        out["cpu_cold_s"] = tree_cpu_s()
        out["cold"] = _check(workload, code, text)
        if args.trace:
            dumps = layers.end(out["t_cold_end"])
            out["layers"] = layers.layer_metrics(dumps)
            parent = dumps[0]
            out["driver_self_s"] = layers.self_by_layer(parent)
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as stream:
                    for dump in dumps:
                        for span in dump["spans"]:
                            stream.write(json.dumps({"kind": "span", **span}))
                            stream.write("\n")
                        for span, op, calls, total, own in dump["rollups"]:
                            stream.write(json.dumps({
                                "kind": "rollup", "parent": span,
                                "pid": dump["pid"], "op": op,
                                "layer": op.split(".", 1)[0], "calls": calls,
                                "total_s": total, "self_s": own,
                            }))
                            stream.write("\n")
        if not (args.cold_only or args.trace):
            start = time.monotonic()
            code, text = _run(workload, args.seed, args.jobs)
            out["warm_s"] = time.monotonic() - start
            out["warm"] = _check(workload, code, text)
    with open(args.result, "w", encoding="utf-8") as stream:
        json.dump(out, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
