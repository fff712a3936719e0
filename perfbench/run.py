"""Layered cold-process benchmark of the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload
    python3 perfbench/run.py --record-expected              # refresh digests

Run from the repository root.  Each repetition spawns one driver process
(``driver.py``, ``PYTHONPATH=src``) that imports the CLI, runs the
workload's command cold and then warm in the same process.  Repetitions
run one after another until ``--seconds`` is used up (at least
``MIN_REPS``); every metric is the median over the repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cold runs (the traced one under ``-X importtime`` with
the layer wrappers of ``layers.py``) and reports the per-layer metrics,
the median traced-minus-untraced wall time as ``trace.overhead_s``, and
writes the span dump of the last traced run under ``.perfbench/spans/``.

Every run's stdout is digested (see ``workloads.normalize``).  At the
default seed the digest must equal ``expected.json``; at any seed the cold,
warm and traced digests of every repetition must agree, and each output
must pass the workload's sanity checks.  A repetition that exits non-zero,
times out, or fails a check counts in ``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (host
fingerprint, per-repetition samples, digests) is written to
``.perfbench/results/``; ``compare.py`` diffs two such result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, INPUTS, WORKLOADS, program_seed  # noqa: E402

MIN_REPS = 3  # untraced repetitions per run (pairs with --trace 1: 2)
SETUP_SAMPLES = 5  # set-up measurements per run, topped up by probes
HARD_LIMIT_S = 165.0  # the whole invocation must end within 180 s
RECONCILE_TOLERANCE_S = 1e-3

# Metric names, units and the run length live in BENCHMARK.json only.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
UNITS = {
    metric["name"]: metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]
}


def available_parallelism() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


# -- host fingerprint ----------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str):
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git(*args):
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True,
            env=env, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(jobs: int) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "available_parallelism": available_parallelism(),
        "jobs": jobs,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": commit,
        "git_dirty": bool(status) if commit else None,
        "loadavg_start": list(os.getloadavg()),
    }


# -- one driver process ------------------------------------------------------- #


class Spawner:
    """Spawns driver processes and keeps their scratch files in one place."""

    def __init__(self, out_dir: str, deadline: float) -> None:
        self.tmp = os.path.join(out_dir, "tmp", str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        self.deadline = deadline
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, driver_args, importtime: bool = False) -> dict:
        """Run one driver; returns its result dict plus parent-side fields."""
        self.count += 1
        result_path = os.path.join(self.tmp, f"r{self.count}.json")
        log_path = os.path.join(self.tmp, f"r{self.count}.log")
        command = [sys.executable]
        if importtime:
            command += ["-X", "importtime"]
        command += [os.path.join(HERE, "driver.py"), "--result", result_path]
        command += driver_args
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            # A session of its own, so a timeout kills pool workers too.
            proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
            )
            status, usage = self._wait(proc, timeout)
        with open(log_path, encoding="utf-8", errors="replace") as stream:
            log_text = stream.read()
        out = {"t_spawn": spawned, "log": log_text}
        if status is None:
            out["error"] = f"timed out after {timeout:.0f}s"
            return out
        out["exit"] = os.waitstatus_to_exitcode(status)
        out["maxrss_mb"] = usage.ru_maxrss / 1024.0
        if out["exit"] != 0:
            out["error"] = f"driver exited {out['exit']}: {log_text[-400:]}"
            return out
        with open(result_path, encoding="utf-8") as stream:
            out.update(json.load(stream))
        return out

    @staticmethod
    def _wait(proc, timeout: float):
        """Reap ``proc`` with its rusage (the tree's peak RSS).

        Blocks in ``wait4`` rather than polling, so the parent stays off
        the CPUs while the driver runs.  On timeout the driver's whole
        session is killed; returns ``(None, None)`` then.
        """
        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
            return None, None
        return status, usage


# -- metric extraction -------------------------------------------------------- #


def import_times(log_text: str) -> dict:
    """Cumulative import seconds of repro, scipy and numpy before set-up ended.

    ``-X importtime`` prints modules in completion order with two spaces of
    indent per nesting level; a package counts at its outermost occurrences
    so nested submodules are not added twice.
    """
    nodes = []
    for line in log_text.splitlines():
        if line.startswith("perfbench: setup done"):
            break
        if not line.startswith("import time:") or "imported package" in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        field = parts[2].rstrip()
        name = field.strip()
        depth = (len(field) - len(name) - 1) // 2
        nodes.append((depth, name, int(parts[1]) / 1e6))
    totals = {"repro": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack = []  # ancestors, walking the pre-order (reversed) sequence
    for depth, name, cumulative in reversed(nodes):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".", 1)[0]
        if root in totals and all(
            anc.split(".", 1)[0] != root for _, anc in stack
        ):
            totals[root] += cumulative
        stack.append((depth, name))
    return {f"import.{key}_s": value for key, value in totals.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Check:
    """Collects the correctness verdict of one benchmark invocation."""

    def __init__(self, workload, seed: int) -> None:
        self.expected = None
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
                self.expected = json.load(f)["digests"].get(workload.name)
        self.digests = {}  # input index -> digests seen
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def rep(self, rep: dict, index: int) -> bool:
        """Judge one repetition on input ``index``; True when it succeeded."""
        self.attempted += 1
        problems = []
        if "error" in rep:
            problems.append(rep["error"])
        else:
            seen = self.digests.setdefault(index % INPUTS, set())
            for phase in ("cold", "warm"):
                verdict = rep.get(phase)
                if verdict is None:
                    continue
                if not verdict["sane"]:
                    problems.append(f"{phase}: {verdict['reason']}")
                seen.add(verdict["digest"])
                expected = self.expected and self.expected[index % INPUTS]
                if expected and verdict["digest"] != expected:
                    problems.append(
                        f"{phase} digest {verdict['digest']} != expected "
                        f"{expected}"
                    )
            if len(seen) > 1:
                problems.append(f"input {index % INPUTS} gave digests {seen}")
            residual = rep.get("reconcile_residual_s")
            if residual is not None and abs(residual) > RECONCILE_TOLERANCE_S:
                problems.append(f"self times miss traced wall by {residual}s")
        if problems:
            self.failed += 1
            self.reasons.extend(problems)
        return not problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def e2e_sample(rep: dict, workload) -> dict:
    wall = rep["t_cold_end"] - rep["t_spawn"]
    setup = rep["t_setup"] - rep["t_spawn"]
    sample = {
        "wall_s": wall,
        "setup_s": setup,
        "events_per_s": 2 * workload.requests / (wall - setup),
        "cpu_s": rep["cpu_cold_s"],
        "peak_rss_mb": rep["maxrss_mb"],
    }
    if "warm_s" in rep:
        sample["warm_s"] = rep["warm_s"]
    return sample


# -- one workload ------------------------------------------------------------- #


def _bytecode_cached() -> bool:
    import importlib.util

    source = os.path.join(ROOT, "src", "repro", "__main__.py")
    return os.path.exists(importlib.util.cache_from_source(source))


def run_workload(workload, seed, seconds, trace, jobs, out_dir, deadline):
    spawner = Spawner(out_dir, deadline)
    check = Check(workload, seed)
    host = fingerprint(jobs)
    samples, traced = [], []
    setups = []
    spans_path = None
    try:
        if not _bytecode_cached():
            # Untimed: writes the bytecode caches a user's later runs reuse.
            warmup = spawner.spawn(["--probe"])
            if "error" in warmup:
                raise SystemExit(
                    f"perfbench: cannot start the program: {warmup['error']}"
                )
        started = time.monotonic()
        durations = []
        min_reps = 2 if trace else MIN_REPS
        while True:
            index = len(durations)
            rep_start = time.monotonic()
            base = ["--workload", workload.name,
                    "--seed", str(program_seed(seed, index)),
                    "--jobs", str(jobs)]
            if trace:
                plain = spawner.spawn(base + ["--cold-only"])
                if check.rep(plain, index):
                    samples.append(e2e_sample(plain, workload))
                os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
                candidate = os.path.join(
                    out_dir, "spans", f"{workload.name}-s{seed}.jsonl"
                )
                rep = spawner.spawn(
                    base + ["--cold-only", "--trace", "--spans", candidate],
                    importtime=True,
                )
                if "error" not in rep:
                    annotate_trace(rep, candidate)
                if check.rep(rep, index):
                    traced.append(rep)
                    spans_path = candidate
            else:
                rep = spawner.spawn(base)
                if check.rep(rep, index):
                    samples.append(e2e_sample(rep, workload))
            durations.append(time.monotonic() - rep_start)
            now = time.monotonic()
            typical = statistics.median(durations)
            if now + typical > deadline:
                break
            if len(durations) >= min_reps and now - started + typical > seconds:
                break
        setups = [s["setup_s"] for s in samples]
        while len(setups) < SETUP_SAMPLES and time.monotonic() + 3 < deadline:
            probe = spawner.spawn(["--probe"])
            if "error" in probe:
                break
            setups.append(probe["t_setup"] - probe["t_spawn"])
    finally:
        spawner.close()
    host["loadavg_end"] = list(os.getloadavg())
    metrics = {}
    spread = {}
    if trace:
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            values = [rep["layers"][name] for rep in traced]
            if values:
                metrics[name] = statistics.median(values)
        if samples and traced:
            metrics["trace.overhead_s"] = statistics.median(
                [rep["t_cold_end"] - rep["t_spawn"] for rep in traced]
            ) - statistics.median([s["wall_s"] for s in samples])
        if traced:
            host["parallel.workers"] = metrics.get("parallel.workers")
    else:
        for name in END_TO_END:
            values = setups if name == "setup_s" else [
                s[name] for s in samples if name in s
            ]
            if values:
                q1, med, q3 = quartiles(values)
                metrics[name] = med
                spread[name] = {"q1": q1, "q3": q3, "n": len(values)}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "host": host,
        "attempted": check.attempted,
        "failed": check.failed,
        "correct": check.correct and bool(metrics),
        "digests": {str(k): sorted(v) for k, v in check.digests.items()},
        "expected_digest": check.expected,
        "reasons": check.reasons,
        "samples": samples,
        "setup_samples": setups,
        "traced": [
            {k: v for k, v in rep.items() if k != "log"} for rep in traced
        ],
        "spans": spans_path,
        "metrics": metrics,
        "spread": spread,
    }


def annotate_trace(rep: dict, spans_path: str) -> None:
    """Add import metrics and the self-time reconciliation to a traced rep.

    Traced wall time = set-up (the import layer) + wrapper installation
    (the trace layer) + the self times of every layer in the driver
    process during the cold run, whose root span's self time is the
    unattributed remainder.  The reconciliation line is appended to the
    span dump.
    """
    rep["layers"].update(import_times(rep["log"]))
    setup = rep["t_setup"] - rep["t_spawn"]
    install = rep["t_cold_start"] - rep["t_setup"]
    selfs = dict(rep["driver_self_s"])
    unattributed = selfs.pop("driver", 0.0)
    wall = rep["t_cold_end"] - rep["t_spawn"]
    attributed = setup + install + sum(selfs.values()) + unattributed
    rep["reconcile_residual_s"] = attributed - wall
    with open(spans_path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps({
            "kind": "self_times",
            "wall_s": wall,
            "layers": {"import": setup, "trace": install, **selfs},
            "unattributed_s": unattributed,
            "residual_s": attributed - wall,
        }) + "\n")


# -- reporting ------------------------------------------------------------------ #


def print_record(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} host={json.dumps(record['host'])}")
    for name, value in record["metrics"].items():
        line = f"  {name:<34s} {value:>16.6g} {UNITS[name]}"
        spread = record["spread"].get(name)
        if spread:
            line += (f"   q1 {spread['q1']:.6g}  q3 {spread['q3']:.6g}  "
                     f"n={spread['n']}")
        print(line)
    print(f"  ops {record['attempted']}  ops_failed {record['failed']}")
    expected = record["expected_digest"]
    for index, seen in sorted(record["digests"].items()):
        want = expected[int(index)] if expected else None
        verdict = ("" if want is None else " (matches expected)"
                   if seen == [want] else f" (EXPECTED {want})")
        print(f"  digest input {index}: {' '.join(seen)}{verdict}")
    if record["spans"]:
        print(f"  spans {os.path.relpath(record['spans'], ROOT)}")
    for reason in record["reasons"][:5]:
        print(f"  failure: {reason}")


def save_record(record: dict, out_dir: str) -> str:
    directory = os.path.join(out_dir, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        f"{record['workload']}-s{record['seed']}-t{int(record['trace'])}-"
        f"{time.time_ns()}.json",
    )
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)
    return path


def record_expected(out_dir: str) -> int:
    """Write expected.json: the default seed's input digests at --jobs 1."""
    spawner = Spawner(out_dir, time.monotonic() + 1800)
    digests = {}
    try:
        for workload in WORKLOADS.values():
            digests[workload.name] = []
            for index in range(INPUTS):
                rep = spawner.spawn([
                    "--workload", workload.name,
                    "--seed", str(program_seed(DEFAULT_SEED, index)),
                    "--jobs", "1", "--cold-only",
                ])
                if "error" in rep or not rep["cold"]["sane"]:
                    print(f"{workload.name}: {rep.get('error') or rep['cold']}")
                    return 1
                digests[workload.name].append(rep["cold"]["digest"])
            print(f"{workload.name}: {' '.join(digests[workload.name])}")
    finally:
        spawner.close()
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as f:
        json.dump({"seed": DEFAULT_SEED, "jobs": 1, "digests": digests}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered cold-process benchmark (see module docstring)."
    )
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep and the fleet "
                        "(default and maximum: available CPUs)")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench"),
                        help="directory for result records and span dumps")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json at the default seed")
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        print("perfbench: src/repro is missing; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    cpus = available_parallelism()
    jobs = cpus if args.jobs is None else args.jobs
    if not 1 <= jobs <= cpus:
        print(f"perfbench: --jobs {jobs} outside 1..{cpus} (available "
              f"parallelism)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    if args.record_expected:
        return record_expected(args.out)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for index, name in enumerate(names):
        if len(names) == 1:
            deadline = start + HARD_LIMIT_S
        else:  # each workload of an 'all' run gets its own budget
            deadline = time.monotonic() + HARD_LIMIT_S
        record = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), jobs,
            args.out, deadline,
        )
        save_record(record, args.out)
        print_record(record)
        records.append(record)

    if not any(record["metrics"] for record in records):
        print("perfbench: no repetition produced metrics", file=sys.stderr)
        return 1
    single = len(records) == 1
    metrics = {}
    for record in records:
        for name, value in record["metrics"].items():
            key = name if single else f"{record['workload']}.{name}"
            metrics[key] = {"value": value, "unit": UNITS[name]}
    print(json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
