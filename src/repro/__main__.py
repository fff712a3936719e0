"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — print the device design points and their derived parameters;
* ``simulate`` — run the random workload against a device/scheduler pair
  (``--config sim.json`` loads a serialized :class:`SimConfig` instead of
  the individual flags);
* ``fleet`` — run a sharded multi-device fleet (``--config fleet.json``
  or a uniform fleet built from flags; see :mod:`repro.fleet`);
* ``experiments [names...]`` — regenerate paper figures/tables (defaults
  to all; see ``python -m repro experiments --list``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# numpy's OpenBLAS starts a pool of worker threads when it is imported, one
# per CPU, and the simulator makes no BLAS or LAPACK call: one thread makes
# the import cheaper.  It must be set before anything imports numpy; a
# user's own setting wins.  Pool workers fork after numpy is loaded, so
# they are unaffected.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only the registries the parser lists, and the repro.sim names that come
# with them; each handler imports the modules its subcommand runs.
from repro.core.scheduling import SCHEDULERS  # noqa: E402
from repro.sim import DEVICES, QueueOverflowError, SimConfig  # noqa: E402


def positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_info(args: argparse.Namespace) -> int:
    from repro.disk import atlas_10k
    from repro.mems import MEMSDevice

    mems = MEMSDevice()
    params = mems.params
    print("MEMS-based storage device (paper Table 1)")
    print(f"  capacity            : {mems.capacity_sectors:,} sectors "
          f"({params.capacity_bytes / 1e9:.3f} GB)")
    print(f"  geometry            : {params.num_cylinders} cylinders x "
          f"{params.tracks_per_cylinder} tracks x "
          f"{params.sectors_per_track} sectors")
    print(f"  tips                : {params.total_tips} total, "
          f"{params.active_tips} active, {params.tips_per_sector}/sector")
    print(f"  access velocity     : {params.access_velocity * 1e3:.1f} mm/s")
    print(f"  streaming bandwidth : {params.streaming_bandwidth / 1e6:.1f} MB/s")
    print(f"  settle time         : {params.settle_time * 1e3:.3f} ms "
          f"({params.settle_constants:g} time constants)")
    print(f"  startup             : {params.startup_time * 1e3:.1f} ms")
    print()
    disk = atlas_10k()
    print("Quantum Atlas 10K (calibrated disk)")
    print(f"  capacity            : {disk.capacity_sectors:,} sectors "
          f"({disk.capacity_bytes / 1e9:.3f} GB)")
    print(f"  geometry            : {disk.cylinders} cylinders x "
          f"{disk.surfaces} surfaces, {len(disk.zones)} zones "
          f"({disk.max_sectors_per_track}-{disk.min_sectors_per_track} "
          f"sectors/track)")
    print(f"  rotation            : {disk.rpm:.0f} RPM "
          f"({disk.revolution_time * 1e3:.3f} ms/rev)")
    print(f"  seek curve          : {disk.seek_curve.time(1) * 1e3:.2f} / "
          f"{disk.seek_curve.time(3347) * 1e3:.2f} / "
          f"{disk.seek_curve.time(disk.cylinders - 1) * 1e3:.2f} ms "
          f"(1 cyl / avg / full)")
    print(f"  spin-up             : {disk.spinup_time:.0f} s")
    return 0


def _load_config_json(path: str) -> dict:
    """One JSON object from ``path`` (the ``--config`` file format).

    Malformed JSON raises ``ValueError`` located as ``PATH:LINE:COL``.
    """
    with open(path, encoding="utf-8") as stream:
        try:
            data = json.load(stream)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return data


def _parse_slo_flags(specs):
    """``--slo`` strings → SLOSpec tuple (ValueError messages are CLI-ready)."""
    from repro.obs.live import parse_slo

    return tuple(parse_slo(spec) for spec in specs or ())


def _print_live_summary(summary, indent: str = "  ") -> None:
    """Render a LiveSummary's sketches and SLO compliance to stdout."""
    for cls in sorted(summary.sketches):
        sketch = summary.sketches[cls]
        if not len(sketch):
            continue
        pcts = sketch.percentiles()
        print(f"{indent}{cls:<8s}: n={sketch.count:<7d} "
              f"p50 {pcts['p50'] * 1e3:7.3f} ms  "
              f"p95 {pcts['p95'] * 1e3:7.3f} ms  "
              f"p99 {pcts['p99'] * 1e3:7.3f} ms")
    for entry in summary.slo:
        spec = entry["spec"]
        completions = entry["completions"]
        good = (
            (completions - entry["bad"]) / completions if completions else 1.0
        )
        print(f"{indent}SLO {spec['cls']} p{spec['objective'] * 100:g} < "
              f"{spec['threshold_s'] * 1e3:g}ms: "
              f"{entry['violations']}/{entry['windows']} windows violated, "
              f"good {good:.4%}, burn {entry['burn_rate']:.2f}x")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        slos = _parse_slo_flags(args.slo)
        if args.config is not None:
            # The config file carries the full run description and takes
            # precedence over --device/--scheduler/--rate/--requests/--seed;
            # the output flags (--trace, --trace-sample, --live-window,
            # --slo) still apply.
            config = SimConfig.from_dict(_load_config_json(args.config))
            if args.trace is not None:
                config = config.replace(trace_path=args.trace)
            if args.trace_sample is not None:
                config = config.replace(trace_sample=args.trace_sample)
            if args.live_window is not None:
                config = config.replace(live_window=args.live_window)
            if slos:
                config = config.replace(slos=slos)
        else:
            config = SimConfig(
                device=args.device,
                scheduler=args.scheduler,
                rate=args.rate,
                num_requests=args.requests,
                seed=args.seed,
                warmup=min(args.requests // 10, 500),
                max_queue_depth=10_000,
                trace_path=args.trace,
                trace_sample=args.trace_sample,
                live_window=args.live_window,
                slos=slos,
            )
        trimmed, summary = config.run_live()
    except QueueOverflowError:
        print(f"saturated: queue exceeded {config.max_queue_depth:,} pending "
              f"requests at {config.rate:g} req/s")
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        # Unknown scheduler/device/workload names: the registries raise
        # with the component list and a did-you-mean suggestion — print
        # that instead of a traceback.  Same treatment for from_dict's
        # unknown-field messages.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if not len(trimmed):
        cause = (
            f"warmup {config.warmup} drops all {config.num_requests} requests"
            if config.num_requests
            else "the workload has 0 requests"
        )
        print(f"error: no completed requests to report: {cause}",
              file=sys.stderr)
        return 2
    scheduler_name = SCHEDULERS.canonical_name(config.scheduler)
    print(f"{config.device} + {scheduler_name} @ {config.rate:g} req/s, "
          f"{config.num_requests} requests:")
    print(f"  mean response : {trimmed.mean_response_time * 1e3:9.3f} ms")
    print(f"  mean service  : {trimmed.mean_service_time * 1e3:9.3f} ms")
    print(f"  95th pct      : "
          f"{trimmed.response_time_percentile(95) * 1e3:9.3f} ms")
    print(f"  sigma^2/mu^2  : {trimmed.response_time_cv2:9.3f}")
    if config.trace_path:
        print(f"  trace         : {config.trace_path}")
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        print()
        metrics = MetricsRegistry.from_result(trimmed)
        print(metrics.render_text(title="metrics"))
    if summary is not None:
        print()
        print(f"live observability (window {summary.window_s:g}s, "
              f"{summary.windows} windows, warmup included):")
        _print_live_summary(summary)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetConfig

    try:
        slos = _parse_slo_flags(args.slo)
        if args.config is not None:
            # The fleet file takes precedence over the uniform-fleet flags;
            # output flags (--trace/--jobs/--live-window/--slo) still apply.
            fleet = FleetConfig.from_dict(_load_config_json(args.config))
        else:
            member = SimConfig(
                device=args.device,
                scheduler=args.scheduler,
                max_queue_depth=10_000,
            )
            fleet = FleetConfig.uniform(
                args.members,
                member=member,
                router=args.router,
                rate=args.rate,
                num_requests=args.requests,
                seed=args.seed,
            )
        if args.trace is not None:
            fleet = fleet.replace(trace_path=args.trace)
        if args.live_window is not None:
            fleet = fleet.replace(live_window=args.live_window)
        if slos:
            fleet = fleet.replace(slos=slos)
        result = fleet.run(jobs=args.jobs)
    except QueueOverflowError:
        print(f"saturated: a member queue overflowed at {fleet.rate:g} "
              f"fleet req/s ({fleet.rate / len(fleet.members):g} per member)")
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2

    combined = result.combined
    if not len(combined):
        cause = (
            f"member warmup drops all {result.total_requests} routed requests"
            if result.total_requests
            else "the fleet workload has 0 requests"
        )
        print(f"error: no completed requests to report: {cause}",
              file=sys.stderr)
        return 2
    print(f"fleet of {len(result.members)} members, router {result.router} "
          f"@ {fleet.rate:g} req/s, {result.total_requests} requests:")
    print(f"  mean response : {combined.mean_response_time * 1e3:9.3f} ms")
    print(f"  95th pct      : "
          f"{combined.response_time_percentile(95) * 1e3:9.3f} ms")
    print(f"  sigma^2/mu^2  : {combined.response_time_cv2:9.3f}")
    print(f"  throughput    : {combined.throughput:9.1f} IO/s")
    labels = [
        result.member_label(index) for index in range(len(result.members))
    ]
    width = max(12, *(len(label) for label in labels))
    print(f"  {'member':<{width}s}  routed  completed  mean ms")
    for index, member_result in enumerate(result.members):
        mean = (f"{member_result.mean_response_time * 1e3:8.3f}"
                if len(member_result) else "       —")
        print(f"  {labels[index]:<{width}s} "
              f"{result.routed_counts[index]:7d}  {len(member_result):9d}  "
              f"{mean}")
    if fleet.trace_path:
        print(f"  trace         : {fleet.trace_path}")
    merged_live = result.merged_live()
    if merged_live is not None:
        print()
        print(f"live observability (window {merged_live.window_s:g}s, "
              f"sketches merged across {len(result.members)} members):")
        _print_live_summary(merged_live)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as stream:
                json.dump(result.to_dict(), stream, sort_keys=True)
                stream.write("\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"  json          : {args.json}")
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        print()
        metrics = MetricsRegistry.from_result(combined)
        print(metrics.render_text(title="fleet metrics"))
    if args.report:
        from repro.obs.report import write_fleet_report

        analysis = None
        if fleet.trace_path:
            from repro.obs.analyze import analyze_trace

            analysis = analyze_trace(fleet.trace_path)
        source = args.config if args.config else f"{len(result.members)}-member fleet"
        try:
            write_fleet_report(
                result, args.report, analysis=analysis, source=source
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"  report        : {args.report}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.runner import run_experiments

    try:
        resolve_jobs(args.jobs)  # a bad REPRO_JOBS fails here, not mid-run
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = args.names or list(ALL_EXPERIMENTS)
    run_experiments(names, jobs=args.jobs, report_path=args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'OS Management of MEMS-based Storage "
        "Devices' (CMU-CS-00-136)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print device design points").set_defaults(
        func=cmd_info
    )

    simulate = sub.add_parser(
        "simulate", help="run the random workload against a device"
    )
    simulate.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="load a serialized SimConfig (JSON, see SimConfig.to_dict); "
        "overrides --device/--scheduler/--rate/--requests/--seed",
    )
    simulate.add_argument(
        "--device", choices=tuple(DEVICES.names()), default="mems"
    )
    simulate.add_argument(
        "--scheduler",
        default="SPTF",
        help=" | ".join(SCHEDULERS.names()),
    )
    simulate.add_argument("--rate", type=float, default=800.0)
    simulate.add_argument("--requests", type=int, default=5000)
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event trace (see repro.obs) to PATH "
        "(gzipped when PATH ends in .gz)",
    )
    simulate.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="trace every N-th request (plus head/tail windows); 1 traces "
        "everything — see repro.obs.SamplingTracer",
    )
    simulate.add_argument(
        "--metrics",
        action="store_true",
        help="print a counter/percentile metrics report after the run",
    )
    simulate.add_argument(
        "--live-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fold the run into tumbling windows of this width (simulated "
        "seconds); obs.window events land in the trace and sketch "
        "percentiles are printed after the run",
    )
    simulate.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="track a latency SLO, CLASS:pQQ:THRESHOLD_S[:WINDOW_S] "
        "(e.g. all:p99:0.02 or read:p95:0.01:0.5); repeatable, implies "
        "live aggregation",
    )
    simulate.set_defaults(func=cmd_simulate)

    fleet = sub.add_parser(
        "fleet", help="run a sharded multi-device fleet (see repro.fleet)"
    )
    fleet.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="load a serialized FleetConfig (JSON, see FleetConfig.to_dict); "
        "overrides the uniform-fleet flags below",
    )
    fleet.add_argument(
        "--members", type=int, default=4, metavar="N",
        help="uniform fleet size (default 4)",
    )
    fleet.add_argument(
        "--device", choices=tuple(DEVICES.names()), default="mems"
    )
    fleet.add_argument(
        "--scheduler", default="SPTF", help=" | ".join(SCHEDULERS.names())
    )
    fleet.add_argument(
        "--router",
        default="lbn-range",
        help="routing policy (lbn-range | hash | round-robin | "
        "least-loaded-static)",
    )
    fleet.add_argument(
        "--rate", type=float, default=3200.0,
        help="fleet-wide arrival rate in req/s (default 3200)",
    )
    fleet.add_argument("--requests", type=int, default=20_000)
    fleet.add_argument("--seed", type=int, default=42)
    fleet.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help="fan member shards out over N worker processes "
        "(results are identical for every N)",
    )
    fleet.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the merged fleet JSONL trace (fleet.route events + "
        "member-tagged per-shard events) to PATH",
    )
    fleet.add_argument(
        "--metrics",
        action="store_true",
        help="print a counter/percentile metrics report over the merged "
        "result",
    )
    fleet.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a fleet report (.html or .md) with the per-member "
        "breakdown to PATH",
    )
    fleet.add_argument(
        "--live-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fold every member into tumbling windows of this width "
        "(simulated seconds); per-member sketches merge deterministically "
        "into the fleet summary",
    )
    fleet.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="track a fleet-wide latency SLO, "
        "CLASS:pQQ:THRESHOLD_S[:WINDOW_S]; repeatable, implies live "
        "aggregation",
    )
    fleet.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="dump the full FleetResult.to_dict() (sorted keys) to PATH — "
        "byte-identical for every --jobs value",
    )
    fleet.set_defaults(func=cmd_fleet)

    experiments = sub.add_parser(
        "experiments", help="regenerate paper figures/tables"
    )
    experiments.add_argument("names", nargs="*", metavar="name")
    experiments.add_argument(
        "--list", action="store_true", help="list experiment names"
    )
    experiments.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help="fan sweep points out over N worker processes",
    )
    experiments.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a machine-readable JSON run report to PATH",
    )
    experiments.set_defaults(func=cmd_experiments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # parallel_map has stopped its workers and unlinked its segments,
        # and run_fleet has removed its shard traces.
        print("interrupted", file=sys.stderr)
        return 130
    except RuntimeError as exc:
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"error: {exc}", file=sys.stderr)  # a pool worker died
        return 1


if __name__ == "__main__":
    sys.exit(main())
