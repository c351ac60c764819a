"""Command-line front end.

Usage (``python -m repro.cli <command>``):

* ``list`` — the available workloads;
* ``build APP [--policy FILE]`` — run the OPEC-Compiler pipeline,
  print the partition, optionally write the §4.3 policy file;
* ``run APP [--build vanilla|opec|ACES1|ACES2|ACES3]
  [--backend mpu|pmp|overlay]`` — run a build on the simulator (under
  the chosen enforcement backend) and report cycles/overhead;
* ``eval TARGET [--backend ...]`` — regenerate a table/figure (or
  ``all``, or the ``backends`` comparison matrix);
* ``trace APP [--format json|tsv] [--output FILE]`` — run a build
  under the flight recorder and export the event stream (Chrome
  trace-event JSON loads directly in Perfetto);
* ``metrics APP`` — run a build and print the metrics registry
  (counters + cycle histograms);
* ``cache stats|clear|verify|fingerprint`` — inspect or maintain the
  content-addressed artifact cache (see ``REPRO_CACHE``);
* ``bench batch APP [--lanes N]`` — run N copies of a build (default
  8) through one process via the batch runner and report per-lane
  results plus throughput;
* ``campaign [--seed N] [--firmwares N] [--attacks ...]`` — run a
  differential security campaign over a seeded random-firmware corpus
  and print the containment / over-privilege / switch-cost report;
* ``fleet TARGET [--jobs N] [--backends ...] [--output BASE]`` — run
  an eval app (or ``all``, or ``campaign``) across a worker fleet,
  fuse the per-worker telemetry envelopes into one multi-process
  Perfetto trace (``BASE.json``) and print the fleet dashboard
  (per-worker utilisation, cache hit rates, switch-cost histograms
  per backend, lane fault rates); on a warm store the eval lanes come
  from their store entries (``REPRO_CACHE=off`` for a live run);
* ``attack`` — the PinLock §6.1 case-study demo.

``--backend`` is threaded through the call stack as an explicit
parameter; the CLI never mutates ``os.environ`` (a regression test
pins this), so library callers of these command functions cannot leak
a backend choice into unrelated work in the same process.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

#: Mirrors :data:`repro.hw.backend.KNOWN_BACKENDS`; spelled out here so
#: building the parser does not import the package (a test pins the
#: parity).
BACKEND_CHOICES = ["mpu", "pmp", "overlay"]


def _cmd_list(_args) -> int:
    from .apps import ACES_APPS, ALL_APPS

    for name in ALL_APPS:
        tag = " (ACES comparison app)" if name in ACES_APPS else ""
        print(f"{name}{tag}")
    return 0


def _cmd_build(args) -> int:
    from .eval.workloads import build_app, opec_artifacts
    from .image.policyfile import write_policy

    app = build_app(args.app, profile=args.profile)
    artifacts = opec_artifacts(args.app, profile=args.profile)
    print(f"{app.name}: {len(artifacts.operations)} operations on "
          f"{app.board.name}")
    for op in artifacts.operations:
        kind = "default" if op.is_default else "entry"
        print(f"  [{op.index}] {op.name:20s} ({kind}) "
              f"functions={len(op.functions):3d} "
              f"globals={len(op.accessible_globals):3d} "
              f"windows={len(op.windows)}")
    print(f"flash: monitor={artifacts.image.monitor_code_bytes}B "
          f"metadata={artifacts.image.metadata_bytes}B "
          f"svc-stubs={artifacts.image.instrumentation_bytes}B")
    stages = " ".join(f"{name}={seconds * 1000:.1f}ms"
                      for name, seconds in artifacts.stage_times.items())
    print(f"compile stages: {stages}")
    if args.policy:
        write_policy(artifacts.image, args.policy)
        print(f"policy file written to {args.policy}")
    return 0


def _cmd_run(args) -> int:
    from .eval.workloads import run_build

    result = run_build(args.app, args.build, profile=args.profile,
                       backend=args.backend)
    print(f"{args.app} [{args.build}] halt={result.halt_code} "
          f"cycles={result.cycles}")
    if args.build != "vanilla":
        baseline = run_build(args.app, "vanilla", profile=args.profile,
                             backend=args.backend)
        overhead = result.cycles / baseline.cycles - 1
        print(f"runtime overhead vs vanilla: {overhead:.3%}")
    stats = result.machine.stats
    print(f"svc={stats.svc_calls} memmanage={stats.memmanage_faults} "
          f"region-swaps={stats.peripheral_region_switches} "
          f"core-emulations={stats.emulated_core_accesses}")
    return 0


def _cmd_eval(args) -> int:
    from .eval import (backends, figure9, figure10, figure11, table1,
                       table2, table3)
    from .eval.report_all import main as report_all

    targets = {
        "table1": table1, "table2": table2, "table3": table3,
        "figure9": figure9, "figure10": figure10, "figure11": figure11,
        "backends": backends,
    }
    if args.target == "all":
        report_all(backend=args.backend)
        return 0
    module = targets[args.target]
    # Only the run-based targets take a backend: the rest are static
    # analyses ("backends" sweeps every substrate itself).
    kwargs = ({"backend": args.backend}
              if args.target in ("figure9", "table2") else {})
    if hasattr(module, "compute_table"):
        print(module.render(module.compute_table(**kwargs)))
    else:
        print(module.render(module.compute_figure(**kwargs)))
    return 0


def _cmd_trace(args) -> int:
    from .eval.tracing import record_app_trace
    from .obs import chrome_trace, event_tsv, trace_summary
    from .obs.recorder import validate_capacity

    if args.buf is not None:
        validate_capacity(args.buf, "--buf")
    recorder, result = record_app_trace(
        args.app, args.build, profile=args.profile, capacity=args.buf,
        backend=args.backend)
    domain = None if args.all_domains else "sim"
    if args.format == "json":
        text = chrome_trace(recorder, domain)
    else:
        text = event_tsv(recorder, domain)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{args.app} [{args.build}] halt={result.halt_code} "
              f"cycles={result.cycles}")
        print(trace_summary(recorder))
        print(f"trace written to {args.output} "
              f"(load JSON in Perfetto / chrome://tracing)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics(args) -> int:
    from .eval.workloads import run_build

    result = run_build(args.app, args.build, profile=args.profile,
                       backend=args.backend)
    print(result.machine.metrics.render(
        f"{args.app} [{args.build}] — halt={result.halt_code} "
        f"cycles={result.cycles}"))
    if result.interpreter is not None:
        print()
        print(result.interpreter.compile_metrics.render("compile metrics"))
    return 0


def _cmd_dump(args) -> int:
    from .eval.workloads import build_app
    from .ir import print_function, print_module

    app = build_app(args.app, profile="quick")
    if args.function:
        print(print_function(app.module.get_function(args.function)))
    else:
        text = print_module(app.module)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.output} "
                  f"({len(text.splitlines())} lines of OPEC-IR)")
        else:
            print(text)
    return 0


def _cmd_profile(args) -> int:
    from .eval.profiler import profile_image
    from .eval.workloads import build_app, opec_artifacts
    from .pipeline import build_vanilla

    app = build_app(args.app, profile=args.profile)
    if args.build == "opec":
        image = opec_artifacts(args.app, profile=args.profile).image
    else:
        image = build_vanilla(app.module, app.board)
    profile = profile_image(image, setup=app.setup,
                            max_instructions=app.max_instructions)
    print(profile.render(args.top))
    return 0


def _cmd_cache(args) -> int:
    from . import cache

    if args.action == "fingerprint":
        print(cache.pipeline_fingerprint())
        return 0
    store = cache.active_store()
    if store is None:
        print("artifact cache disabled (REPRO_CACHE=off)")
        return 1
    if args.action == "stats":
        entries = store.entry_count()
        size = store.total_bytes()
        print(f"root:        {store.root}")
        print(f"fingerprint: {store.fingerprint}")
        print(f"entries:     {entries}")
        print(f"bytes:       {size} ({size / 1024:.1f} KiB)")
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    elif args.action == "verify":
        ok, bad = store.verify(prune=args.prune)
        for path in bad:
            state = "pruned" if args.prune else "corrupt"
            print(f"{state}: {path}")
        print(f"{ok} entries ok, {len(bad)} corrupt in {store.root}")
        return 1 if bad and not args.prune else 0
    return 0


def _lane_count(raw: str) -> int:
    """``--lanes``: a positive integer; argparse reports anything else."""
    try:
        lanes = int(raw)
    except ValueError:
        lanes = 0
    if lanes < 1:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a positive integer")
    return lanes


def _cmd_bench(args) -> int:
    import time

    from .eval.workloads import build_app, opec_artifacts
    from .interp.batch import BatchRunner
    from .pipeline import build_vanilla

    app = build_app(args.app, profile=args.profile)
    if args.build == "opec":
        image = opec_artifacts(args.app, profile=args.profile).image
    else:
        image = build_vanilla(app.module, app.board)
    runner = BatchRunner()
    for _ in range(args.lanes):
        runner.add(image, setup=app.setup,
                   max_instructions=app.max_instructions,
                   backend=args.backend)
    insts = 0
    failed = 0

    def report(lane) -> None:
        nonlocal insts, failed
        if lane.error is not None:
            failed += 1
            print(f"{lane.name}: ERROR {lane.error}")
            return
        executed = lane.interpreter.instructions_executed
        insts += executed
        print(f"{lane.name}: halt={lane.halt_code} "
              f"cycles={lane.cycles} insts={executed}")

    start = time.perf_counter()
    result = runner.run(report)
    wall = time.perf_counter() - start
    rate = insts / wall if wall else 0.0
    print(f"{args.lanes} lanes [{args.build}] of {args.app}: "
          f"{insts} instructions in {wall:.3f}s ({rate:,.0f} insts/s)")
    print(result.compile_metrics.render("aggregate compile metrics"))
    return 1 if failed else 0


def _cmd_campaign(args) -> int:
    from .campaign import (CampaignConfig, render_report, report_rows,
                           run_campaign)
    from .obs.fleet import telemetry_summary

    config = CampaignConfig(
        seed=args.seed,
        firmwares=args.firmwares,
        attacks=tuple(args.attacks),
        backends=tuple(args.backends),
        jobs=args.jobs,
    )
    result = run_campaign(config)
    text = render_report(result)
    if args.output:
        rows = report_rows(result)
        tsv = "\n".join("\t".join(str(cell) for cell in row)
                        for row in rows) + "\n"
        base = args.output
        with open(f"{base}.txt", "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        with open(f"{base}.tsv", "w", encoding="utf-8") as handle:
            handle.write(tsv)
        print(text)
        print(f"report written to {base}.txt / {base}.tsv")
    else:
        print(text)
    # Footer goes to stdout only — the report files above stay
    # byte-identical across cache temperatures and job counts.
    if result.telemetry:
        print()
        print(telemetry_summary(result.telemetry))
    return 0


def _cmd_fleet(args) -> int:
    from .obs import fleet
    from .obs.recorder import validate_capacity

    jobs = None if args.jobs is None \
        else fleet.validate_jobs(args.jobs, "--jobs")
    capacity = None if args.buf is None \
        else validate_capacity(args.buf, "--buf")
    result = fleet.run_fleet(
        args.target, jobs=jobs, profile=args.profile,
        backends=tuple(args.backends) if args.backends else None,
        capacity=capacity, trace=not args.no_trace,
        seed=args.seed, firmwares=args.firmwares)
    dashboard = fleet.render_dashboard(result)
    print(dashboard)
    if args.output:
        with open(f"{args.output}.json", "w", encoding="utf-8") as handle:
            handle.write(fleet.fuse_trace(result))
        with open(f"{args.output}.txt", "w", encoding="utf-8") as handle:
            handle.write(dashboard + "\n")
        print(f"fleet trace written to {args.output}.json (load in "
              f"Perfetto), dashboard to {args.output}.txt")
    return 0


def _cmd_attack(_args) -> int:
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples" / \
        "pinlock_attack.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    # Installed without the examples tree: run the core of the demo.
    from examples import pinlock_attack  # pragma: no cover

    pinlock_attack.main()  # pragma: no cover
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OPEC reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(
        func=_cmd_list)

    build = sub.add_parser("build", help="run the OPEC-Compiler pipeline")
    build.add_argument("app")
    build.add_argument("--policy", help="write the policy file here")
    build.add_argument("--profile", default="quick",
                       choices=["quick", "paper"])
    build.set_defaults(func=_cmd_build)

    run = sub.add_parser("run", help="run a build on the simulator")
    run.add_argument("app")
    run.add_argument("--build", default="opec",
                     choices=["vanilla", "opec", "ACES1", "ACES2", "ACES3"])
    run.add_argument("--profile", default="quick",
                     choices=["quick", "paper"])
    run.add_argument("--backend", default=None, choices=BACKEND_CHOICES,
                     help="enforcement backend (default: REPRO_BACKEND "
                          "or mpu)")
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="regenerate a table/figure")
    ev.add_argument("target",
                    choices=["table1", "table2", "table3", "figure9",
                             "figure10", "figure11", "backends", "all"])
    ev.add_argument("--backend", default=None, choices=BACKEND_CHOICES,
                    help="enforcement backend the tables are computed "
                         "under (default: REPRO_BACKEND or mpu)")
    ev.set_defaults(func=_cmd_eval)

    trace = sub.add_parser(
        "trace", help="run under the flight recorder and export events")
    trace.add_argument("app")
    trace.add_argument("--build", default="opec",
                       choices=["vanilla", "opec", "ACES1", "ACES2",
                                "ACES3"])
    trace.add_argument("--profile", default="quick",
                       choices=["quick", "paper"])
    trace.add_argument("--format", default="json",
                       choices=["json", "tsv"],
                       help="Chrome trace-event JSON (Perfetto) or TSV")
    trace.add_argument("--output", help="write the trace here")
    trace.add_argument("--buf", type=int, default=None,
                       help="ring capacity (default: REPRO_TRACE_BUF)")
    trace.add_argument("--all-domains", action="store_true",
                       help="include host-side build/cache events")
    trace.add_argument("--backend", default=None, choices=BACKEND_CHOICES,
                       help="enforcement backend (default: REPRO_BACKEND "
                            "or mpu)")
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="run a build and print the metrics registry")
    metrics.add_argument("app")
    metrics.add_argument("--build", default="opec",
                         choices=["vanilla", "opec", "ACES1", "ACES2",
                                  "ACES3"])
    metrics.add_argument("--profile", default="quick",
                         choices=["quick", "paper"])
    metrics.add_argument("--backend", default=None,
                         choices=BACKEND_CHOICES,
                         help="enforcement backend (default: "
                              "REPRO_BACKEND or mpu)")
    metrics.set_defaults(func=_cmd_metrics)

    dump = sub.add_parser("dump", help="print a workload as OPEC-IR text")
    dump.add_argument("app")
    dump.add_argument("--function", help="print just this function")
    dump.add_argument("--output", help="write to a .oir file")
    dump.set_defaults(func=_cmd_dump)

    prof = sub.add_parser("profile", help="per-function cycle profile")
    prof.add_argument("app")
    prof.add_argument("--build", default="vanilla",
                      choices=["vanilla", "opec"])
    prof.add_argument("--profile", default="quick",
                      choices=["quick", "paper"])
    prof.add_argument("--top", type=int, default=15)
    prof.set_defaults(func=_cmd_profile)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or maintain the artifact cache")
    cache_cmd.add_argument(
        "action", choices=["stats", "clear", "verify", "fingerprint"])
    cache_cmd.add_argument(
        "--prune", action="store_true",
        help="with verify: delete corrupt entries")
    cache_cmd.set_defaults(func=_cmd_cache)

    bench = sub.add_parser(
        "bench", help="performance harnesses (batched simulation)")
    bench.add_argument("mode", choices=["batch"])
    bench.add_argument("app")
    bench.add_argument("--build", default="opec",
                       choices=["vanilla", "opec"])
    bench.add_argument("--lanes", type=_lane_count, default=8,
                       help="lane count (default: 8)")
    bench.add_argument("--profile", default="quick",
                       choices=["quick", "paper"])
    bench.add_argument("--backend", default=None, choices=BACKEND_CHOICES,
                       help="enforcement backend (default: REPRO_BACKEND "
                            "or mpu)")
    bench.set_defaults(func=_cmd_bench)

    campaign = sub.add_parser(
        "campaign", help="differential security campaign over a seeded "
                         "random-firmware corpus")
    campaign.add_argument("--seed", type=int, default=2026,
                          help="corpus seed (same seed -> byte-identical "
                               "report)")
    campaign.add_argument("--firmwares", type=int, default=8,
                          help="corpus size")
    campaign.add_argument("--attacks", nargs="+",
                          default=["global", "stack", "peripheral",
                                   "icall"],
                          choices=["global", "stack", "peripheral",
                                   "icall"],
                          help="attack kinds to inject")
    campaign.add_argument("--backends", nargs="+",
                          default=BACKEND_CHOICES,
                          choices=BACKEND_CHOICES,
                          help="enforcement backends to sweep")
    campaign.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS)")
    campaign.add_argument("--output",
                          help="also write the report to OUTPUT.txt and "
                               "the flat rows to OUTPUT.tsv")
    campaign.set_defaults(func=_cmd_campaign)

    fleet_cmd = sub.add_parser(
        "fleet", help="run a target across a worker fleet and fuse "
                      "traces + metrics into one dashboard",
        description="Run an eval target (one lane per app, build "
                    "flavour and backend) or the campaign across a "
                    "worker fleet and fuse the telemetry into one "
                    "trace and dashboard.  Each eval lane is an "
                    "artifact-store entry: on a warm store the lanes "
                    "come from their entries and no worker starts; "
                    "REPRO_CACHE=off gives a live run, as for every "
                    "other command.")
    fleet_cmd.add_argument(
        "target", help="application name, 'all', or 'campaign'")
    fleet_cmd.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default: REPRO_JOBS); "
                                "must be positive")
    fleet_cmd.add_argument("--profile", default="quick",
                           choices=["quick", "paper"])
    fleet_cmd.add_argument("--backends", nargs="+", default=None,
                           choices=BACKEND_CHOICES,
                           help="one lane set per backend (default: "
                                "REPRO_BACKEND or mpu)")
    fleet_cmd.add_argument("--buf", type=int, default=None,
                           help="per-lane ring capacity (default: "
                                "REPRO_TRACE_BUF)")
    fleet_cmd.add_argument("--no-trace", action="store_true",
                           help="metrics roll-up only: drop per-lane "
                                "event rings from the envelopes")
    fleet_cmd.add_argument("--output",
                           help="write the fused Perfetto trace to "
                                "OUTPUT.json and the dashboard to "
                                "OUTPUT.txt")
    fleet_cmd.add_argument("--seed", type=int, default=2026,
                           help="campaign target: corpus seed")
    fleet_cmd.add_argument("--firmwares", type=int, default=4,
                           help="campaign target: corpus size")
    fleet_cmd.set_defaults(func=_cmd_fleet)

    sub.add_parser("attack", help="PinLock case-study demo").set_defaults(
        func=_cmd_attack)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
