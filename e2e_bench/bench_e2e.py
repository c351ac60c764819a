#!/usr/bin/env python3
"""End-to-end benchmark of the OPEC reproduction, with per-layer attribution.

Measures what a user of this repository waits for, on four workloads
(``e2e_bench/README.md`` records why each was chosen):

* ``export_cold`` -- regenerate every ``results/`` file (profile
  ``quick``, ``REPRO_JOBS=2``) against an empty artifact store;
* ``export_warm`` -- the same against a store the same code filled;
* ``paper_io`` -- PinLock and TCP-Echo, vanilla and OPEC, at the
  paper's stop conditions on the MPU backend, store off;
* ``campaign`` -- the differential security campaign over 64 generated
  firmwares, all four attacks, three backends, two workers, store off.
  It is the only seeded workload: ``--seed`` seeds the generator.

Every workload run is a fresh child process (in-process memos start
cold) driven in a closed loop by this single-process harness.  A round
times one set-up child (``setup_s``: import ``repro`` and build every
application's vanilla/OPEC/ACES images for both profiles, store off)
and then one run of each selected workload.  End-to-end metrics per
workload: ``wall_s``, ``cpu_s`` (user + system of the child and its
pool workers, from ``os.wait4``) and ``peak_rss_mb``; each is reported
as the median over rounds with min/max and n.

Every output is checked; an operation fails when its output is wrong:

* export -- an op is one committed ``results/`` file, compared after
  the masking of ``tools/check_determinism.py``; a failed child fails
  every op;
* paper_io -- an op is one run; it fails on an exception (including a
  ``verify_run`` failure) or when its halt code, cycles, instructions
  or ``MachineStats`` differ from ``e2e_bench/baseline.json``;
* campaign -- an op is one lane; it fails when its outcome is
  ``error``, and every lane of a firmware fails when that firmware's
  report differs from the single-step reference interpreter's report
  for the same seed (computed once per invocation, not timed).

``--trace 1`` instead runs each workload once traced (one worker, a
sampling profiler attributing wall time to layers, probes on the
public entry points; see ``layers.py``), once untraced at one worker
(``trace_overhead``), and once untraced at its usual width
(``pool.utilisation``).

Usage (from the repository root)::

    python3 e2e_bench/bench_e2e.py [--workload W] [--seed N]
        [--rounds N | --seconds S] [--sets N] [--trace 0|1] [--out F]
    python3 e2e_bench/bench_e2e.py --compare BASE.json NEW.json

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names are prefixed
with ``<workload>.`` when more than one workload ran.  ``--out`` writes
(or updates) a report holding every sample; ``--compare`` judges two
such reports metric by metric against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
RESULTS = REPO / "results"
DETERMINISM = REPO / "tools" / "check_determinism.py"
SPEC = REPO / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
# Scratch space inside the checkout: per-run temporary directories and
# the persistent store export_warm runs against.
WORK = REPO / ".e2e_work"
WARM_STORE = WORK / "warm-store"

WORKLOADS = ("export_cold", "export_warm", "paper_io", "campaign")
#: Pool width of each workload's untraced runs (the reference host has
#: two cores); paper_io is a single process.
JOBS = {"export_cold": 2, "export_warm": 2, "paper_io": 1, "campaign": 2}
#: Set-up children per invocation at least (one per round, topped up).
SETUP_RUNS = 5
#: A child still running after this long is killed and fails its ops.
CHILD_TIMEOUT_S = 120.0

PAPER_IO_RUNS = (("PinLock", "vanilla"), ("PinLock", "opec"),
                 ("TCP-Echo", "vanilla"), ("TCP-Echo", "opec"))
CAMPAIGN_FIRMWARES = 64
CAMPAIGN_BACKENDS = ("mpu", "pmp", "overlay")
# Lanes per firmware: 3 flavours x 3 backends x (baseline + 4 attacks).
CAMPAIGN_LANES = CAMPAIGN_FIRMWARES * 3 * len(CAMPAIGN_BACKENDS) * 5

SAMPLED = ("wall_s", "cpu_s", "peak_rss_mb")


# -- child processes ------------------------------------------------------


def _setup_everything() -> None:
    from repro.apps import ACES_APPS, ALL_APPS
    from repro.baselines.aces.compartments import ALL_STRATEGIES
    from repro.eval.workloads import aces_artifacts, build_app, opec_artifacts
    from repro.pipeline import build_vanilla

    for profile in ("quick", "paper"):
        for name in ALL_APPS:
            app = build_app(name, profile)
            build_vanilla(app.module, app.board)
            opec_artifacts(name, profile)
            for strategy in ALL_STRATEGIES if name in ACES_APPS else ():
                aces_artifacts(name, strategy, profile)


def _run_export(out_dir: str) -> dict:
    from repro.eval.export import export_all

    export_all(out_dir)
    return {}


def _run_paper_io() -> dict:
    from repro.eval.workloads import run_build

    runs = {}
    for app, kind in PAPER_IO_RUNS:
        try:
            result = run_build(app, kind, profile="paper", backend="mpu")
        except Exception as error:  # noqa: BLE001 -- a failed op, reported
            runs[f"{app}:{kind}"] = {"error": f"{type(error).__name__}: "
                                              f"{error}"}
            continue
        runs[f"{app}:{kind}"] = {
            "halt": result.halt_code,
            "cycles": result.cycles,
            "instructions": result.interpreter.instructions_executed,
            "stats": result.machine.stats.as_dict(),
        }
    return {"runs": runs}


def _report_digest(report) -> str:
    """Digest of one firmware's campaign report (every lane outcome,
    every over-privilege value)."""
    canonical = (report.name, report.index, report.tasks, report.victim,
                 sorted(report.baseline.items()), sorted(report.cells.items()),
                 sorted(report.pt.items()))
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def _run_campaign(seed: int, jobs: int) -> dict:
    from repro.campaign import ATTACK_KINDS, CampaignConfig, run_campaign

    result = run_campaign(CampaignConfig(
        seed=seed, firmwares=CAMPAIGN_FIRMWARES, attacks=ATTACK_KINDS,
        backends=CAMPAIGN_BACKENDS, jobs=jobs))
    firmwares = []
    for report in result.reports:
        outcomes = [*report.baseline.values(), *report.cells.values()]
        firmwares.append({
            "digest": _report_digest(report),
            "lanes": len(outcomes),
            "errors": sum(o.outcome == "error" for o in outcomes),
        })
    return {"firmwares": firmwares}


def _traced(run) -> tuple[dict, dict]:
    """Run ``run()`` under the layer sampler and entry-point probes."""
    import layers
    import repro
    import repro.campaign.engine  # noqa: F401 -- import sites to probe
    import repro.eval.export  # noqa: F401
    from repro.cache import store

    probes = layers.Probes()
    probes.install()
    before = store.counters_snapshot()
    sampler = layers.LayerSampler(
        layers.LayerMap(os.path.dirname(repro.__file__)))
    with sampler:
        result = run()
    metrics = layers.layer_metrics(sampler, probes,
                                   store.counters_delta(before))
    return result, {"metrics": metrics, "wall_s": sampler.wall_s}


def child_main(args: argparse.Namespace) -> int:
    """One workload run in a fresh process; writes its outputs as JSON."""
    if args.child == "setup":
        _setup_everything()
        return 0
    run = {
        "export": lambda: _run_export(args.out_dir),
        "paper_io": _run_paper_io,
        "campaign": lambda: _run_campaign(args.seed, args.jobs),
    }[args.child]
    if args.traced:
        result, trace = _traced(run)
        result["trace"] = trace
    else:
        result = run()
    Path(args.result).write_text(json.dumps(result))
    return 0


# -- running children -----------------------------------------------------


@dataclass
class ChildRun:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], env: dict) -> ChildRun:
    """Run one child to completion and measure it from outside.

    ``os.wait4`` reports the child's CPU time including every pool
    worker it reaped, and the peak RSS of the largest of them.  The
    child leads its own process group so a timeout or an interrupt
    kills its workers too.
    """
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=REPO,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        # Reaped by wait4: record the status so Popen never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return ChildRun(status=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024, stderr=stderr)


def child_env(**settings: str) -> dict:
    """The caller's environment without any ``REPRO_*`` knob, plus
    ``settings``: a stray knob must not change what is measured."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(settings)
    return env


def _warn(message: str, stderr: str = "") -> None:
    print(f"bench_e2e: {message}", file=sys.stderr)
    if stderr:
        print(stderr[-3000:], file=sys.stderr)


@dataclass
class Sample:
    """One measured workload run."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    trace: Optional[dict] = None


@functools.cache
def _load_determinism():
    spec = importlib.util.spec_from_file_location("check_determinism",
                                                  DETERMINISM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_rows() -> dict:
    """Each committed results file's rows after the determinism mask."""
    normalise = _load_determinism().normalise
    return {path.name: normalise(path) for path in sorted(RESULTS.iterdir())}


def check_export(out_dir: Path, expected: dict) -> tuple[int, int]:
    """(attempted, failed): one op per committed results file (see
    :func:`committed_rows`), failed when it is missing from ``out_dir``
    or differs after masking."""
    normalise = _load_determinism().normalise
    failed = 0
    for name, rows in expected.items():
        fresh = out_dir / name
        if not fresh.is_file() or normalise(fresh) != rows:
            failed += 1
    return len(expected), failed


class Harness:
    """Runs workloads as children and checks their outputs."""

    def __init__(self, seed: int, workloads: tuple[str, ...]):
        self.seed = seed
        self.workloads = workloads
        self.baseline = json.loads(BASELINE.read_text())
        self.committed = committed_rows()
        self._campaign_reference: Optional[list] = None

    def prepare(self) -> None:
        """Untimed preparation: fill the persistent warm store, and run
        the campaign's single-step reference for this seed."""
        if "export_warm" in self.workloads:
            self.run("export_warm", jobs=JOBS["export_warm"])
        if "campaign" in self.workloads:
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                proc, result = self._child(
                    "campaign", Path(tmp),
                    child_env(REPRO_CACHE="off", REPRO_BLOCKCOMPILE="off"),
                    jobs=JOBS["campaign"])
            if result is None:
                _warn("campaign reference run failed; every campaign "
                      "lane will count as failed", proc.stderr)
            else:
                self._campaign_reference = result["firmwares"]

    def time_setup(self) -> float:
        proc = run_child([sys.executable, str(Path(__file__)), "--child",
                          "setup"], child_env(REPRO_CACHE="off"))
        if proc.status != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        return proc.wall_s

    def run(self, workload: str, *, jobs: int, traced: bool = False
            ) -> Sample:
        """One run of ``workload`` in a fresh child, checked."""
        export = workload.startswith("export")
        with tempfile.TemporaryDirectory(dir=WORK) as name:
            tmp = Path(name)
            if export:
                store = tmp / "store" if workload == "export_cold" \
                    else WARM_STORE
                env = child_env(REPRO_PROFILE="quick", REPRO_JOBS=str(jobs),
                                REPRO_CACHE=str(store))
            else:
                env = child_env(REPRO_CACHE="off")
            proc, result = self._child("export" if export else workload, tmp,
                                       env, jobs=jobs, traced=traced)
            if export:
                attempted, failed = check_export(tmp / "out", self.committed)
                if result is None:
                    failed = attempted
            elif workload == "paper_io":
                attempted, failed = self._check_paper_io(result)
            else:
                attempted, failed = self._check_campaign(result)
        if result is None:
            _warn(f"{workload} child exited with status {proc.status}",
                  proc.stderr)
        elif failed:
            _warn(f"{workload}: {failed} of {attempted} ops failed")
        return Sample(wall_s=proc.wall_s, cpu_s=proc.cpu_s,
                      peak_rss_mb=proc.peak_rss_mb, attempted=attempted,
                      failed=failed,
                      trace=result.get("trace") if result else None)

    def _child(self, kind: str, tmp: Path, env: dict, *, jobs: int,
               traced: bool = False) -> tuple[ChildRun, Optional[dict]]:
        result_path = tmp / "result.json"
        argv = [sys.executable, str(Path(__file__)), "--child", kind,
                "--seed", str(self.seed), "--jobs", str(jobs),
                "--out-dir", str(tmp / "out"), "--result", str(result_path)]
        if traced:
            argv.append("--traced")
        proc = run_child(argv, env)
        if proc.status != 0 or not result_path.is_file():
            return proc, None
        return proc, json.loads(result_path.read_text())

    def _check_paper_io(self, result: Optional[dict]) -> tuple[int, int]:
        expected = self.baseline["paper_io"]
        if result is None:
            return len(expected), len(expected)
        runs = result["runs"]
        return len(expected), sum(runs.get(key) != want
                                  for key, want in expected.items())

    def _check_campaign(self, result: Optional[dict]) -> tuple[int, int]:
        reference = self._campaign_reference
        if result is None or reference is None \
                or len(result["firmwares"]) != len(reference):
            return CAMPAIGN_LANES, CAMPAIGN_LANES
        attempted = failed = 0
        for got, want in zip(result["firmwares"], reference):
            attempted += got["lanes"]
            failed += got["lanes"] if got["digest"] != want["digest"] \
                else got["errors"]
        return attempted, failed


# -- measurement ----------------------------------------------------------


def measure_set(harness: Harness, *, rounds: int,
                seconds: Optional[float]) -> dict:
    """One set: rounds of (set-up, each workload once), round-robin, so
    host drift spreads over every workload alike.  With ``seconds``,
    rounds continue until that much time has passed (at least one)."""
    setup: list[float] = []
    samples: dict[str, list[Sample]] = {w: [] for w in harness.workloads}
    start = time.perf_counter()
    while True:
        setup.append(harness.time_setup())
        for workload in harness.workloads:
            samples[workload].append(
                harness.run(workload, jobs=JOBS[workload]))
        if seconds is not None:
            if time.perf_counter() - start >= seconds:
                break
        elif len(setup) >= rounds:
            break
    rounds_done = len(setup)
    while len(setup) < SETUP_RUNS:
        setup.append(harness.time_setup())
    return {
        "rounds": rounds_done,
        "setup_s": setup,
        "workloads": {
            workload: {
                **{metric: [getattr(s, metric) for s in runs]
                   for metric in SAMPLED},
                "attempted": sum(s.attempted for s in runs),
                "failed": sum(s.failed for s in runs),
            }
            for workload, runs in samples.items()
        },
    }


def trace_workload(harness: Harness, workload: str) -> dict:
    """The traced pass of one workload plus its two untraced references."""
    traced = harness.run(workload, jobs=1, traced=True)
    plain = harness.run(workload, jobs=1)
    jobs = JOBS[workload]
    usual = plain if jobs == 1 else harness.run(workload, jobs=jobs)
    return trace_report(traced, plain, usual, jobs)


def trace_report(traced: Sample, plain: Sample, usual: Sample,
                 jobs: int) -> dict:
    """Per-layer metrics from a traced run, an untraced run at one
    worker, and an untraced run at ``jobs`` workers (maybe ``plain``)."""
    runs = (traced, plain) if usual is plain else (traced, plain, usual)
    trace = traced.trace or {"metrics": {}, "wall_s": 0.0}
    return {
        "metrics": {
            **trace["metrics"],
            "pool.utilisation": usual.cpu_s / (usual.wall_s * jobs),
            "trace_overhead": traced.wall_s / plain.wall_s,
        },
        "traced_wall_s": trace["wall_s"],
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
    }


def e2e_metrics(set_doc: dict, workload: str) -> dict[str, float]:
    """The end-to-end metrics of one workload in one set (medians)."""
    runs = set_doc["workloads"][workload]
    metrics = {"setup_s": statistics.median(set_doc["setup_s"])}
    metrics.update({metric: statistics.median(runs[metric])
                    for metric in SAMPLED})
    return metrics


# -- reporting ------------------------------------------------------------


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def result_line(spec: dict, section: str,
                per_workload: dict[str, tuple[dict, int, int]]) -> str:
    """The final JSON line: ``per_workload`` maps a workload to its
    (metrics, attempted, failed).  Emitted names must be exactly the
    names ``BENCHMARK.json`` declares for ``section``."""
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    prefix = len(per_workload) > 1
    metrics = {}
    attempted = failed = 0
    for workload, (values, ran, lost) in per_workload.items():
        if set(values) != set(units):
            raise RuntimeError(
                f"{workload}: emitted {sorted(values)} but BENCHMARK.json "
                f"declares {sorted(units)} under {section}")
        for name in units:
            key = f"{workload}.{name}" if prefix else name
            metrics[key] = {"value": values[name], "unit": units[name]}
        attempted += ran
        failed += lost
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _row(*cells) -> str:
    widths = (12, 32, 11, 11, 11, 4, 6)
    return "  ".join(str(cell).ljust(width) if i < 2 else
                     str(cell).rjust(width)
                     for i, (cell, width) in enumerate(zip(cells, widths)))


def print_set(spec: dict, index: int, set_doc: dict) -> None:
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    print(f"set {index}: {set_doc['rounds']} rounds")
    print(_row("workload", "metric", "median", "min", "max", "n", "unit"))
    series = [("setup", "setup_s", set_doc["setup_s"])]
    for workload, runs in set_doc["workloads"].items():
        series += [(workload, metric, runs[metric]) for metric in SAMPLED]
    for workload, metric, values in series:
        print(_row(workload, metric, f"{statistics.median(values):.4f}",
                   f"{min(values):.4f}", f"{max(values):.4f}", len(values),
                   units[metric]))
    for workload, runs in set_doc["workloads"].items():
        print(f"{workload}: {runs['failed']} of {runs['attempted']} "
              "ops failed")


def print_trace(spec: dict, traces: dict) -> None:
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    for workload, trace in traces.items():
        metrics = trace["metrics"]
        for name in units:
            value = metrics.get(name, float("nan"))
            print(f"{workload:<12}  {name:<32}  {value:>14.4f}  "
                  f"{units[name]}")
        attributed = sum(value for name, value in metrics.items()
                         if name.endswith(".self_s") or name == "pool.wait_s")
        wall = trace["traced_wall_s"]
        share = attributed / wall if wall else 0.0
        print(f"{workload}: layer self times sum to {attributed:.3f} s = "
              f"{share:.1%} of the traced wall-clock {wall:.3f} s; "
              f"{trace['failed']} of {trace['attempted']} ops failed")


def host_info() -> dict:
    return {"python": platform.python_version(),
            "machine": platform.machine(), "cpus": os.cpu_count()}


# -- comparison -----------------------------------------------------------


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], new: list[float], bound: float,
            better: str = "lower") -> str:
    """better / worse / within bound / unresolved, for one metric.

    Worse: the new median is worse than the base median by more than
    ``bound``.  Better: every new run beats every base run, or at least
    nine tenths of the (base, new) pairs favour the new runs and the
    medians differ by more than the base runs' own interquartile range.
    Unresolved: the run-to-run spread is wider than ``bound`` and the
    runs do not all order one way.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_s = [sign * value for value in base]
    new_s = [sign * value for value in new]
    base_median = statistics.median(base_s)
    change = (statistics.median(new_s) - base_median) / abs(base_median)
    all_better = max(new_s) < min(base_s)
    all_worse = min(new_s) > max(base_s)
    if max(spread(base), spread(new)) > bound:
        if all_better:
            return "better"
        if all_worse and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    pairs = [(b, n) for b in base_s for n in new_s if b != n]
    wins = sum(n < b for b, n in pairs)
    if all_better or (pairs and wins >= 0.9 * len(pairs)
                      and -change > spread(base)):
        return "better"
    return "within bound"


def _pooled(doc: dict) -> dict:
    """Samples per (workload, metric) over every set of a report."""
    pooled: dict = {("setup", "setup_s"): []}
    counts: dict = {}
    for set_doc in doc["rounds"]["sets"]:
        pooled[("setup", "setup_s")] += set_doc["setup_s"]
        for workload, runs in set_doc["workloads"].items():
            for metric in SAMPLED:
                pooled.setdefault((workload, metric), []).extend(
                    runs[metric])
            ran, lost = counts.get(workload, (0, 0))
            counts[workload] = (ran + runs["attempted"],
                                lost + runs["failed"])
    return {"samples": pooled, "ops": counts}


def compare(spec: dict, base_doc: dict, new_doc: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both
    reports, plus each workload's failed-op ratio (any rise is worse)."""
    rules = {entry["name"]: entry for entry in spec["end_to_end"]}
    base, new = _pooled(base_doc), _pooled(new_doc)
    rows = []
    for key, base_values in base["samples"].items():
        new_values = new["samples"].get(key)
        if not new_values or not base_values:
            continue
        workload, metric = key
        rule = rules[metric]
        base_median = statistics.median(base_values)
        rows.append({
            "workload": workload, "metric": metric,
            "base": base_median, "new": statistics.median(new_values),
            "change": statistics.median(new_values) / base_median - 1,
            "spread": max(spread(base_values), spread(new_values)),
            "bound": rule["bound"],
            "verdict": verdict(base_values, new_values, rule["bound"],
                               rule["better"]),
        })
    for workload, (ran, lost) in base["ops"].items():
        if workload not in new["ops"]:
            continue
        new_ran, new_lost = new["ops"][workload]
        base_ratio, new_ratio = lost / ran, new_lost / new_ran
        rows.append({
            "workload": workload, "metric": "fail_ratio",
            "base": base_ratio, "new": new_ratio, "change": None,
            "spread": 0.0, "bound": 0.0,
            "verdict": "worse" if new_ratio > base_ratio else
                       "better" if new_ratio < base_ratio else
                       "within bound",
        })
    return rows


def print_compare(rows: list[dict]) -> None:
    print(f"{'workload':<12}  {'metric':<12}  {'base':>11}  {'new':>11}  "
          f"{'change':>8}  {'spread':>7}  {'bound':>6}  verdict")
    for row in rows:
        change = "" if row["change"] is None else f"{row['change']:+.2%}"
        print(f"{row['workload']:<12}  {row['metric']:<12}  "
              f"{row['base']:>11.4f}  {row['new']:>11.4f}  {change:>8}  "
              f"{row['spread']:>7.2%}  {row['bound']:>6.2f}  "
              f"{row['verdict']}")


# -- entry point ----------------------------------------------------------


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2026,
                        help="campaign generator seed (default 2026)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="rounds per set (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="run rounds for this long instead")
    parser.add_argument("--sets", type=int, default=1,
                        help="sets of rounds, one after another")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced pass and per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="write (or update) the JSON report")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"),
                        help="judge two reports against the bounds")
    # Child-process protocol (set by the harness, not by users).
    parser.add_argument("--child", help=argparse.SUPPRESS,
                        choices=("setup", "export", "paper_io", "campaign"))
    parser.add_argument("--jobs", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    required = (SPEC, SRC / "repro" / "__init__.py", RESULTS, DETERMINISM)
    missing = [str(path) for path in required if not path.exists()]
    if missing:
        print("bench_e2e: run from a checkout of the repository; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        rows = compare(spec, base, new)
        print_compare(rows)
        return 0

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    harness = Harness(args.seed, workloads)
    harness.prepare()
    if args.trace:
        traces = {w: trace_workload(harness, w) for w in workloads}
        print_trace(spec, traces)
        part = {"trace": {"seed": args.seed, "workloads": traces}}
        line = result_line(spec, "per_layer", {
            w: (t["metrics"], t["attempted"], t["failed"])
            for w, t in traces.items()})
    else:
        sets = [measure_set(harness, rounds=args.rounds,
                            seconds=args.seconds)
                for _ in range(args.sets)]
        for index, set_doc in enumerate(sets, 1):
            print_set(spec, index, set_doc)
        part = {"rounds": {"seed": args.seed, "sets": sets}}
        if len(sets) > 1:
            rows = compare(spec, {"rounds": {"sets": sets[:1]}},
                           {"rounds": {"sets": sets[1:2]}})
            print("set 1 -> set 2")
            print_compare(rows)
            part["rounds"]["compare"] = rows
        last = sets[-1]
        line = result_line(spec, "end_to_end", {
            w: (e2e_metrics(last, w), last["workloads"][w]["attempted"],
                last["workloads"][w]["failed"])
            for w in workloads})
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.update(host=host_info(), **part)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
