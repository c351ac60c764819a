#!/usr/bin/env python
"""Compiler-side performance regression harness.

The compile-time counterpart of ``bench_regress.py``: snapshots the
OPEC-Compiler analysis pipeline into ``BENCH_analysis.json`` so the
compile-side perf trajectory is tracked like the interpreter's.

Per application (paper profile — builds only, nothing is simulated):

* Andersen solver cost counters — worklist ``iterations``,
  ``propagated_objects``, ``peak_delta``, final ``constraints`` sizes —
  all *deterministic*: they are part of the determinism contract and
  diffed by ``tools/check_determinism.py``;
* derived call-graph facts (icall counts and how each was resolved,
  operation/function counts) — deterministic too;
* the per-stage wall-clock breakdown from ``BuildArtifacts.stage_times``
  and the Andersen solve time — host measurements, masked from the
  determinism diff.

The ``harness`` section times full evaluation-row passes
(``compute_all_rows``) under the quick profile against a fresh
artifact cache: a cold serial pass (populating the store), a warm
serial pass (one row entry read per application), and — when
``REPRO_JOBS`` > 1 — cold and warm passes through the process pool.
Each pass records its wall-clock and the store's hit/miss counters, so
the snapshot proves both the warm speedup and that pool workers
actually shared the store.
Skip it with ``--no-harness`` (the determinism checker does: the whole
section is host wall-clock).

Usage:  PYTHONPATH=src python benchmarks/bench_analysis.py [out.json] [--no-harness]
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.eval.workloads import APP_NAMES, build_app, repro_jobs  # noqa: E402
from repro.pipeline import build_opec  # noqa: E402


def bench_app(name: str) -> dict:
    app = build_app(name, profile="paper")
    artifacts = build_opec(app.module, app.board, app.specs)
    andersen = artifacts.andersen
    graph = artifacts.callgraph
    return {
        "functions": len(app.module.functions),
        "operations": len(artifacts.operations),
        "andersen": {
            "iterations": andersen.iterations,
            "propagated_objects": andersen.propagated_objects,
            "peak_delta": andersen.peak_delta,
            "constraints": dict(andersen.constraint_counts),
            "solve_wall_s": round(andersen.solve_time, 4),
        },
        "icalls": {
            "total": graph.icall_count(),
            "svf": graph.resolved_by("svf"),
            "type": graph.resolved_by("type"),
        },
        "stages_wall_ms": {
            stage: round(seconds * 1000, 2)
            for stage, seconds in artifacts.stage_times.items()
        },
    }


def _timed_rows(jobs: int, cache_dir: str) -> tuple[float, dict]:
    """Time one full compute_all_rows pass in a fresh subprocess
    against ``cache_dir`` (in-process memos always start cold; the
    on-disk store carries whatever previous passes put there).
    Returns (wall seconds, cache hit/miss counters of the pass)."""
    env = dict(os.environ)
    env["REPRO_PROFILE"] = "quick"
    env["REPRO_JOBS"] = str(jobs)
    env["REPRO_CACHE"] = cache_dir
    env.setdefault("PYTHONPATH", str(REPO / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json\n"
         "from repro.eval.workloads import compute_all_rows\n"
         "print(json.dumps(compute_all_rows()['cache']))"],
        cwd=REPO, env=env, check=True, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    counters = json.loads(proc.stdout.splitlines()[-1])
    return elapsed, counters


def _pass_report(wall: float, counters: dict) -> dict:
    return {
        "wall_s": round(wall, 2),
        "cache_hits": counters["hits"],
        "cache_misses": counters["misses"],
    }


def bench_harness() -> dict:
    import tempfile

    jobs = repro_jobs()
    report = {"profile": "quick", "jobs": jobs}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold, cold_counters = _timed_rows(1, tmp)
        warm, warm_counters = _timed_rows(1, tmp)
        report["serial_cold"] = _pass_report(cold, cold_counters)
        report["serial_warm"] = _pass_report(warm, warm_counters)
        report["serial_warm_speedup"] = round(cold / warm, 2)
    if jobs > 1:
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-cache-") as tmp:
            cold, cold_counters = _timed_rows(jobs, tmp)
            warm, warm_counters = _timed_rows(jobs, tmp)
            report["parallel_cold"] = _pass_report(cold, cold_counters)
            report["parallel_warm"] = _pass_report(warm, warm_counters)
            report["parallel_warm_speedup"] = round(cold / warm, 2)
    return report


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--no-harness"]
    run_harness = "--no-harness" not in sys.argv[1:]
    out = Path(args[0]) if args else REPO / "BENCH_analysis.json"
    # The apps section exists to track real per-stage compile timings;
    # an ambient warm store would replace them with one "cache_load"
    # entry.  (The harness subprocesses pin their own REPRO_CACHE.)
    os.environ["REPRO_CACHE"] = "off"
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "apps": {name: bench_app(name) for name in APP_NAMES},
    }
    if run_harness:
        report["harness"] = bench_harness()
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
