#!/usr/bin/env python
"""Scripted determinism check for the committed evaluation outputs.

Re-runs the full evaluation export (``repro.eval.export``) under the
same profile the committed ``results/`` were produced with
(``REPRO_PROFILE=quick``) **five times** — once against an empty
artifact cache with two workers (``REPRO_JOBS=2``: cold, populating
it, and the pass that byte-checks the row and campaign pools), once
against the now-populated cache, again at ``REPRO_JOBS=2`` as in the
end-to-end benchmark's warm export (each application's rows, each
campaign firmware's report and each PinLock fleet lane come from
their entries, so that pass starts no worker and simulates nothing),
once with ``REPRO_CACHE=off``, once with ``REPRO_BLOCKCOMPILE=off``
(the single-step reference interpreter), and once with
``REPRO_TRACEFUSE=off`` (per-block execution without loop fusion) —
and compares every file of every pass byte-for-byte against the
committed tree.  The last three passes run serially.  That is the
whole contract of the fast paths: a cache hit may only ever change
*when* you get the bytes, and block compilation / trace fusion only
*how fast* the simulated machine is stepped — never *which* bytes you
get.  The store's run entries, which a warm export no longer reads,
are held to the same rows by ``tests/cache/test_row_entries.py``.
A sixth pass runs ``repro fleet PinLock`` with the store off at
``--jobs 1`` and ``--jobs 2``, so both simulate every lane, and
requires byte-identical sim sections and two worker pids.

Each export runs as ``python -W error::RuntimeWarning -m
repro.eval.export``, so an export module that the ``repro.eval``
package imports eagerly (which makes ``-m`` run it twice, with a
runpy warning) fails the check.

The single tolerated exception is the analysis wall-clock column of
Table 3 (``time_s`` / ``Time(s)``): it measures the host machine, not
the simulated one, so it is masked before comparison.  Everything else
— every simulated-cycle figure, every counter — must be bit-identical,
which is the invariant the hot-path fast paths are held to (see
DESIGN.md, "Performance & determinism" and "Build caching").

Additionally, the compile-side benchmark snapshot
(``BENCH_analysis.json``) is regenerated and its *derived* fields —
Andersen iteration/propagation/constraint counters, icall resolution
counts, operation counts — are diffed against the committed snapshot,
with every host measurement (solve wall-clock, per-stage timings, the
harness section, platform info) masked, mirroring the table3 rule.

Usage:  PYTHONPATH=src python tools/check_determinism.py [results_dir]
Exit status 0 = deterministic, 1 = divergence (diff printed).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

# Host-wall-clock column index, by filename, dropped before comparing.
MASKED_COLUMNS = {"table3.tsv": 3, "table3.txt": 3}

# Host-measurement keys pruned from BENCH_analysis.json (any depth).
MASKED_BENCH_KEYS = {"solve_wall_s", "stages_wall_ms", "harness",
                     "python", "machine"}


def normalise(path: Path) -> list[tuple[str, ...]]:
    if path.name == "fleet_pinlock.json":
        # Fused fleet trace: host-domain pids carry wall clock, so
        # only the sim-domain section is part of the contract.
        from repro.obs.fleet import sim_trace_section

        return [(sim_trace_section(path.read_text()),)]
    if path.name == "fleet_pinlock.txt":
        # Fleet dashboard: compare everything above the host marker.
        from repro.obs.fleet import sim_dashboard_section

        return [tuple(line.split()) for line in
                sim_dashboard_section(path.read_text()).splitlines()]
    if path.suffix == ".json":
        # Trace exports are canonical JSON: compare raw bytes, no
        # whitespace-tolerant splitting.
        return [(path.read_text(),)]
    masked = MASKED_COLUMNS.get(path.name)
    rows = []
    for line in path.read_text().splitlines():
        fields = line.split("\t") if path.suffix == ".tsv" else line.split()
        if masked is not None and len(fields) > masked:
            fields = fields[:masked] + fields[masked + 1:]
        rows.append(tuple(fields))
    return rows


def mask_bench(node):
    """Recursively drop host-measurement keys from a bench report."""
    if isinstance(node, dict):
        return {key: mask_bench(value) for key, value in node.items()
                if key not in MASKED_BENCH_KEYS}
    if isinstance(node, list):
        return [mask_bench(item) for item in node]
    return node


def check_bench_analysis(env: dict, failures: list[str]) -> None:
    committed_path = REPO / "BENCH_analysis.json"
    if not committed_path.exists():
        failures.append("BENCH_analysis.json: not committed")
        return
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        fresh_path = Path(tmp) / "BENCH_analysis.json"
        subprocess.run(
            [sys.executable, "benchmarks/bench_analysis.py",
             str(fresh_path), "--no-harness"],
            cwd=REPO, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        want = mask_bench(json.loads(committed_path.read_text()))
        got = mask_bench(json.loads(fresh_path.read_text()))
    if want != got:
        failures.append("BENCH_analysis.json: derived fields diverged")
        for app in sorted(set(want.get("apps", {})) | set(got.get("apps", {}))):
            if want.get("apps", {}).get(app) != got.get("apps", {}).get(app):
                failures.append(
                    f"  {app}: {want.get('apps', {}).get(app)!r} != "
                    f"{got.get('apps', {}).get(app)!r}")


def check_export(committed: Path, env: dict, label: str,
                 failures: list[str]) -> int:
    """Run one full export and diff it against the committed tree.
    Returns the number of committed files (for the summary line)."""
    names = sorted(p.name for p in committed.iterdir())
    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.eval.export", tmp],
            cwd=REPO, env=env, check=True,
        )
        fresh_dir = Path(tmp)
        for name in names:
            fresh = fresh_dir / name
            if not fresh.exists():
                failures.append(f"[{label}] {name}: not regenerated")
                continue
            want = normalise(committed / name)
            got = normalise(fresh)
            if want != got:
                failures.append(f"[{label}] {name}: content diverged")
                for i, (w, g) in enumerate(zip(want, got)):
                    if w != g:
                        failures.append(
                            f"  line {i + 1}: {w!r} != {g!r}")
        extra = sorted(p.name for p in fresh_dir.iterdir()
                       if p.name not in names)
        for name in extra:
            failures.append(
                f"[{label}] {name}: produced by export but not committed")
    return len(names)


def check_fleet(env: dict, failures: list[str]) -> None:
    """``repro fleet`` worker-count parity: the fused trace's
    sim-domain section and the dashboard above the host marker must be
    byte-identical between ``--jobs 1`` and ``--jobs 2``, and the
    two-worker trace must actually contain at least two worker pids.
    ``env`` turns the store off: a warm store would serve every lane
    in the conductor and start no worker."""
    from repro.obs.fleet import sim_dashboard_section, sim_trace_section

    sections: dict[int, tuple[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        for jobs in (1, 2):
            base = Path(tmp) / f"fleet_j{jobs}"
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "fleet", "PinLock",
                 "--jobs", str(jobs), "--backends", "mpu", "pmp",
                 "overlay", "--output", str(base)],
                cwd=REPO, env=env, check=True, stdout=subprocess.DEVNULL,
            )
            trace_text = base.with_suffix(".json").read_text()
            sections[jobs] = (
                sim_trace_section(trace_text),
                sim_dashboard_section(base.with_suffix(".txt").read_text()),
            )
            if jobs == 2:
                document = json.loads(trace_text)
                worker_pids = {entry.get("pid")
                               for entry in document["traceEvents"]} - {0, 1}
                if len(worker_pids) < 2:
                    failures.append(
                        f"[fleet] jobs=2 trace has worker pids "
                        f"{sorted(worker_pids)}: expected at least 2")
    if sections[1][0] != sections[2][0]:
        failures.append(
            "[fleet] sim trace section diverged between --jobs 1 and 2")
    if sections[1][1] != sections[2][1]:
        failures.append(
            "[fleet] sim dashboard diverged between --jobs 1 and 2")


def main() -> int:
    committed = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "results"
    env = dict(os.environ)
    env["REPRO_PROFILE"] = "quick"
    env.pop("REPRO_JOBS", None)
    env.setdefault("PYTHONPATH", str(REPO / "src"))
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        # Pass 1: empty store, two workers — every artifact cold-built
        # in the row, campaign and fleet pools, then stored.
        env["REPRO_CACHE"] = cache_dir
        env["REPRO_JOBS"] = "2"
        count = check_export(committed, env, "cache-cold", failures)
        entries = sum(1 for _ in Path(cache_dir).glob("*/*/*.bin"))
        if entries == 0:
            failures.append(
                "[cache-cold] export populated no cache entries")
        # Pass 2: same store, now warm — every row, report and fleet
        # lane read from its entry in the exporting process.
        check_export(committed, env, "cache-warm", failures)
        del env["REPRO_JOBS"]
        # Pass 3: store bypassed entirely.
        env["REPRO_CACHE"] = "off"
        check_export(committed, env, "cache-off", failures)
        # Pass 4: single-step reference interpreter (no
        # superinstructions).  Same bytes or the block compiler is
        # changing simulated behaviour.
        env["REPRO_BLOCKCOMPILE"] = "off"
        check_export(committed, env, "blockcompile-off", failures)
        del env["REPRO_BLOCKCOMPILE"]
        # Pass 5: per-block tier without loop fusion.  Same bytes or
        # the trace fuser's batched charging is changing simulated
        # behaviour.
        env["REPRO_TRACEFUSE"] = "off"
        check_export(committed, env, "tracefuse-off", failures)
        del env["REPRO_TRACEFUSE"]
        # Pass 6: fleet worker-count parity, store still off, so both
        # worker counts simulate every lane.
        check_fleet(env, failures)
    check_bench_analysis(env, failures)
    if failures:
        print("DETERMINISM CHECK FAILED")
        print("\n".join(failures))
        return 1
    print(f"determinism check passed: {count} files bit-identical across "
          f"two-worker cold-cache, warm-cache ({entries} entries), "
          "cache-off, "
          "blockcompile-off and tracefuse-off exports (table3 host "
          "wall-clock column and fleet host sections masked), fleet "
          "sim domain byte-identical across --jobs 1/2 (store off), and "
          "BENCH_analysis.json derived fields unchanged (host timings "
          "masked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
