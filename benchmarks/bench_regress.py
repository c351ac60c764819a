#!/usr/bin/env python
"""Interpreter performance regression harness.

Runs a fixed set of workloads and emits ``BENCH_interp.json`` so future
changes have a perf trajectory to compare against:

* ``vanilla_throughput`` — a tight arithmetic/memory loop on the bare
  interpreter with block compilation **on** (the headline
  instructions-per-second of the substrate);
* ``vanilla_throughput_singlestep`` — the same loop with block
  compilation forced **off**, continuing the pre-superinstruction
  trajectory (and pinning that the two modes agree bit-for-bit);
* ``pinlock_opec`` — the PinLock application under full OPEC
  enforcement (operation switches, MPU faults, SysTick, core-peripheral
  emulation), single-step mode — the historical end-to-end trajectory;
* ``pinlock_opec_pmp`` / ``pinlock_opec_overlay`` — the same firmware
  on the other enforcement backends (single-step), so each substrate's
  arbitration path (PMP entry scan + decision cache, overlay interval
  bisect) has its own throughput trajectory;
* ``pinlock_opec_blockcompile`` — PinLock/OPEC/mpu with block
  compilation on: the superinstruction path through the monitor,
  SVC boundaries, and MemManage retries;
* ``batch_throughput`` — N lanes of the throughput firmware run
  through one process by the batch runner, sharing one image and one
  set of compiled block closures (the timed run includes each lane's
  machine set-up);
* ``tracefuse_throughput`` / ``tracefuse_throughput_blocks`` — an
  ALU-heavy hot loop (the shape where fusing whole iterations under
  one batched cycle charge pays most) with loop-trace fusion on vs
  per-block execution, pinning the fused tier's speedup trajectory and
  its bit-identity;
* ``warm_compile`` — the same firmware cold (compiling every closure
  and persisting it) then warm (every closure rehydrated from the
  artifact store): the warm pass must recompile **nothing**.

Each workload runs ``REPEATS`` times in this one process: the report
records the median host wall-clock with its min and max (the first
repetition also pays the process's first compile of each generated
source) *and* the simulated quantities (``cycles``, instructions,
``MachineStats``), which every repetition must charge identically;
compile counters are the first repetition's.
Wall-clock is the number optimisations may move; the simulated numbers
are the determinism contract — they must never change, and must not
depend on block compilation or batching (see DESIGN.md, "Performance &
determinism").  The harness enforces the latter directly: compiled
results are compared field-by-field against single-step results and a
mismatch fails the run.

Usage:  PYTHONPATH=src python benchmarks/bench_regress.py [out.json]
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro.ir as ir  # noqa: E402
from repro import build_opec, run_image  # noqa: E402
from repro.hw import Machine, stm32f4_discovery  # noqa: E402
from repro.image import build_vanilla_image  # noqa: E402
from repro.interp import BatchRunner, Interpreter  # noqa: E402
from repro.ir import I32  # noqa: E402

BATCH_LANES = 8
REPEATS = 5


def _throughput_module(iterations: int = 100_000):
    module = ir.Module("throughput")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, iterations) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    return module


def _alu_module(iterations: int = 300_000):
    """A hot loop dominated by pure register compute: ~10 ALU ops per
    iteration against 2 memory ops, so the fused tier's batched
    charging covers long pure runs."""
    module = ir.Module("alu")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(7, acc)
    with b.for_range(0, iterations) as load_i:
        v = b.load(acc)
        v = b.add(v, load_i())
        v = b.xor(v, 0x5A5A5A5A)
        v = b.shl(v, 1)
        v = b.sub(v, 3)
        v = b.lshr(v, 1)
        v = b.mul(v, 3)
        v = b.and_(v, 0x00FFFFFF)
        b.store(v, acc)
    b.halt(b.load(acc))
    return module


def _check_identical(name: str, run: dict, reference: dict) -> None:
    """Fail loudly if a run's simulated numbers drift from a reference
    run's (single-step, solo, or the first repetition)."""
    keys = ("instructions", "cycles", "stats", "halt_code", "switches")
    for key in keys:
        if key in run and key in reference and run[key] != reference[key]:
            raise SystemExit(
                f"{name}: {key} diverged from the reference run: "
                f"{run[key]!r} != {reference[key]!r}")


def _spread(walls: list, key: str = "wall_clock") -> dict:
    """Median, min and max of ``walls`` under ``<key>_s``,
    ``<key>_min_s`` and ``<key>_max_s``."""
    walls = sorted(walls)
    return {f"{key}_s": round(statistics.median(walls), 4),
            f"{key}_min_s": walls[0], f"{key}_max_s": walls[-1]}


def _repeat(name: str, measure) -> dict:
    """Run ``measure`` ``REPEATS`` times: the first run's report with
    the median, min and max wall-clock of all of them.  Every
    repetition must charge the same simulated numbers."""
    runs = [measure() for _ in range(REPEATS)]
    report = dict(runs[0])
    for run in runs[1:]:
        _check_identical(f"{name} (repetition)", run, report)
    report.update(_spread([run["wall_clock_s"] for run in runs]))
    if "insts_per_s" in report:
        report["insts_per_s"] = round(report["instructions"]
                                      / report["wall_clock_s"])
    report["repeats"] = REPEATS
    return report


def _run_module(module, *, block_compile: bool,
                trace_fuse=None) -> dict:
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    interp = Interpreter(machine, image, max_instructions=10_000_000,
                         block_compile=block_compile,
                         trace_fuse=trace_fuse)
    start = time.perf_counter()
    interp.run()
    wall = time.perf_counter() - start
    return {
        "wall_clock_s": round(wall, 4),
        "instructions": interp.instructions_executed,
        "cycles": machine.cycles,
        "stats": machine.stats.as_dict(),
        "insts_per_s": round(interp.instructions_executed / wall),
        "compile_metrics": interp.compile_metrics.snapshot()["counters"],
    }


def _run_throughput(block_compile: bool) -> dict:
    return _run_module(_throughput_module(), block_compile=block_compile)


def bench_vanilla_throughput() -> tuple[dict, dict]:
    compiled = _repeat("vanilla_throughput",
                       lambda: _run_throughput(block_compile=True))
    singlestep = _repeat("vanilla_throughput_singlestep",
                         lambda: _run_throughput(block_compile=False))
    _check_identical("vanilla_throughput", compiled, singlestep)
    return compiled, singlestep


def bench_pinlock_opec(backend: str = "mpu",
                       block_compile: bool = False) -> dict:
    return _repeat(f"pinlock_opec[{backend}]",
                   lambda: _pinlock_once(backend, block_compile))


def _pinlock_once(backend: str, block_compile: bool) -> dict:
    from repro.apps import pinlock

    app = pinlock.build(rounds=2)
    artifacts = build_opec(app.module, app.board, app.specs)
    start = time.perf_counter()
    result = run_image(artifacts.image, setup=app.setup,
                       max_instructions=app.max_instructions,
                       backend=backend, block_compile=block_compile)
    wall = time.perf_counter() - start
    app.verify_run(result.machine, result.halt_code)
    return {
        "wall_clock_s": round(wall, 4),
        "halt_code": result.halt_code,
        "cycles": result.machine.cycles,
        "switches": result.hooks.switch_count,
        "stats": result.machine.stats.as_dict(),
    }


def bench_batch_throughput(lanes: int = BATCH_LANES) -> dict:
    """N throughput lanes through one process, sharing image + blocks.
    The timed run includes each lane's machine set-up: the runner
    builds a lane's machine when it reaches the lane."""
    solo = _run_throughput(block_compile=True)
    return _repeat("batch_throughput", lambda: _batch_once(lanes, solo))


def _batch_once(lanes: int, solo: dict) -> dict:
    image = build_vanilla_image(_throughput_module(), stm32f4_discovery())
    runner = BatchRunner(block_compile=True)
    for _ in range(lanes):
        runner.add(image, max_instructions=10_000_000)
    total_insts = 0

    def check(lane) -> None:
        nonlocal total_insts
        if lane.error is not None:
            raise SystemExit(f"batch_throughput: {lane.name} died: "
                             f"{lane.error}")
        lane_report = {
            "instructions": lane.interpreter.instructions_executed,
            "cycles": lane.machine.cycles,
            "stats": lane.machine.stats.as_dict(),
        }
        _check_identical(f"batch_throughput/{lane.name}", lane_report, solo)
        total_insts += lane.interpreter.instructions_executed

    start = time.perf_counter()
    result = runner.run(check)
    wall = time.perf_counter() - start
    return {
        "wall_clock_s": round(wall, 4),
        "lanes": lanes,
        "instructions": total_insts,
        "cycles_per_lane": solo["cycles"],
        "insts_per_s": round(total_insts / wall),
        "compile_metrics":
            result.compile_metrics.snapshot()["counters"],
    }


def bench_tracefuse_throughput() -> tuple[dict, dict]:
    """The fused tier's headline: an ALU-heavy loop, fused vs
    per-block, bit-identical by construction."""
    fused = _repeat("tracefuse_throughput", lambda: _run_module(
        _alu_module(), block_compile=True, trace_fuse=True))
    # On a warm store the trace is loaded from the closure cache
    # instead of compiled; either way the hot loop ran fused.
    counters = fused["compile_metrics"]
    if (counters["tracefuse.traces_compiled"]
            + counters["closurecache.traces_loaded"]) == 0:
        raise SystemExit("tracefuse_throughput: hot loop never fused")
    blocks = _repeat("tracefuse_throughput_blocks", lambda: _run_module(
        _alu_module(), block_compile=True, trace_fuse=False))
    _check_identical("tracefuse_throughput", fused, blocks)
    fused["speedup_vs_blocks"] = round(
        blocks["wall_clock_s"] / fused["wall_clock_s"], 3)
    return fused, blocks


def bench_warm_compile() -> dict:
    """Cold vs warm codegen through the persistent closure cache.

    Each repetition runs the same firmware twice against a fresh
    private artifact store — fresh module instances, so the warm pass
    models a fresh process — and fails the harness if the warm pass
    compiled anything at all.
    """
    pairs = [_warm_compile_once() for _ in range(REPEATS)]
    cold, warm = pairs[0]
    for other_cold, other_warm in pairs[1:]:
        _check_identical("warm_compile (repetition)", other_cold, cold)
        _check_identical("warm_compile (repetition)", other_warm, warm)
    return {
        **_spread([pair[0]["wall_clock_s"] for pair in pairs], "cold_wall"),
        **_spread([pair[1]["wall_clock_s"] for pair in pairs], "warm_wall"),
        "repeats": REPEATS,
        "cold_compile_metrics": cold["compile_metrics"],
        "warm_compile_metrics": warm["compile_metrics"],
    }


def _warm_compile_once() -> tuple[dict, dict]:
    import os
    import tempfile

    from repro import cache

    saved = os.environ.get("REPRO_CACHE")
    with tempfile.TemporaryDirectory(prefix="repro-closures-") as tmp:
        os.environ["REPRO_CACHE"] = tmp
        cache.reset_store_state()
        try:
            cold = _run_module(_alu_module(), block_compile=True,
                               trace_fuse=True)
            warm = _run_module(_alu_module(), block_compile=True,
                               trace_fuse=True)
        finally:
            if saved is None:
                del os.environ["REPRO_CACHE"]
            else:
                os.environ["REPRO_CACHE"] = saved
            cache.reset_store_state()
    _check_identical("warm_compile", warm, cold)
    warm_counters = warm["compile_metrics"]
    for counter in ("blockcompile.blocks_compiled",
                    "tracefuse.traces_compiled",
                    "tracefuse.trace_rejects"):
        if warm_counters[counter] != 0:
            raise SystemExit(
                f"warm_compile: warm run performed codegen "
                f"({counter}={warm_counters[counter]})")
    if warm_counters["closurecache.blocks_loaded"] == 0:
        raise SystemExit("warm_compile: warm run loaded no closures")
    return cold, warm


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "BENCH_interp.json"
    throughput, throughput_singlestep = bench_vanilla_throughput()
    pinlock_mpu = bench_pinlock_opec()
    pinlock_compiled = bench_pinlock_opec(block_compile=True)
    _check_identical("pinlock_opec_blockcompile", pinlock_compiled,
                     pinlock_mpu)
    tracefuse, tracefuse_blocks = bench_tracefuse_throughput()
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {
            "vanilla_throughput": throughput,
            "vanilla_throughput_singlestep": throughput_singlestep,
            "tracefuse_throughput": tracefuse,
            "tracefuse_throughput_blocks": tracefuse_blocks,
            "warm_compile": bench_warm_compile(),
            "pinlock_opec": pinlock_mpu,
            "pinlock_opec_pmp": bench_pinlock_opec("pmp"),
            "pinlock_opec_overlay": bench_pinlock_opec("overlay"),
            "pinlock_opec_blockcompile": pinlock_compiled,
            "batch_throughput": bench_batch_throughput(),
        },
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
