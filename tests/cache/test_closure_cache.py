"""Persistent compiled-closure cache: warm runs skip codegen entirely.

Each test points ``REPRO_CACHE`` at a private directory, cold-runs a
firmware (compiling its blocks and loop traces, and persisting them at
halt), then rebuilds the *same* module from scratch — a stand-in for a
fresh process — and verifies the warm run loads every closure from the
store, recompiles nothing, and simulates byte-identically.  Damaged
entries must degrade to a recompile, never to a failed run.
"""

import pytest

import repro.ir as ir
from repro import cache
from repro.cache.digest import closures_digest
from repro.eval import workloads
from repro.hw import Machine, stm32f4_discovery
from repro.image import build_vanilla_image
from repro.interp import Interpreter
from repro.interp import closurecache, tracefuse
from repro.ir import I32


@pytest.fixture
def private_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    # These tests exercise the compiled tiers regardless of the ambient
    # mode (the CI matrix runs the suite with the tiers disabled too).
    monkeypatch.setenv("REPRO_BLOCKCOMPILE", "on")
    monkeypatch.setenv("REPRO_TRACEFUSE", "on")
    monkeypatch.setattr(tracefuse, "TRACE_THRESHOLD", 2)
    workloads.clear_caches()
    cache.reset_store_state()
    yield cache.active_store()
    workloads.clear_caches()
    cache.reset_store_state()


def _loop_module(iterations: int = 300):
    module = ir.Module("loop")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, iterations) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    return module


def _run(module):
    """One full simulated run; returns (interp, observables)."""
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    interp = Interpreter(machine, image, max_instructions=1_000_000)
    code = interp.run()
    return interp, {
        "halt": code,
        "cycles": machine.cycles,
        "instructions": interp.instructions_executed,
        "stats": machine.stats.as_dict(),
        "sram": machine.read_bytes(machine.sram.base, machine.sram.size),
    }


def _counters(interp) -> dict:
    return interp.compile_metrics.snapshot()["counters"]


def test_warm_run_recompiles_nothing(private_store):
    cold_interp, cold = _run(_loop_module())
    cc = _counters(cold_interp)
    assert cc["blockcompile.blocks_compiled"] > 0
    assert cc["tracefuse.traces_compiled"] > 0
    assert cc["closurecache.saves"] == 1

    # A structurally identical fresh module = a fresh process's view.
    warm_interp, warm = _run(_loop_module())
    wc = _counters(warm_interp)
    assert wc["closurecache.blocks_loaded"] > 0
    assert wc["closurecache.traces_loaded"] > 0
    assert wc["blockcompile.blocks_compiled"] == 0
    assert wc["tracefuse.traces_compiled"] == 0
    assert wc["tracefuse.trace_rejects"] == 0
    # Nothing newly compiled → nothing to re-save.
    assert wc["closurecache.saves"] == 0
    assert warm == cold


def test_warm_run_is_byte_identical_for_opec_app(private_store):
    from repro.pipeline import run_image

    app = workloads.build_app("PinLock", profile="quick")
    image = workloads.opec_artifacts("PinLock", profile="quick").image
    cold = run_image(image, setup=app.setup,
                     max_instructions=app.max_instructions)
    workloads.clear_caches()
    warm_image = workloads.opec_artifacts("PinLock", profile="quick").image
    assert warm_image.module is not image.module
    warm = run_image(warm_image, setup=app.setup,
                     max_instructions=app.max_instructions)
    assert warm.halt_code == cold.halt_code
    assert warm.cycles == cold.cycles
    assert (warm.interpreter.instructions_executed
            == cold.interpreter.instructions_executed)
    wc = _counters(warm.interpreter)
    assert wc["closurecache.blocks_loaded"] > 0
    assert wc["blockcompile.blocks_compiled"] == 0
    # The UART wait header's fast-forward survives the round trip.
    assert wc["waitskip.skips"] == _counters(cold.interpreter)[
        "waitskip.skips"] > 0


def _branchy_loop_module(iterations: int = 300):
    """A hot loop whose body branches — unfusible, so its head is
    *rejected* by the trace compiler rather than fused."""
    module = ir.Module("branchy")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, iterations) as load_i:
        with b.if_then(b.icmp("ult", b.and_(load_i(), 1), 1)):
            b.store(b.add(b.load(acc), 2), acc)
        b.store(b.add(b.load(acc), 1), acc)
    b.halt(b.load(acc))
    return module


def test_rejected_traces_persist(private_store):
    # A rejection (cached ``None``) is itself an artifact: the warm
    # run must skip the detection walk too, reporting zero rejects.
    cold_interp, cold = _run(_branchy_loop_module())
    assert _counters(cold_interp)["tracefuse.trace_rejects"] > 0
    fresh = _branchy_loop_module()
    blocks, traces = closurecache.preload(fresh)
    assert blocks > 0
    assert any(getattr(b, "_trace", "unset") is None
               for b in fresh.get_function("main").blocks)
    warm_interp, warm = _run(fresh)
    assert _counters(warm_interp)["tracefuse.trace_rejects"] == 0
    assert warm == cold


def test_damaged_entry_degrades_to_recompile(private_store):
    cold_interp, cold = _run(_loop_module())
    digest = closures_digest(_loop_module())
    payload = private_store.get(digest)
    assert payload and payload["blocks"]
    # Replace every closure entry's code with garbage bytes: decoding
    # must fail quietly and the warm run must recompile from source.
    for entry in payload["blocks"].values():
        if entry is not None:
            entry["code"] = b"\x00not marshal"
    for entry in payload["traces"].values():
        if entry is not None:
            entry["code"] = b"\x00not marshal"
    private_store.put(digest, payload)
    warm_interp, warm = _run(_loop_module())
    wc = _counters(warm_interp)
    assert wc["blockcompile.blocks_compiled"] > 0  # recompiled, no crash
    assert warm == cold


def test_cache_off_is_a_quiet_noop(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setattr(tracefuse, "TRACE_THRESHOLD", 2)
    cache.reset_store_state()
    try:
        interp, _ = _run(_loop_module())
        counters = _counters(interp)
        assert counters["closurecache.blocks_loaded"] == 0
        assert counters["closurecache.saves"] == 0
    finally:
        cache.reset_store_state()
