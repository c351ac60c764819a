"""Differential property tests: fused loop traces vs both lower tiers.

The trace fuser batches whole pure runs under one cycle charge and one
budget check per iteration, so its bit-identity claim is sharper than
the block compiler's: random loop bodies probe the batched charges,
the sync points around loads/stores, the per-iteration IRQ/SysTick
guard, and the KeyError rollback — against per-block execution *and*
the single-step reference, with the hot threshold forced low so every
random loop actually fuses.  The OPEC end-to-end check quantifies the
claim over all three enforcement backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.ir as ir
from repro import run_image
from repro.hw import Machine, stm32f4_discovery
from repro.hw.backend import KNOWN_BACKENDS
from repro.hw.exceptions import MachineError
from repro.image import build_vanilla_image
from repro.interp import Interpreter, tracefuse
from repro.ir import I8, I32, VOID

WORD = 0xFFFFFFFF
u32 = st.integers(min_value=0, max_value=WORD)

BINOPS = list(ir.BINARY_OPS)
PREDS = list(ir.ICMP_PREDICATES)

op_steps = st.one_of(
    st.tuples(st.just("binop"), st.sampled_from(BINOPS)),
    st.tuples(st.just("icmp"), st.sampled_from(PREDS)),
    st.tuples(st.just("select"), st.sampled_from(PREDS)),
    st.tuples(st.just("truncext"), st.just("")),
)

#: (block_compile, trace_fuse) per tier.
MODES = (("fused", True, True), ("blocks", True, False),
         ("step", False, False))


@pytest.fixture(autouse=True)
def hot(monkeypatch):
    """Every random loop must cross the hot threshold quickly."""
    monkeypatch.setattr(tracefuse, "TRACE_THRESHOLD", 2)


@st.composite
def programs(draw):
    return {
        "seeds": draw(st.lists(u32, min_size=8, max_size=8)),
        "steps": draw(st.lists(op_steps, min_size=1, max_size=6)),
        "iterations": draw(st.integers(min_value=3, max_value=25)),
        "start": draw(u32),
        # 0 = SysTick disarmed; small reloads force mid-trace IRQs.
        "reload": draw(st.sampled_from([0, 0, 67, 131])),
        # None = clean halt; an in-loop faulting store otherwise — the
        # fuser's sync point must commit the pure run then fault.
        "probe": draw(st.sampled_from(
            [None, None, 0x60000000, 0x20000000])),
    }


def _build_module(spec) -> ir.Module:
    module = ir.Module("differential")
    ticks = module.add_global("ticks", I32, 0)
    if spec["reload"]:
        _h, hb = ir.define(module, "SysTick_Handler", VOID, [],
                           irq_number=15)
        hb.store(hb.add(hb.load(ticks), 1), ticks)
        hb.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    arr = b.alloca(I32, 8)
    for j, seed in enumerate(spec["seeds"]):
        b.store(seed, b.gep(arr, j))
    acc_slot = b.alloca(I32)
    b.store(spec["start"], acc_slot)
    if spec["reload"]:
        b.store(spec["reload"], b.mmio(0xE000E014))
        b.store(7, b.mmio(0xE000E010))
    with b.for_range(0, spec["iterations"]) as load_i:
        acc = b.load(acc_slot)
        cell = b.gep(arr, b.and_(acc, 7))
        value = b.load(cell)
        for kind, arg in spec["steps"]:
            if kind == "binop":
                acc = b.binop(arg, acc, value)
            elif kind == "icmp":
                acc = b.add(b.zext(b.icmp(arg, acc, value)), value)
            elif kind == "select":
                acc = b.select(b.icmp(arg, acc, load_i()), acc, value)
            else:
                acc = b.zext(b.trunc(acc, I8))
        b.store(acc, cell)
        b.store(acc, acc_slot)
        if spec["probe"] is not None:
            b.store(acc, b.mmio(spec["probe"]))
    b.halt(b.add(b.load(acc_slot), b.load(ticks)))
    return module


def _observe(module, block_compile, trace_fuse) -> dict:
    """One run's complete simulated observable state."""
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    interp = Interpreter(machine, image, max_instructions=200_000,
                         block_compile=block_compile,
                         trace_fuse=trace_fuse)
    try:
        outcome = ("halt", interp.run())
    except MachineError as error:
        outcome = (type(error).__name__, str(error))
    return {
        "outcome": outcome,
        "cycles": machine.cycles,
        "instructions": interp.instructions_executed,
        "stats": machine.stats.as_dict(),
        "sram": machine.read_bytes(machine.sram.base, machine.sram.size),
    }


@given(programs())
@settings(max_examples=40, deadline=None)
def test_fused_matches_blocks_and_singlestep(spec):
    module = _build_module(spec)
    observed = [_observe(module, bc, tf) for _name, bc, tf in MODES]
    assert observed[0] == observed[1] == observed[2]


def _observe_backend(image, app, backend, block_compile,
                     trace_fuse) -> dict:
    try:
        result = run_image(image, setup=app.setup,
                           max_instructions=app.max_instructions,
                           backend=backend, block_compile=block_compile,
                           trace_fuse=trace_fuse)
    except MachineError as error:
        return {"outcome": (type(error).__name__, str(error))}
    return {
        "outcome": ("halt", result.halt_code),
        "cycles": result.machine.cycles,
        "instructions": result.interpreter.instructions_executed,
        "stats": result.machine.stats.as_dict(),
        "switches": result.hooks.switch_count,
    }


def test_pinlock_opec_identical_on_every_backend():
    """End-to-end differential under real enforcement: operation
    switches, compiled SVC dispatch, MemManage retries, SysTick — the
    fused tier against both lower tiers, per backend."""
    from repro.eval.workloads import build_app, opec_artifacts

    app = build_app("PinLock", profile="quick")
    image = opec_artifacts("PinLock", profile="quick").image
    for backend in KNOWN_BACKENDS:
        observed = [_observe_backend(image, app, backend, bc, tf)
                    for _name, bc, tf in MODES]
        assert observed[0] == observed[1] == observed[2], backend
