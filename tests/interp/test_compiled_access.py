"""Differential tests for compiled loads/stores and the cold-path helpers.

Generated code serves an access that lies wholly inside SRAM inline and
sends every other one — flash, MMIO, the PPB, unmapped or
region-straddling addresses, denied accesses — through
``_load_other``/``_store_other``; every other cold escape (budget,
undefined register, ...) is a helper call too
(``repro.interp.blockcompile``).  Each case below runs one probe
straight-line in a compiled block and inside a hot loop that fuses into
a trace, and compares both against the single-step reference
(``block_compile=False``): the halt code or the fault (type and
message), cycles, instructions executed, every frame's block and index,
``MachineStats`` and the SRAM bytes.
"""

import pytest

import repro.ir as ir
from repro import build_opec, build_vanilla
from repro.hw import stm32f4_discovery
from repro.hw.backend import KNOWN_BACKENDS
from repro.hw.exceptions import MachineError
from repro.hw.mpu import ACCESS_NONE, ACCESS_READ, ACCESS_READWRITE, MPURegion
from repro.hw.peripherals import RegisterFile
from repro.image import build_vanilla_image
from repro.interp import Interpreter, RuntimeHooks
from repro.ir import I8, I16, I32
from repro.partition import OperationSpec
from repro.pipeline import default_hooks, prepare_machine

BOARD = stm32f4_discovery()
SRAM_BASE = BOARD.sram_base
SRAM_END = BOARD.sram_base + BOARD.sram_size
FLASH_BASE = BOARD.flash_base
TIM2 = BOARD.peripheral("TIM2").base
NVIC_ISPR = BOARD.peripheral("NVIC").base + 0x100
#: Free SRAM the probes may use (the test modules have no globals).
SCRATCH = SRAM_BASE + 0x100
#: A 1 KiB window the granting runtime denies 32 bytes at a time.
WINDOW = SRAM_BASE + 0x10000

#: Loop iterations, and the one that triggers a terminal probe.  The
#: trace fuses after eight head entries, so iteration 12 runs fused.
ITERATIONS = 16
TRIGGER = 12

TYPES = {1: I8, 2: I16, 4: I32}


def _pointer(b, address, type_=I32):
    """A register holding ``address`` as a pointer (not a constant
    pointer, so the compiled access really computes it)."""
    return b.inttoptr(address if not isinstance(address, int)
                      else b.add(b.const(address), 0), type_)


def _at_trigger(b, i, bad, good=SCRATCH, type_=I32):
    """``bad`` on the trigger iteration, ``good`` on all others."""
    return _pointer(b, b.select(b.icmp("eq", i, TRIGGER), bad, good), type_)


def _widen(b, value):
    return value if value.type == I32 else b.zext(value, I32)


# -- probes: (builder, i) -> an i32 to accumulate --------------------------


def _sram_round_trip(address, size):
    """Save, overwrite, read back and restore one word at ``address``."""
    type_ = TYPES[size]

    def probe(b, i):
        p = _pointer(b, address, type_)
        old = b.load(p)
        fresh = b.add(i, 0xA5A5A55A)
        b.store(fresh if size == 4 else b.trunc(fresh, type_), p)
        got = b.load(p)
        b.store(old, p)
        return b.add(_widen(b, got), b.mul(_widen(b, old), 3))

    return probe


def _load_at_trigger(address, size=4):
    def probe(b, i):
        return _widen(b, b.load(_at_trigger(b, i, address,
                                            type_=TYPES[size])))

    return probe


def _store_at_trigger(address, size=4):
    def probe(b, i):
        value = b.add(i, 1)
        b.store(value if size == 4 else b.trunc(value, TYPES[size]),
                _at_trigger(b, i, address, type_=TYPES[size]))
        return i

    return probe


def _flash_read(b, i):
    return b.load(_pointer(b, b.add(b.mul(i, 4), FLASH_BASE + 0x40)))


def _mmio_round_trip(address):
    """Constant pointers, as firmware names device registers (and as
    OPEC's analysis finds an operation's core peripherals)."""
    def probe(b, i):
        b.store(b.add(i, 0x1234), b.mmio(address))
        return b.add(b.load(b.mmio(address)), b.load(b.mmio(address + 4)))

    return probe


def _window_probe(first_access):
    """Touch a fresh 32-byte block of the denied window: the first
    access (a ``load`` or a ``store``) faults and is granted; the
    accesses after it must pass on the rebound (new-epoch) arbitration
    without faulting again."""
    def probe(b, i):
        base = b.add(b.mul(i, 32), WINDOW)
        p = _pointer(b, base)
        if first_access == "store":
            b.store(b.add(i, 7), p)
        first = b.load(p)
        second = b.load(p)
        b.store(b.add(second, i), _pointer(b, b.add(base, 4)))
        return b.add(first, b.load(_pointer(b, b.add(base, 4))))

    return probe


def _refused_probe(first_access):
    """A window access the runtime refuses: a terminal MemManage."""
    address = WINDOW + 0x200 + 4
    if first_access == "store":
        return _store_at_trigger(address)
    return _load_at_trigger(address)


PROBES = {
    **{f"sram_{edge}_{size}": _sram_round_trip(address, size)
       for size in (1, 2, 4)
       for edge, address in (("first", SRAM_BASE),
                             ("last", SRAM_END - size))},
    **{f"sram_end_crossing_{kind}_{size}_at_end-{back}": probe(
        SRAM_END - back, size)
       for kind, probe in (("load", _load_at_trigger),
                           ("store", _store_at_trigger))
       for size, back in ((2, 1), (4, 1), (4, 2), (4, 3))},
    **{f"below_sram_{kind}_{size}_at_base-{back}": probe(
        SRAM_BASE - back, size)
       for kind, probe in (("load", _load_at_trigger),
                           ("store", _store_at_trigger))
       for size, back in ((1, 1), (4, 1), (4, 4))},
    "unmapped_load": _load_at_trigger(0x60000000),
    "unmapped_store": _store_at_trigger(0x60000000),
    "flash_read": _flash_read,
    "flash_write": _store_at_trigger(FLASH_BASE + 0x40),
    "mmio": _mmio_round_trip(TIM2 + 8),
}

#: Probes whose fault ends the run: it must escape from the trigger
#: iteration, inside the trace in the loop variant.
TERMINAL = {name for name in PROBES if name.startswith((
    "sram_end_crossing", "below_sram", "unmapped", "flash_write"))}


def _second_chain_block(b):
    """Continue the loop body in a new block, so the trace's chain runs
    the probe in its second block: an escape must restore
    ``frame.block`` too."""
    block = b.add_block("probe")
    b.jump(block)
    b.position_at_end(block)


def _task_module(probe, *, loop: bool) -> ir.Module:
    """``main`` halts with ``Access_Task()``, which accumulates
    ``probe`` once (``i = TRIGGER``) or over a hot loop."""
    module = ir.Module("access")
    task, b = ir.define(module, "Access_Task", I32, [],
                        source_file="task.c")
    b.alloca(I32, 8)  # keeps the last SRAM words free for the probes
    acc = b.alloca(I32)
    b.store(0, acc)
    if loop:
        with b.for_range(0, ITERATIONS) as load_i:
            i = load_i()
            _second_chain_block(b)
            b.store(b.add(b.load(acc), probe(b, i)), acc)
    else:
        b.store(b.add(b.load(acc), probe(b, b.const(TRIGGER))), acc)
    b.ret(b.load(acc))
    _m, b = ir.define(module, "main", I32, [], source_file="main.c")
    b.halt(b.call(task))
    return module


# -- running and observing ---------------------------------------------------


def _attach_registers(machine):
    machine.attach_device("TIM2", RegisterFile())
    machine.attach_device("NVIC", RegisterFile())


def _run(image, *, block_compile, trace_fuse=True, backend="mpu",
         runtime=None, setup=_attach_registers, max_instructions=100_000):
    machine = prepare_machine(image, setup=setup, backend=backend)
    hooks = runtime() if runtime is not None \
        else default_hooks(machine, image)
    interp = Interpreter(machine, image, hooks,
                         max_instructions=max_instructions,
                         block_compile=block_compile,
                         trace_fuse=trace_fuse)
    error = None
    try:
        outcome = ("halt", interp.run())
    except MachineError as exc:
        error = exc
        outcome = (type(exc).__name__, str(exc))
    observed = {
        "outcome": outcome,
        "cycles": machine.cycles,
        "instructions": interp.instructions_executed,
        "frames": [(f.function.name, f.block.name, f.index)
                   for f in interp.frames],
        "stats": machine.stats.as_dict(),
        "sram": bytes(machine.sram.data),
    }
    return observed, interp, error


def _escaped_from(error) -> set:
    """Generated-code kinds (``block``/``trace``) on ``error``'s
    traceback."""
    kinds = set()
    tb = error.__traceback__ if error is not None else None
    while tb is not None:
        filename = tb.tb_frame.f_code.co_filename
        for kind in ("block", "trace"):
            if filename.startswith(f"<{kind} @"):
                kinds.add(kind)
        tb = tb.tb_next
    return kinds


def _counter(interp, name) -> int:
    return interp.compile_metrics.counter(name).value


def _differential(image, *, loop, **kwargs):
    """Compiled (fused traces on for a loop, per block otherwise) vs
    single-step; returns the compiled observation, interpreter and
    terminal error."""
    compiled, interp, error = _run(image, block_compile=True,
                                   trace_fuse=loop, **kwargs)
    reference, _, _ = _run(image, block_compile=False, **kwargs)
    assert compiled == reference
    return compiled, interp, error


def _check_path(observed, interp, error, *, loop, terminal):
    """The probe ran where the variant says: a terminal fault escaped
    from a block or a trace; a loop that halted ran fused iterations
    (a trace that raises never counts an entry)."""
    if terminal:
        assert observed["outcome"][0] != "halt"
        assert _escaped_from(error) == {"trace" if loop else "block"}
    else:
        assert observed["outcome"][0] == "halt"
        assert (_counter(interp, "tracefuse.trace_entries") > 0) == loop


LOOP = pytest.mark.parametrize("loop", [False, True],
                               ids=["block", "trace"])


@LOOP
@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_matches_single_step(name, loop, no_artifact_store):
    image = build_vanilla(_task_module(PROBES[name], loop=loop), BOARD)
    observed, interp, error = _differential(image, loop=loop)
    _check_path(observed, interp, error, loop=loop,
                terminal=name in TERMINAL)


def test_sram_edges_hit_the_inline_path(no_artifact_store):
    """The first and last SRAM offsets are served inline: no memory-map
    call happens for them (a straddling access is not)."""
    calls = []
    for name in ("sram_first_4", "sram_last_4", "sram_last_1",
                 "sram_end_crossing_load_4_at_end-2"):
        image = build_vanilla(_task_module(PROBES[name], loop=False), BOARD)
        machine = prepare_machine(image, setup=_attach_registers,
                                  backend="mpu")
        read = machine.memory.read
        seen = []

        def spy(address, size, read=read, seen=seen):
            seen.append(address)
            return read(address, size)

        machine.memory.read = spy
        interp = Interpreter(machine, image, block_compile=True)
        try:
            interp.run()
        except MachineError:
            pass
        calls.append(seen)
    assert calls[:3] == [[], [], []]
    assert calls[3] == [SRAM_END - 2]


# -- the PPB under OPEC ------------------------------------------------------


@LOOP
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_unprivileged_ppb_access_emulated_under_opec(loop, backend,
                                                     no_artifact_store):
    """An OPEC operation's NVIC accesses BusFault into the monitor's
    core-peripheral emulation on every access."""
    module = _task_module(_mmio_round_trip(NVIC_ISPR), loop=loop)
    image = build_opec(module, BOARD, [OperationSpec("Access_Task")]).image
    observed, interp, error = _differential(image, loop=loop,
                                            backend=backend)
    _check_path(observed, interp, error, loop=loop, terminal=False)
    accesses = 3 * (ITERATIONS if loop else 1)
    assert observed["stats"]["emulated_core_accesses"] == accesses
    assert observed["stats"]["bus_faults"] == accesses


# -- denied SRAM: MemManage, the handler, the retry --------------------------


class GrantingRuntime(RuntimeHooks):
    """Unprivileged code under an enforcement configuration that maps
    SRAM and flash but denies a 1 KiB window.  A MemManage fault in the
    window's lower half maps the faulting 32-byte block (a new epoch)
    and retries; the upper half is refused."""

    def on_reset(self, interp):
        machine = interp.machine
        machine.enforcement.load_configuration([
            MPURegion(0, SRAM_BASE, 0x40000, ACCESS_READWRITE,
                      ACCESS_READWRITE),
            MPURegion(1, FLASH_BASE, 0x100000, ACCESS_READWRITE,
                      ACCESS_READ),
            MPURegion(2, WINDOW, 0x400, ACCESS_READWRITE, ACCESS_NONE),
        ])
        machine.enforcement.enabled = True
        machine.drop_privilege()

    def handle_memmanage(self, interp, fault):
        if not WINDOW <= fault.address < WINDOW + 0x200:
            return False
        interp.machine.enforcement.set_region(MPURegion(
            3, fault.address & ~31, 32, ACCESS_READWRITE,
            ACCESS_READWRITE))
        return True


FIRST_ACCESS = pytest.mark.parametrize("first_access", ["load", "store"])


@LOOP
@FIRST_ACCESS
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_denied_access_retried_after_grant(loop, first_access, backend,
                                          no_artifact_store):
    image = build_vanilla(
        _task_module(_window_probe(first_access), loop=loop), BOARD)
    observed, interp, error = _differential(image, loop=loop,
                                            backend=backend,
                                            runtime=GrantingRuntime)
    _check_path(observed, interp, error, loop=loop, terminal=False)
    # One fault per fresh block: the accesses after each grant run on
    # the rebound arbitration and do not fault again.
    assert observed["stats"]["memmanage_faults"] == \
        (ITERATIONS if loop else 1)


@LOOP
@FIRST_ACCESS
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_refused_access_is_terminal(loop, first_access, backend,
                                    no_artifact_store):
    image = build_vanilla(
        _task_module(_refused_probe(first_access), loop=loop), BOARD)
    observed, interp, error = _differential(image, loop=loop,
                                            backend=backend,
                                            runtime=GrantingRuntime)
    _check_path(observed, interp, error, loop=loop, terminal=True)
    assert observed["outcome"][0] == "MemManageFault"


# -- undefined registers -----------------------------------------------------


def _undefined_module(kind: str, *, loop: bool) -> ir.Module:
    """A register is defined only when TIM2's first register reads
    non-zero; the probe uses it as a load address or a stored value.
    (The verifier rejects the undominated use, so this builds the
    image without it.)"""
    module = ir.Module("undef")
    task = ir.Function("Access_Task", ir.FunctionType(I32, []))
    module.add_function(task)
    b = ir.IRBuilder(task)
    define = task.add_block("define")
    live = task.add_block("live")
    acc = b.alloca(I32)
    b.store(0, acc)
    b.br(b.icmp("ne", b.load(b.mmio(TIM2)), 0), define, live)
    b.position_at_end(define)
    phantom = (b.inttoptr(b.const(SCRATCH), I32) if kind == "address"
               else b.add(b.const(7), 0))
    b.jump(live)
    b.position_at_end(live)

    def probe(i):
        if kind == "address":
            return b.load(phantom)
        b.store(phantom, _pointer(b, SCRATCH))
        return i

    if loop:
        with b.for_range(0, ITERATIONS) as load_i:
            i = load_i()
            _second_chain_block(b)
            b.store(b.add(b.load(acc), probe(i)), acc)
    else:
        b.store(b.add(b.load(acc), probe(b.const(0))), acc)
    b.ret(b.load(acc))
    _m, b = ir.define(module, "main", I32, [])
    b.halt(b.call(task))
    return module


@LOOP
@pytest.mark.parametrize("kind", ["address", "value"])
def test_undefined_register(kind, loop, no_artifact_store):
    image = build_vanilla_image(_undefined_module(kind, loop=loop), BOARD)
    if loop:
        # Warm the loop into a trace with the register defined, so the
        # run without it enters the trace on its first iteration.
        def defined(machine):
            _attach_registers(machine)
            machine.device("TIM2").registers[0] = 1

        warm, interp, _ = _run(image, block_compile=True, setup=defined)
        assert warm["outcome"][0] == "halt"
        assert _counter(interp, "tracefuse.traces_compiled") == 1
    observed, _, error = _differential(image, loop=loop)
    kind_, message = observed["outcome"]
    assert kind_ == "HardFault" and "use of undefined value" in message
    assert _escaped_from(error) == {"trace" if loop else "block"}


# -- budget exhaustion mid-block -------------------------------------------


@LOOP
def test_budget_runs_out_at_every_instruction(loop, no_artifact_store):
    """Every budget across the last loop iterations (or the whole
    straight-line probe) trips on the same instruction, with the same
    cycles and frame index, as single-step."""
    image = build_vanilla(_task_module(_window_probe("store"), loop=loop),
                          BOARD)
    full, _, _ = _run(image, block_compile=False, runtime=GrantingRuntime)
    total = full["instructions"]
    first = max(1, total - 60)
    for budget in range(first, total):
        observed, _, _ = _differential(
            image, loop=loop, runtime=GrantingRuntime,
            max_instructions=budget)
        kind, message = observed["outcome"]
        assert kind == "ExecutionLimitExceeded"
        assert message.endswith(
            f"budget exceeded in @{observed['frames'][-1][0]}")
        assert observed["instructions"] == budget + 1


def _systick_image():
    module = ir.Module("ticks")
    ticks = module.add_global("ticks", I32, 0)
    _h, b = ir.define(module, "SysTick_Handler", ir.VOID, [],
                      irq_number=15)
    b.store(b.add(b.load(ticks), 1), ticks)
    b.ret_void()
    task, b = ir.define(module, "Access_Task", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, 200) as load_i:
        b.store(b.add(b.load(acc), _flash_read(b, b.and_(load_i(), 7))),
                acc)
    b.ret(b.add(b.load(acc), b.mul(b.load(ticks), 4096)))
    _m, b = ir.define(module, "main", I32, [])
    b.store(97, b.mmio(0xE000E014))  # SysTick RVR
    b.store(7, b.mmio(0xE000E010))   # CSR: ENABLE | TICKINT
    b.halt(b.call(task))
    return build_vanilla(module, BOARD)


def test_irq_suspension_between_accesses(no_artifact_store):
    """SysTick pends mid-block: every compiled block suspends at the
    same instruction boundary as single-step (no trace fuses while
    SysTick is armed)."""
    observed, _, _ = _differential(_systick_image(), loop=False)
    assert observed["outcome"][0] == "halt"
    assert observed["outcome"][1] >= 4096 * 10
