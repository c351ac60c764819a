"""Unit tests for the per-block superinstruction compiler.

The compiler's contract is bit-identity with single-step execution —
same halt codes, same simulated cycles, same stats, same memory image,
same fault messages — plus structural guarantees: closures are cached
on the (image-independent) IR block, uncompilable blocks degrade to a
cached ``None`` sentinel, and ``REPRO_BLOCKCOMPILE`` validates loudly.
"""

import pickle

import pytest

import repro.ir as ir
from repro.hw import Machine, stm32f4_discovery
from repro.hw.exceptions import MachineError
from repro.image import build_vanilla_image
from repro.interp import (
    BLOCKCOMPILE_OFF_VALUES,
    BLOCKCOMPILE_ON_VALUES,
    ExecutionLimitExceeded,
    Interpreter,
    block_compile_enabled,
    compile_block,
)
from repro.interp import blockcompile, tracefuse
from repro.interp.blockcompile import (
    CODE_MEMO_SIZE,
    _block_code,
    _source_code,
    wait_loop,
)
from repro.ir import I8, I32, VOID


def _loop_module(iterations: int = 500):
    module = ir.Module("loop")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, iterations) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    return module


def _run(module, block_compile, *, max_instructions=1_000_000,
         raise_irqs=(), trace_fuse=None):
    """Run a vanilla build; return (interp, machine, outcome).

    ``outcome`` is the halt code, or the terminal :class:`MachineError`
    when the firmware faults — callers compare it across modes.
    """
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    for number in raise_irqs:
        machine.raise_irq(number)
    interp = Interpreter(machine, image, max_instructions=max_instructions,
                         block_compile=block_compile, trace_fuse=trace_fuse)
    try:
        outcome = interp.run()
    except MachineError as error:
        outcome = error
    return interp, machine, outcome


def _compare_modes(module, *, max_instructions=1_000_000, raise_irqs=(),
                   trace_fuse=None):
    """Run both modes and assert the simulated outcomes are identical."""
    results = []
    for mode in (True, False):
        interp, machine, outcome = _run(
            module, mode, max_instructions=max_instructions,
            raise_irqs=raise_irqs, trace_fuse=trace_fuse)
        sram = machine.read_bytes(machine.sram.base, machine.sram.size)
        results.append({
            "outcome": (type(outcome).__name__, str(outcome))
            if isinstance(outcome, MachineError) else outcome,
            "cycles": machine.cycles,
            "instructions": interp.instructions_executed,
            "stats": machine.stats.as_dict(),
            "sram": sram,
        })
    compiled, singlestep = results
    assert compiled == singlestep
    return compiled


class TestEnvKnob:
    @pytest.mark.parametrize("raw", sorted(BLOCKCOMPILE_ON_VALUES))
    def test_on_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", raw)
        assert block_compile_enabled() is True

    @pytest.mark.parametrize("raw", sorted(BLOCKCOMPILE_OFF_VALUES))
    def test_off_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", raw)
        assert block_compile_enabled() is False

    def test_unset_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCKCOMPILE", raising=False)
        assert block_compile_enabled() is True

    def test_misspelling_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", "fastish")
        with pytest.raises(ValueError, match="REPRO_BLOCKCOMPILE"):
            block_compile_enabled()

    def test_interpreter_consults_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", "off")
        module = _loop_module(5)
        board = stm32f4_discovery()
        image = build_vanilla_image(module, board)
        machine = Machine(board)
        image.initialize_memory(machine)
        assert Interpreter(machine, image).block_compile is False
        # An explicit constructor argument overrides the environment.
        assert Interpreter(machine, image,
                           block_compile=True).block_compile is True


class TestClosureCache:
    def test_closure_cached_and_shared_across_machines(
            self, no_artifact_store):
        module = _loop_module(50)
        interp1, _, code1 = _run(module, True)
        first = interp1.compile_metrics.snapshot()["counters"]
        assert first["blockcompile.blocks_compiled"] > 0
        assert first["blockcompile.compile_errors"] == 0
        for block in module.get_function("main").blocks:
            assert callable(block._compiled)
        # A second run over the same IR reuses every closure.
        interp2, _, code2 = _run(module, True)
        second = interp2.compile_metrics.snapshot()["counters"]
        assert second["blockcompile.blocks_compiled"] == 0
        assert second["blockcompile.block_entries"] > 0
        assert code1 == code2

    def test_compile_failure_caches_none_sentinel(self):
        class Broken:
            """Not a BasicBlock: codegen dies, compile_block must not."""
            instructions = None

        broken = Broken()
        assert compile_block(broken) is None
        assert broken._compiled is None

    def test_pickle_drops_compiled_closures(self):
        module = _loop_module(10)
        _run(module, True)
        main = module.get_function("main")
        assert any(callable(b._compiled) for b in main.blocks)
        clone = pickle.loads(pickle.dumps(module))
        for block in clone.get_function("main").blocks:
            assert not hasattr(block, "_compiled")

    def test_generated_source_attached(self):
        module = _loop_module(10)
        _run(module, True)
        entry = module.get_function("main").blocks[0]
        assert "frame.index" in entry._compiled.__repro_source__


def _global_loop_module(name: str, init: int):
    """Adds 0..19 onto a global's initial value: the generated source
    depends only on the structure, never on ``name`` or ``init``."""
    module = ir.Module(name)
    seed = module.add_global("seed", I32, init)
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(b.load(seed), acc)
    with b.for_range(0, 20) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    return module


#: How a :func:`_named_module` function ends, and the fault it raises.
ENDINGS = {
    "budget": "ExecutionLimitExceeded",
    "fell-off": "HardFault",
    "stack-overflow": "HardFault",
    "unreachable": "HardFault",
}


def _named_module(fname: str, *, ending: str):
    """One function ``fname`` whose first block is ``<fname>.top``: a
    counting loop that outruns a small budget, a block that falls off
    its end, an ``alloca`` past the stack limit, or ``unreachable``.
    Only the two names differ between two calls."""
    module = ir.Module("named")
    counter = module.add_global("counter", I32, 0)
    function = ir.Function(fname, ir.FunctionType(I32, []))
    module.add_function(function)
    b = ir.IRBuilder(function, function.add_block(f"{fname}.top"))
    b.store(b.add(b.load(counter), 1), counter)
    if ending == "budget":
        with b.for_range(0, 10_000):
            b.store(b.add(b.load(counter), 1), counter)
        b.halt(b.load(counter))
    elif ending == "stack-overflow":
        b.alloca(I32, 0x10000)
        b.halt(0)
    elif ending == "unreachable":
        b.unreachable()
    return module


def _fault(module, entry: str, block_compile: bool) -> tuple:
    """The terminal fault's ``type: message``, plus where it left the
    run: instructions executed, cycles, every frame's block and index."""
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    interp = Interpreter(machine, image, max_instructions=500,
                         block_compile=block_compile)
    with pytest.raises(MachineError) as excinfo:
        interp.run(entry)
    return (f"{type(excinfo.value).__name__}: {excinfo.value}",
            interp.instructions_executed, machine.cycles,
            [(f.block.name, f.index) for f in interp.frames])


DWT_CYCCNT = 0xE0001004  # reads the cycle counter
SCB_ICSR = 0xE000ED04    # reads 0 out of reset


def _constant_module(*, imm, stored, mmio, field, alloca, limit, bound):
    """A ``main`` holding every kind of value the block compiler binds
    instead of writing it into the source: a binop immediate, a stored
    constant, an MMIO constant-pointer load, a struct-field GEP offset,
    an ``alloca`` size, a signed compare against a constant, and a hot
    loop's bound.  Any two calls build structurally identical modules.
    Halts with ``stored + sum(range(bound)) + flag + (status << 16)``
    where ``flag`` is 1 when ``stored + imm < limit`` (signed), else 2.
    """
    module = ir.Module("consts")
    record = ir.StructType("rec", [("a", I32), ("b", I32), ("c", I32)])
    _m, b = ir.define(module, "main", I32, [])
    b.alloca(ir.array(I8, alloca))
    slot = b.gep(b.alloca(record), 0, field)
    b.store(stored, slot)
    status = b.load(b.mmio(mmio))
    flag = b.select(b.icmp("slt", b.add(b.load(slot), imm), limit), 1, 2)
    with b.for_range(0, bound) as load_i:
        b.store(b.add(b.load(slot), load_i()), slot)
    b.halt(b.add(b.add(b.load(slot), flag), b.shl(status, 16)))
    return module


#: Two value sets for :func:`_constant_module`.  In the first the binop
#: immediate equals the stored constant; in the second they differ, so
#: binding equal constants to one name would change the source.
CONSTANTS = (
    {"imm": 7, "stored": 7, "mmio": DWT_CYCCNT, "field": 1, "alloca": 40,
     "limit": 100, "bound": 30},
    {"imm": 7, "stored": 9, "mmio": SCB_ICSR, "field": 2, "alloca": 24,
     "limit": -5, "bound": 45},
)


class TestCodeMemo:
    """Structurally identical blocks share one code object per process;
    each still executes in its own namespace."""

    def test_blocks_differing_only_in_constants_share_code(
            self, monkeypatch, no_artifact_store):
        """The second module compiles nothing, its fused hot loop
        included, yet each simulates exactly like single-step with its
        own values."""
        monkeypatch.setattr(tracefuse, "TRACE_THRESHOLD", 2)
        modules = [_constant_module(**values) for values in CONSTANTS]
        misses, outcomes = [], []
        for module in modules:
            before = _source_code.cache_info().misses
            outcomes.append(_compare_modes(module, trace_fuse=True)["outcome"])
            misses.append(_source_code.cache_info().misses - before)
        assert misses[1] == 0
        assert [code & 0xFFFF for code in outcomes] == \
            [7 + sum(range(30)) + 1, 9 + sum(range(45)) + 2]
        assert outcomes[0] >> 16 and not outcomes[1] >> 16
        blocks = [module.get_function("main").blocks for module in modules]
        for a, b in zip(*blocks):
            assert callable(a._compiled) and callable(b._compiled)
            assert a._compiled.__repro_source__ is \
                b._compiled.__repro_source__
        traces = [[blk._trace for blk in main
                   if callable(getattr(blk, "_trace", None))]
                  for main in blocks]
        (first,), (second,) = traces
        assert first.__repro_source__ is second.__repro_source__
        assert first.__globals__ is not second.__globals__

    def test_interpreter_counts_the_sources_it_compiles(
            self, no_artifact_store):
        """Two blocks differing only in a constant cost one
        ``compile()``, counted by the interpreter that caused it."""
        _block_code.cache_clear()
        _source_code.cache_clear()
        counted = []
        for k in (3, 5):
            module = ir.Module("count")
            _m, b = ir.define(module, "main", I32, [])
            b.halt(b.add(b.load(b.mmio(SCB_ICSR)), k))
            interp, _, code = _run(module, True)
            assert code == k
            counters = interp.compile_metrics.snapshot()["counters"]
            counted.append((counters["blockcompile.sources_compiled"],
                            counters["blockcompile.source_chars"]))
        source = module.get_function("main").blocks[0]._compiled
        assert counted == [(1, len(source.__repro_source__)), (0, 0)]

    def test_identical_blocks_in_two_modules_share_code(
            self, no_artifact_store):
        left = _global_loop_module("left", 5)
        right = _global_loop_module("right", 1000)
        halts = []
        # Left, right, then left again: the second left run enters
        # code the right run also executed, and must still see only
        # its own module's registers and global.
        for module in (left, right, left):
            board = stm32f4_discovery()
            image = build_vanilla_image(module, board)
            machine = Machine(board)
            image.initialize_memory(machine)
            interp = Interpreter(machine, image, block_compile=True)
            halts.append(interp.run())
            own = {id(v) for blk in module.get_function("main").blocks
                   for v in blk.instructions}
            for frame in interp.frames:
                assert {id(v) for v in frame.regs} <= own
        assert halts == [5 + 190, 1000 + 190, 5 + 190]
        pairs = list(zip(left.get_function("main").blocks,
                         right.get_function("main").blocks))
        for a, b in pairs:
            assert callable(a._compiled) and callable(b._compiled)
            assert a._compiled.__code__ is b._compiled.__code__
            assert a._compiled.__repro_source__ is \
                b._compiled.__repro_source__
            assert a._compiled.__globals__ is not b._compiled.__globals__
        # Each namespace resolves its own module's global.
        seeds = [{v for v in fn.__globals__.values()
                  if isinstance(v, ir.GlobalVariable)}
                 for fn in (pairs[0][0]._compiled, pairs[0][1]._compiled)]
        assert seeds == [{left.get_global("seed")},
                         {right.get_global("seed")}]

    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    def test_function_name_keeps_code_apart(self, ending,
                                            no_artifact_store):
        """Blocks differing only in function and block name share one
        compile, yet each keeps its own code object and filename, and
        the fault names the function it happened in."""
        names = ("spin_a", "spin_b")
        modules = [_named_module(name, ending=ending) for name in names]
        compiles = []
        for name, module in zip(names, modules):
            before = _source_code.cache_info().misses
            compiled = _fault(module, name, True)
            compiles.append(_source_code.cache_info().misses - before)
            assert compiled == _fault(module, name, False)
            message = compiled[0]
            assert message.startswith(f"{ENDINGS[ending]}: ")
            assert f"@{name}" in message
        assert compiles[1] == 0
        pairs = [(a, b) for a, b in zip(*(
            module.get_function(name).blocks
            for name, module in zip(names, modules)))
            if hasattr(a, "_compiled")]
        assert pairs
        for a, b in pairs:
            assert callable(a._compiled) and callable(b._compiled)
            assert a._compiled.__repro_source__ is \
                b._compiled.__repro_source__
            assert a._compiled.__code__ is not b._compiled.__code__
            assert a._compiled.__code__.co_code == \
                b._compiled.__code__.co_code
            for name, block in zip(names, (a, b)):
                assert block._compiled.__code__.co_filename == \
                    f"<block @{name}:{block.name}>"

    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    def test_generated_source_is_name_free(self, ending):
        module = _named_module("quux_fn", ending=ending)
        for block in module.get_function("quux_fn").blocks:
            source = compile_block(block).__repro_source__
            assert "quux" not in source
            assert block.name not in source

    def test_generated_source_is_constant_free(self):
        module = ir.Module("distinct")
        main, b = ir.define(module, "main", I32, [])
        frame = b.alloca(ir.array(I8, 1234))
        words = b.alloca(I32, 8)
        b.store(0x5EED1234, b.gep(words, 3))
        back = b.gep(b.gep(words, 5), -3)  # a -12 byte offset
        b.store(b.load(b.mmio(0x40021014)), back)
        b.halt(0)
        fn = compile_block(main.blocks[0])
        values = (0x5EED1234, 0x40021014, -12, frame.byte_size)
        bound = {v for v in fn.__globals__.values() if v.__class__ is int}
        assert set(values) <= bound
        for value in values:
            assert str(value) not in fn.__repro_source__
            assert hex(value) not in fn.__repro_source__.lower()

    def test_codegen_failure_is_not_memoised(self, monkeypatch):
        module = _named_module("broken_halt", ending="budget")
        block = module.get_function("broken_halt").blocks[-1]
        monkeypatch.setattr(
            blockcompile._BlockCompiler, "_emit_halt",
            lambda self, i, inst: blockcompile._Emitted(
                ["return ("], transfers=True))
        before = (_block_code.cache_info(), _source_code.cache_info())
        assert compile_block(block) is None
        assert compile_block(block) is None
        after = (_block_code.cache_info(), _source_code.cache_info())
        # Both attempts really compiled (two misses), neither stored.
        for old, new in zip(before, after):
            assert new.misses - old.misses == 2
            assert new.currsize == old.currsize

    def test_memo_stays_within_its_bound(self):
        # 13 specialised binops: the k-th sequence of three is the k-th
        # distinct block shape.
        ops = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr",
               "ashr", "udiv", "urem", "sdiv", "srem")
        module = ir.Module("many")
        for k in range(CODE_MEMO_SIZE + 8):
            _f, b = ir.define(module, f"shape{k}", I32, [])
            value = b.const(k)
            for op in (ops[k // 169], ops[k // 13 % 13], ops[k % 13]):
                value = b.binop(op, value, 3)
            b.halt(value)
        for function in module.defined_functions():
            assert callable(compile_block(function.blocks[0]))
        for memo in (_block_code, _source_code):
            info = memo.cache_info()
            assert info.maxsize == CODE_MEMO_SIZE
            assert info.currsize == CODE_MEMO_SIZE  # it evicted

    def test_generated_filename_names_the_block(self, no_artifact_store):
        """Profilers attribute generated code by this filename prefix."""
        module = _loop_module(10)
        _run(module, True)
        for block in module.get_function("main").blocks:
            assert block._compiled.__code__.co_filename == \
                f"<block @main:{block.name}>"


class TestEquivalence:
    def test_arith_loop_bit_identical(self):
        result = _compare_modes(_loop_module(500))
        assert result["outcome"] == sum(range(500)) & 0xFFFFFFFF

    def test_budget_exhaustion_identical(self):
        module = _loop_module(10_000)
        outcomes = []
        for mode in (True, False):
            board = stm32f4_discovery()
            image = build_vanilla_image(module, board)
            machine = Machine(board)
            image.initialize_memory(machine)
            interp = Interpreter(machine, image, max_instructions=777,
                                 block_compile=mode)
            with pytest.raises(ExecutionLimitExceeded) as excinfo:
                interp.run()
            outcomes.append((str(excinfo.value), machine.cycles,
                             interp.instructions_executed))
        assert outcomes[0] == outcomes[1]
        # The limit trips on the first instruction past the budget.
        assert outcomes[0][2] == 778

    def test_bus_fault_identical(self):
        # Load from unmapped address space: terminal fault either mode.
        module = ir.Module("crash")
        _m, b = ir.define(module, "main", I32, [])
        acc = b.alloca(I32)
        b.store(1, acc)
        b.halt(b.load(b.mmio(0x60000000)))
        result = _compare_modes(module)
        kind, message = result["outcome"]
        assert message  # a real diagnostic, identically worded

    def test_undefined_value_identical(self):
        # A value defined only on a never-taken path: the compiled
        # register fetch raises KeyError and must replay through the
        # single-step handler for the canonical HardFault message.
        module = ir.Module("undef")
        main = ir.Function("main", ir.FunctionType(I32, []))
        module.add_function(main)
        b = ir.IRBuilder(main)
        dead = main.add_block("dead")
        live = main.add_block("live")
        b.jump(live)
        b.position_at_end(dead)
        phantom = b.add(1, 2)
        b.jump(live)
        b.position_at_end(live)
        b.halt(b.add(phantom, 1))
        result = _compare_modes(module)
        kind, message = result["outcome"]
        assert kind == "HardFault"
        assert "use of undefined value" in message

    def test_mid_run_irqs_identical(self):
        # SysTick armed: compiled blocks must suspend for pending IRQs
        # at instruction boundaries exactly like single-stepping.
        module = ir.Module("ticks")
        ticks = module.add_global("uwTick", I32, 0)
        _h, b = ir.define(module, "SysTick_Handler", VOID, [],
                          irq_number=15)
        b.store(b.add(b.load(ticks), 1), ticks)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.store(99, b.mmio(0xE000E014))   # RVR: tick every 100 cycles
        b.store(7, b.mmio(0xE000E010))    # CSR: ENABLE | TICKINT
        with b.for_range(0, 2000):
            pass
        b.halt(b.load(ticks))
        result = _compare_modes(module, max_instructions=10_000_000)
        assert result["outcome"] > 10  # the handler really fired

    def test_fallback_steps_counted_for_irq_windows(self):
        module = ir.Module("irq")
        flag = module.add_global("flag", I32, 0)
        _h, b = ir.define(module, "H", VOID, [], irq_number=40)
        b.store(1, flag)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        with b.for_range(0, 20):
            pass
        b.halt(b.load(flag))
        interp, _, code = _run(module, True, raise_irqs=[40])
        assert code == 1
        counters = interp.compile_metrics.snapshot()["counters"]
        assert counters["blockcompile.fallback_steps"] > 0


class TestIRQDeliveryOrder:
    def test_pending_irqs_are_fifo(self):
        """Regression pin for the ``pop(0)`` → ``popleft()`` migration:
        two IRQs raised back-to-back must be delivered oldest-first."""
        module = ir.Module("order")
        order = module.add_global("order", I32, 0)
        for number in (40, 41):
            _h, b = ir.define(module, f"H{number}", VOID, [],
                              irq_number=number)
            b.store(b.add(b.mul(b.load(order), 100), number), order)
            b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        with b.for_range(0, 50):
            pass
        b.halt(b.load(order))
        for mode in (True, False):
            _, _, code = _run(module, mode, raise_irqs=[40, 41])
            assert code == 40 * 100 + 41  # FIFO: 40 first, then 41


USART2_SR = stm32f4_discovery().peripheral("USART2").base
RXNE = 1 << 5


def _header(function):
    return next(b for b in function.blocks if b.name == "while.head")


def _inline_wait(*, pointer=None, extra=None, body=None):
    """``while ((*pointer & RXNE) == 0) body();`` — the UART_Read_Byte
    poll; ``extra`` may add ops to the header, ``body`` to the body."""
    module = ir.Module("wait")
    main, b = ir.define(module, "main", I32, [])
    slot = b.alloca(I32)

    def cond():
        if pointer == "ram":
            source = slot
        elif pointer == "global":
            source = module.add_global("status", I32, 0)
        else:
            source = b.mmio(USART2_SR)
        value = b.load(source)
        if extra is not None:
            value = extra(b, value, slot)
        return b.icmp("eq", b.and_(value, RXNE), 0)

    with b.while_loop(cond):
        if body is not None:
            body(b, slot)
    b.halt(0)
    return main


def _call_wait(*, args=False, two_blocks=False):
    """``while (poll() == 0);`` — TCP-Echo's Rx_Task over
    ``ETH_Frames_Waiting``."""
    module = ir.Module("wait")
    poll, b = ir.define(module, "poll", I32, [I32] if args else [])
    value = b.load(b.mmio(USART2_SR))
    if two_blocks:
        tail = poll.add_block("tail")
        b.jump(tail)
        b.position_at_end(tail)
    b.ret(value)
    main, b = ir.define(module, "main", I32, [])
    with b.while_loop(
            lambda: b.icmp("eq", b.call(poll, *([1] if args else [])), 0)):
        pass
    b.halt(0)
    return main, poll


class TestWaitLoopRecogniser:
    def test_inline_shape(self):
        wait = wait_loop(_header(_inline_wait()))
        assert wait is not None
        assert (wait.address, wait.size, wait.callee) == (USART2_SR, 4, None)
        # jump(2) + load(2) + and(1) + icmp(1) + br(2), from the body.
        assert (wait.cycles, wait.insts, wait.read_at) == (8, 5, 4)
        assert wait.cont.name == "while.body"

    def test_call_shape(self):
        main, poll = _call_wait()
        wait = wait_loop(_header(main))
        assert wait is not None and wait.callee is poll
        # jump(2) + call(3) + [load(2) + ret(3)] + icmp(1) + br(2).
        assert (wait.cycles, wait.insts, wait.read_at) == (13, 6, 7)

    def test_self_loop_header_continues_to_itself(self):
        module = ir.Module("wait")
        main = ir.Function("main", ir.FunctionType(I32, []))
        module.add_function(main)
        b = ir.IRBuilder(main)
        spin = main.add_block("spin")
        done = main.add_block("done")
        b.jump(spin)
        b.position_at_end(spin)
        ready = b.and_(b.load(b.mmio(USART2_SR)), RXNE)
        b.br(b.icmp("eq", ready, 0), spin, done)
        b.position_at_end(done)
        b.halt(0)
        wait = wait_loop(spin)
        assert wait.cont is spin
        assert (wait.cycles, wait.insts, wait.read_at) == (6, 4, 2)

    def test_compiled_header_calls_the_helper(self):
        main = _inline_wait()
        fn = compile_block(_header(main))
        assert "interp._wait_skip(" in fn.__repro_source__
        # The polled address is bound, not written into the source.
        assert str(USART2_SR) not in fn.__repro_source__
        plain = compile_block(main.blocks[0])
        assert "interp._wait_skip(" not in plain.__repro_source__

    @pytest.mark.parametrize("pointer", ["ram", "global"])
    def test_rejects_non_mmio_load(self, pointer):
        assert wait_loop(_header(_inline_wait(pointer=pointer))) is None

    def test_rejects_division(self):
        main = _inline_wait(extra=lambda b, v, slot: b.udiv(v, 3))
        assert wait_loop(_header(main)) is None

    def test_rejects_store(self):
        def extra(b, value, slot):
            b.store(value, slot)
            return value

        assert wait_loop(_header(_inline_wait(extra=extra))) is None

    def test_rejects_busy_body(self):
        def body(b, slot):
            b.store(1, slot)

        assert wait_loop(_header(_inline_wait(body=body))) is None

    def test_rejects_callee_with_arguments(self):
        main, _poll = _call_wait(args=True)
        assert wait_loop(_header(main)) is None

    def test_rejects_callee_with_two_blocks(self):
        main, _poll = _call_wait(two_blocks=True)
        assert wait_loop(_header(main)) is None
