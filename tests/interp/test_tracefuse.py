"""Unit tests for the fused-loop trace compiler (tier 3).

The fuser's contract is bit-identity with both lower tiers — same halt
codes, same simulated cycles, same stats, same memory image, same
fault messages whether a hot loop runs fused, per-block, or
single-stepped — plus structural guarantees: traces are cached on the
IR block (``None`` for rejected heads), dropped on pickle, and the
``REPRO_TRACEFUSE`` knob validates loudly.
"""

import pickle

import pytest

import repro.ir as ir
from repro.hw import Machine, stm32f4_discovery
from repro.hw.exceptions import MachineError
from repro.image import build_vanilla_image
from repro.interp import (
    TRACEFUSE_OFF_VALUES,
    TRACEFUSE_ON_VALUES,
    ExecutionLimitExceeded,
    Interpreter,
    compile_trace,
    trace_fuse_enabled,
    tracefuse,
)
from repro.ir import I32, VOID

#: (block_compile, trace_fuse) per execution tier, hottest first.
MODES = {"fused": (True, True), "blocks": (True, False),
         "step": (False, False)}


def _loop_module(iterations: int = 500):
    module = ir.Module("loop")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, iterations) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    return module


def _alu_loop_module(iterations: int = 300):
    """A loop whose body is dominated by pure register compute — the
    shape where fusing pays most, and where the batched cycle charges
    cover the longest pure runs."""
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


def _run(module, mode, *, max_instructions=10_000_000, raise_irqs=()):
    block_compile, trace_fuse = MODES[mode]
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


def _compare_modes(module, *, max_instructions=10_000_000, raise_irqs=()):
    """Run all three tiers and assert identical simulated outcomes."""
    results = {}
    for mode in MODES:
        interp, machine, outcome = _run(
            module, mode, max_instructions=max_instructions,
            raise_irqs=raise_irqs)
        results[mode] = {
            "outcome": (type(outcome).__name__, str(outcome))
            if isinstance(outcome, MachineError) else outcome,
            "cycles": machine.cycles,
            "instructions": interp.instructions_executed,
            "stats": machine.stats.as_dict(),
            "sram": machine.read_bytes(machine.sram.base,
                                       machine.sram.size),
        }
    assert results["fused"] == results["blocks"] == results["step"]
    return results["fused"]


@pytest.fixture
def hot(monkeypatch):
    """Force a low hot threshold so short test loops actually fuse."""
    monkeypatch.setattr(tracefuse, "TRACE_THRESHOLD", 2)


class TestEnvKnob:
    @pytest.mark.parametrize("raw", sorted(TRACEFUSE_ON_VALUES))
    def test_on_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACEFUSE", raw)
        assert trace_fuse_enabled() is True

    @pytest.mark.parametrize("raw", sorted(TRACEFUSE_OFF_VALUES))
    def test_off_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACEFUSE", raw)
        assert trace_fuse_enabled() is False

    def test_unset_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACEFUSE", raising=False)
        assert trace_fuse_enabled() is True

    def test_misspelling_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACEFUSE", "fastish")
        with pytest.raises(ValueError, match="REPRO_TRACEFUSE"):
            trace_fuse_enabled()

    def test_threshold_default(self, monkeypatch):
        """The hot threshold is a module constant, 8, that each
        interpreter reads when it is built."""
        image = build_vanilla_image(_loop_module(5), stm32f4_discovery())

        def threshold():
            machine = Machine(image.board)
            image.initialize_memory(machine)
            return Interpreter(machine, image, block_compile=True,
                               trace_fuse=True)._fuse_threshold

        assert threshold() == tracefuse.TRACE_THRESHOLD == 8
        monkeypatch.setattr(tracefuse, "TRACE_THRESHOLD", 3)
        assert threshold() == 3

    def test_interpreter_consults_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACEFUSE", "off")
        module = _loop_module(5)
        board = stm32f4_discovery()
        image = build_vanilla_image(module, board)
        machine = Machine(board)
        image.initialize_memory(machine)
        assert Interpreter(machine, image).trace_fuse is False
        # Explicit constructor argument overrides the environment
        # (block compilation pinned on: without it fusion is forced
        # off regardless, e.g. under the CI matrix's ambient
        # REPRO_BLOCKCOMPILE=off).
        assert Interpreter(machine, image, block_compile=True,
                           trace_fuse=True).trace_fuse is True

    def test_block_compile_off_forces_fusion_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACEFUSE", raising=False)
        module = _loop_module(5)
        board = stm32f4_discovery()
        image = build_vanilla_image(module, board)
        machine = Machine(board)
        image.initialize_memory(machine)
        interp = Interpreter(machine, image, block_compile=False,
                             trace_fuse=True)
        assert interp.trace_fuse is False


class TestTraceCache:
    def test_trace_cached_and_shared_across_machines(
            self, hot, no_artifact_store):
        module = _loop_module(200)
        interp1, _, code1 = _run(module, "fused")
        first = interp1.compile_metrics.snapshot()["counters"]
        assert first["tracefuse.traces_compiled"] > 0
        assert first["tracefuse.trace_entries"] > 0
        traced = [b for b in module.get_function("main").blocks
                  if callable(getattr(b, "_trace", None))]
        assert traced
        # A second run over the same IR reuses the fused closure.
        interp2, _, code2 = _run(module, "fused")
        second = interp2.compile_metrics.snapshot()["counters"]
        assert second["tracefuse.traces_compiled"] == 0
        assert second["tracefuse.trace_entries"] > 0
        assert code1 == code2

    def test_unfusible_head_caches_none(self):
        class Broken:
            """Not a BasicBlock: detection dies, compile_trace must
            degrade to a cached rejection, never raise."""
            instructions = None

        broken = Broken()
        assert compile_trace(broken) is None
        assert broken._trace is None

    def test_wait_loop_chain_is_rejected(self):
        """A device-wait header's own fast-forward runs its loop; a
        fused trace would spin every poll instead."""
        module = ir.Module("wait")
        _m, b = ir.define(module, "main", I32, [])
        status = stm32f4_discovery().peripheral("USART2").base
        with b.while_loop(lambda: b.icmp(
                "eq", b.and_(b.load(b.mmio(status)), 1 << 5), 0)):
            pass
        b.halt(0)
        body = next(blk for blk in module.get_function("main").blocks
                    if blk.name == "while.body")
        assert compile_trace(body) is None

    def test_pickle_drops_traces(self, hot):
        module = _loop_module(50)
        _run(module, "fused")
        main = module.get_function("main")
        assert any(callable(getattr(b, "_trace", None))
                   for b in main.blocks)
        clone = pickle.loads(pickle.dumps(module))
        for block in clone.get_function("main").blocks:
            assert not hasattr(block, "_trace")

    def test_generated_source_and_chain_attached(self, hot):
        module = _loop_module(50)
        _run(module, "fused")
        traced = [b for b in module.get_function("main").blocks
                  if callable(getattr(b, "_trace", None))]
        fn = traced[0]._trace
        assert "while True:" in fn.__repro_source__
        assert all(isinstance(b, ir.BasicBlock)
                   for b in fn.__repro_chain__)

    def test_same_loop_in_two_functions_compiles_once(self, hot,
                                                      no_artifact_store):
        """Trace sources are name-free like block sources: the second
        function's trace reuses the first's compile, renamed to its own
        ``<trace @fn:head>`` filename."""
        from repro.interp.blockcompile import _source_code

        traces = []
        for name in ("loop_a", "loop_b"):
            module = ir.Module(name)
            _f, b = ir.define(module, name, I32, [])
            acc = b.alloca(I32)
            b.store(0, acc)
            with b.for_range(0, 50) as load_i:
                b.store(b.add(b.load(acc), load_i()), acc)
            b.halt(b.load(acc))
            board = stm32f4_discovery()
            image = build_vanilla_image(module, board)
            machine = Machine(board)
            image.initialize_memory(machine)
            before = _source_code.cache_info().misses
            interp = Interpreter(machine, image, block_compile=True,
                                 trace_fuse=True)
            assert interp.run(name) == sum(range(50))
            traces.append((
                _source_code.cache_info().misses - before,
                [blk._trace for blk in module.get_function(name).blocks
                 if callable(getattr(blk, "_trace", None))]))
        (_, (first,)), (misses, (second,)) = traces
        assert misses == 0
        assert first.__repro_source__ is second.__repro_source__
        assert first.__code__ is not second.__code__
        head = first.__repro_chain__[0].name
        assert first.__code__.co_filename.startswith(f"<trace @loop_a:{head}x")
        assert second.__code__.co_filename.startswith(
            f"<trace @loop_b:{head}x")


class TestEquivalence:
    def test_arith_loop_bit_identical(self, hot):
        result = _compare_modes(_loop_module(500))
        assert result["outcome"] == sum(range(500)) & 0xFFFFFFFF

    def test_alu_loop_bit_identical(self, hot):
        _compare_modes(_alu_loop_module(300))

    def test_zero_divisor_identical(self, hot):
        # The divisor reaches zero mid-loop; hardware division by zero
        # yields 0 (no fault), and the fused UDiv body must produce
        # exactly that, on exactly the same cycle count.
        module = ir.Module("div")
        _m, b = ir.define(module, "main", I32, [])
        acc = b.alloca(I32)
        b.store(100, acc)
        with b.for_range(0, 50) as load_i:
            b.store(b.add(b.udiv(1000, b.sub(10, load_i())), b.load(acc)),
                    acc)
        b.halt(b.load(acc))
        result = _compare_modes(module)
        assert isinstance(result["outcome"], int)

    def test_budget_exhaustion_identical(self, hot):
        module = _loop_module(100_000)
        outcomes = []
        for mode in MODES:
            board = stm32f4_discovery()
            image = build_vanilla_image(module, board)
            machine = Machine(board)
            image.initialize_memory(machine)
            block_compile, trace_fuse = MODES[mode]
            interp = Interpreter(machine, image, max_instructions=7_777,
                                 block_compile=block_compile,
                                 trace_fuse=trace_fuse)
            with pytest.raises(ExecutionLimitExceeded) as excinfo:
                interp.run()
            outcomes.append((str(excinfo.value), machine.cycles,
                             interp.instructions_executed))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_faulting_store_identical(self, hot):
        # A store into unmapped space mid-loop: the sync point must
        # commit the preceding pure run, then fault identically.
        module = ir.Module("crash")
        _m, b = ir.define(module, "main", I32, [])
        acc = b.alloca(I32)
        b.store(0, acc)
        with b.for_range(0, 50) as load_i:
            b.store(b.add(b.load(acc), 1), acc)
            b.store(load_i(), b.mmio(0x60000000))
        b.halt(b.load(acc))
        result = _compare_modes(module)
        kind, message = result["outcome"]
        assert message

    def test_mid_run_systick_identical(self, hot):
        # SysTick armed mid-run: the per-iteration guard must suspend
        # the trace so the handler fires on exactly the same cycle as
        # the lower tiers deliver it.
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
        result = _compare_modes(module)
        assert result["outcome"] > 10  # the handler really fired

    def test_mid_run_external_irq_identical(self, hot):
        module = ir.Module("irq")
        flag = module.add_global("flag", I32, 0)
        _h, b = ir.define(module, "H", VOID, [], irq_number=40)
        b.store(1, flag)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        with b.for_range(0, 200):
            pass
        b.halt(b.load(flag))
        result = _compare_modes(module, raise_irqs=[40])
        assert result["outcome"] == 1

    def test_undefined_value_in_loop_identical(self, hot):
        # A value defined only on a never-executed path, used inside
        # the loop: the fused pure-run KeyError must roll back and
        # replay to the canonical HardFault.
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
        with b.for_range(0, 20):
            b.add(phantom, 1)
        b.halt(0)
        result = _compare_modes(module)
        kind, message = result["outcome"]
        assert kind == "HardFault"
        assert "use of undefined value" in message
