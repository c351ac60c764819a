"""Unit tests for the runtime-hook integration points."""

import pytest

import repro.ir as ir
from repro.hw import HardFault, Machine, MemManageFault, MPURegion, stm32f4_discovery
from repro.image import build_vanilla_image
from repro.interp import Interpreter, RuntimeHooks
from repro.ir import I32, VOID


def make_setup(module):
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    return machine, image


class TestSwitchHooks:
    def test_before_call_can_rewrite_args(self):
        module = ir.Module("m")
        task, tb = ir.define(module, "task", I32, [I32])
        tb.ret(task.params[0])
        _f, b = ir.define(module, "main", I32, [])
        b.halt(b.call(task, 1))

        class Rewrite(RuntimeHooks):
            def is_switch_point(self, interp, callee):
                return callee.name == "task"

            def before_call(self, interp, callee, args):
                return [args[0] + 99]

        machine, image = make_setup(module)
        interp = Interpreter(machine, image, Rewrite())
        assert interp.run() == 100
        assert machine.stats.svc_calls == 2  # enter + exit

    def test_after_return_called_in_privileged_mode(self):
        module = ir.Module("m")
        task, tb = ir.define(module, "task", VOID, [])
        tb.ret_void()
        _f, b = ir.define(module, "main", I32, [])
        b.call(task)
        b.halt(0)
        seen = []

        class Spy(RuntimeHooks):
            def is_switch_point(self, interp, callee):
                return callee.name == "task"

            def after_return(self, interp, callee):
                seen.append((callee.name, interp.machine.privileged))

        machine, image = make_setup(module)
        machine.drop_privilege()
        Interpreter(machine, image, Spy()).run()
        assert seen == [("task", True)]


class TestFaultHooks:
    def _denied_store_module(self, address):
        module = ir.Module("m")
        _f, b = ir.define(module, "main", I32, [])
        b.store(7, b.inttoptr(address, I32))
        b.halt(1)
        return module

    def test_memmanage_retry_after_fixup(self):
        board = stm32f4_discovery()
        target = board.sram_base + 64
        module = self._denied_store_module(target)

        class FixUp(RuntimeHooks):
            def on_reset(self, interp):
                interp.machine.enforcement.enabled = True
                interp.machine.drop_privilege()

            def handle_memmanage(self, interp, fault):
                interp.machine.enforcement.set_region(MPURegion(
                    number=7, base=fault.address & ~31, size=32,
                    priv="RW", unpriv="RW"))
                return True

        machine, image = make_setup(module)
        interp = Interpreter(machine, image, FixUp())
        assert interp.run() == 1
        assert machine.read_direct(target, 4) == 7

    def test_memmanage_unhandled_propagates(self):
        board = stm32f4_discovery()
        module = self._denied_store_module(board.sram_base + 64)

        class Deny(RuntimeHooks):
            def on_reset(self, interp):
                interp.machine.enforcement.enabled = True
                interp.machine.drop_privilege()

        machine, image = make_setup(module)
        interp = Interpreter(machine, image, Deny())
        with pytest.raises(MemManageFault):
            interp.run()

    def test_handler_loop_bounded(self):
        board = stm32f4_discovery()
        module = self._denied_store_module(board.sram_base + 64)

        class Liar(RuntimeHooks):
            def on_reset(self, interp):
                interp.machine.enforcement.enabled = True
                interp.machine.drop_privilege()

            def handle_memmanage(self, interp, fault):
                return True  # claims to fix, never does

        machine, image = make_setup(module)
        interp = Interpreter(machine, image, Liar())
        with pytest.raises(HardFault, match="retry limit"):
            interp.run()

    def test_busfault_emulated_load(self):
        module = ir.Module("m")
        _f, b = ir.define(module, "main", I32, [])
        b.halt(b.load(b.mmio(0xE000E014)))  # SysTick RVR, unprivileged

        class Emulate(RuntimeHooks):
            def on_reset(self, interp):
                interp.machine.write_direct(0xE000E014, 4, 1234)
                interp.machine.drop_privilege()

            def handle_busfault(self, interp, fault):
                return interp.machine.read_direct(fault.address, fault.size)

        machine, image = make_setup(module)
        interp = Interpreter(machine, image, Emulate())
        assert interp.run() == 1234

    def test_busfault_unhandled_is_hard_fault(self):
        module = ir.Module("m")
        _f, b = ir.define(module, "main", I32, [])
        b.halt(b.load(b.mmio(0xE000E014)))

        class Nothing(RuntimeHooks):
            def on_reset(self, interp):
                interp.machine.drop_privilege()

        machine, image = make_setup(module)
        interp = Interpreter(machine, image, Nothing())
        with pytest.raises(HardFault, match="BusFault"):
            interp.run()


class TestTracingCallbacks:
    def test_enter_exit_pairing(self, mini_module):
        machine, image = make_setup(mini_module)
        entered, exited = [], []
        interp = Interpreter(machine, image)
        interp.on_function_enter = lambda f: entered.append(f.name)
        interp.on_function_exit = lambda f: exited.append(f.name)
        interp.run()
        assert entered == ["main", "task_a", "task_b", "task_a"]
        assert exited == ["task_a", "task_b", "task_a"]  # main halts
