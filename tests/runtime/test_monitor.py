"""Unit + integration tests for OPEC-Monitor enforcement."""

import pytest

import repro.ir as ir
from repro import build_opec, build_vanilla, run_image
from repro.hw import SecurityAbort, stm32f4_discovery
from repro.ir import I8, I32, VOID, array
from repro.partition import OperationSpec

from ..conftest import MINI_HALT_CODE, MINI_SPECS, build_mini_module


class TestEndToEnd:
    def test_opec_preserves_functional_behaviour(self, board):
        module = build_mini_module()
        vanilla = run_image(build_vanilla(module, board))
        module2 = build_mini_module()
        artifacts = build_opec(module2, board, MINI_SPECS)
        opec = run_image(artifacts.image)
        assert vanilla.halt_code == opec.halt_code == MINI_HALT_CODE

    def test_switch_count(self, board):
        artifacts = build_opec(build_mini_module(), board, MINI_SPECS)
        result = run_image(artifacts.image)
        assert result.hooks.switch_count == 3  # a, b, a

    def test_privilege_dropped_for_application(self, board):
        artifacts = build_opec(build_mini_module(), board, MINI_SPECS)
        result = run_image(artifacts.image)
        assert not result.machine.base_privilege
        assert result.machine.enforcement.enabled


class TestIsolation:
    def _attack_module(self, target_address):
        module = build_mini_module()
        victim = module.get_function("task_b")
        b = ir.IRBuilder(victim, victim.blocks[0])
        # Rebuild task_b with an arbitrary write at a leaked address.
        module2 = ir.Module("attack")
        counter = module2.add_global("counter", ir.I32, 0)
        secret = module2.add_global("secret", ir.I32, 7)
        module2.add_global("blob", ir.array(ir.I32, 8))
        task_a, b = ir.define(module2, "task_a", VOID, [])
        b.store(b.add(b.load(counter), b.load(secret)), counter)
        b.ret_void()
        task_b, b = ir.define(module2, "task_b", VOID, [])
        b.store(b.load(counter),
                b.gep(module2.get_global("blob"), 0, 0))
        b.store(0xBAD, b.inttoptr(target_address, I32))
        b.ret_void()
        _m, b = ir.define(module2, "main", I32, [])
        b.call(task_a)
        b.call(task_b)
        b.halt(b.load(counter))
        return module2

    def test_cross_operation_write_blocked(self, board):
        probe = build_opec(self._attack_module(0), board, MINI_SPECS)
        secret = probe.module.get_global("secret")
        leaked = probe.image.global_address(secret)
        armed = build_opec(self._attack_module(leaked), board, MINI_SPECS)
        with pytest.raises(SecurityAbort, match="outside its policy"):
            run_image(armed.image)

    def test_same_attack_succeeds_on_vanilla(self, board):
        probe = build_vanilla(self._attack_module(0), board)
        secret = self._attack_module(0).get_global("secret")
        # Rebuild to find the address in the vanilla layout.
        module = self._attack_module(0)
        image = build_vanilla(module, board)
        leaked = image.global_address(image.module.get_global("secret"))
        armed = self._attack_module(leaked)
        result = run_image(build_vanilla(armed, board))
        assert result.halt_code == 7  # attack silently corrupted secret

    def test_write_to_reloc_table_blocked(self, board):
        probe = build_opec(self._attack_module(0), board, MINI_SPECS)
        counter = probe.module.get_global("counter")
        slot = probe.image.reloc_slots[counter]
        armed = build_opec(self._attack_module(slot), board, MINI_SPECS)
        with pytest.raises(SecurityAbort):
            run_image(armed.image)

    def test_write_to_public_original_blocked(self, board):
        probe = build_opec(self._attack_module(0), board, MINI_SPECS)
        counter = probe.module.get_global("counter")
        public = probe.image.public_addresses[counter]
        armed = build_opec(self._attack_module(public), board, MINI_SPECS)
        with pytest.raises(SecurityAbort):
            run_image(armed.image)


class TestSanitization:
    def _module(self, bad_value):
        module = ir.Module("san")
        state = module.add_global("state", I32, 0, sanitize_range=(0, 1))
        watcher, b = ir.define(module, "watcher", VOID, [])
        b.load(state)
        b.ret_void()
        setter, b = ir.define(module, "setter", VOID, [])
        b.store(bad_value, state)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(setter)
        b.call(watcher)
        b.halt(b.load(state))
        return module

    def test_in_range_write_back_ok(self, board):
        artifacts = build_opec(self._module(1), board,
                               [OperationSpec("setter"),
                                OperationSpec("watcher")])
        assert run_image(artifacts.image).halt_code == 1

    def test_out_of_range_write_back_aborts(self, board):
        artifacts = build_opec(self._module(2), board,
                               [OperationSpec("setter"),
                                OperationSpec("watcher")])
        with pytest.raises(SecurityAbort, match="sanitisation failed"):
            run_image(artifacts.image)


class TestCorePeripheralEmulation:
    def _module(self, touch_systick_in):
        module = ir.Module("core")
        sink = module.add_global("sink", I32, 0)
        toucher, b = ir.define(module, touch_systick_in, VOID, [])
        b.store(0x3FF, b.mmio(0xE000E014))  # SysTick RVR
        b.store(b.load(b.mmio(0xE000E014)), sink)
        b.ret_void()
        other, b = ir.define(module, "other", VOID, [])
        b.store(b.add(b.load(sink), 0), sink)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(module.get_function(touch_systick_in))
        b.call(other)
        b.halt(b.load(sink))
        return module

    def test_allowed_core_access_emulated(self, board):
        module = self._module("timer_task")
        artifacts = build_opec(module, board,
                               [OperationSpec("timer_task"),
                                OperationSpec("other")])
        result = run_image(artifacts.image)
        assert result.halt_code == 0x3FF
        assert result.machine.stats.emulated_core_accesses == 2
        # Application never ran privileged.
        assert not result.machine.base_privilege


class TestPeripheralVirtualization:
    def test_more_windows_than_regions_round_robin(self, board):
        """An operation touching five scattered peripherals only has
        three static windows; the rest fault in via virtualisation."""
        module = ir.Module("many")
        bases = [board.peripheral(n).base
                 for n in ("TIM2", "USART2", "SDIO", "RCC", "DMA1")]
        busy, b = ir.define(module, "busy_task", VOID, [])
        with b.for_range(0, 3):
            for base in bases:
                b.store(1, b.mmio(base))
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(busy)
        b.halt(0)
        artifacts = build_opec(module, board, [OperationSpec("busy_task")])
        op = artifacts.policy.operation_by_entry("busy_task")
        assert len(op.windows) == 5

        def setup(machine):
            from repro.hw.peripherals import RegisterFile

            for name in ("TIM2", "USART2", "SDIO", "RCC", "DMA1"):
                machine.attach_device(name, RegisterFile())

        result = run_image(artifacts.image, setup=setup)
        assert result.machine.stats.peripheral_region_switches > 0

    def test_unlisted_peripheral_access_aborts(self, board):
        module = ir.Module("deny")
        task, b = ir.define(module, "task", VOID, [])
        b.store(1, b.mmio(board.peripheral("TIM2").base))
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(task)
        b.halt(0)
        artifacts = build_opec(module, board, [OperationSpec("task")])
        # Strip the window to simulate an out-of-policy access.
        op = artifacts.policy.operation_by_entry("task")
        op.windows.clear()
        artifacts.image.layout_of(op).static_windows.clear()

        def setup(machine):
            from repro.hw.peripherals import RegisterFile

            machine.attach_device("TIM2", RegisterFile())

        with pytest.raises(SecurityAbort):
            run_image(artifacts.image, setup=setup)
