"""Unit tests for the Machine: privilege, PPB, MPU-checked accesses."""

import pytest

from repro.hw import (
    BusFault,
    Machine,
    MemManageFault,
    MPURegion,
    stm32f4_discovery,
    stm32479i_eval,
)
from repro.hw.board import PPB_BASE, PPB_END


class TestPrivilege:
    def test_starts_privileged(self, machine):
        assert machine.privileged

    def test_drop_privilege(self, machine):
        machine.drop_privilege()
        assert not machine.privileged
        assert not machine.base_privilege

    def test_privileged_mode_restores_base(self, machine):
        machine.drop_privilege()
        with machine.privileged_mode():
            assert machine.privileged
        assert not machine.privileged

    def test_handler_can_lift_base_privilege(self, machine):
        machine.drop_privilege()
        with machine.privileged_mode():
            machine.set_base_privilege(True)
        assert machine.privileged

    def test_privileged_mode_restores_base_when_the_block_raises(
            self, machine):
        machine.drop_privilege()
        with pytest.raises(MemManageFault):
            with machine.privileged_mode():
                assert machine.privileged
                raise MemManageFault(0x20000000, 4, False)
        assert not machine.privileged
        # A handler that lifted the base before raising leaves it lifted.
        with pytest.raises(ValueError):
            with machine.privileged_mode():
                machine.set_base_privilege(True)
                raise ValueError("handler failed")
        assert machine.privileged


class TestPPB:
    def test_unprivileged_ppb_access_bus_faults(self, machine):
        machine.drop_privilege()
        with pytest.raises(BusFault) as excinfo:
            machine.load(0xE000E014, 4)  # SysTick RVR
        assert excinfo.value.is_ppb
        assert machine.stats.bus_faults == 1

    def test_privileged_ppb_access_ok(self, machine):
        machine.store(0xE000E014, 4, 1234)
        assert machine.load(0xE000E014, 4) == 1234

    def test_busfault_carries_store_value(self, machine):
        machine.drop_privilege()
        with pytest.raises(BusFault) as excinfo:
            machine.store(0xE000E014, 4, 77)
        assert excinfo.value.value == 77
        assert excinfo.value.is_write


class TestMPUChecked:
    def test_denied_store_raises_memmanage(self, machine):
        machine.enforcement.enabled = True
        machine.drop_privilege()
        with pytest.raises(MemManageFault):
            machine.store(machine.board.sram_base, 4, 1)
        assert machine.stats.memmanage_faults == 1

    def test_region_grants_access(self, machine):
        base = machine.board.sram_base
        machine.enforcement.enabled = True
        machine.enforcement.set_region(MPURegion(
            number=0, base=base, size=0x1000, priv="RW", unpriv="RW"))
        machine.drop_privilege()
        machine.store(base + 8, 4, 42)
        assert machine.load(base + 8, 4) == 42

    def test_direct_access_bypasses_mpu(self, machine):
        machine.enforcement.enabled = True
        machine.drop_privilege()
        machine.write_direct(machine.board.sram_base, 4, 7)
        assert machine.read_direct(machine.board.sram_base, 4) == 7


class TestDevices:
    def test_core_devices_always_present(self, machine):
        assert "DWT" in machine.devices
        assert "SysTick" in machine.devices

    def test_dwt_cyccnt_reflects_cycles(self, machine):
        machine.consume(123)
        assert machine.load(0xE0001004, 4) == 123

    def test_dwt_cyccnt_reset(self, machine):
        machine.consume(50)
        machine.store(0xE0001004, 4, 0)
        machine.consume(7)
        assert machine.load(0xE0001004, 4) == 7

    def test_attach_device_maps_window(self, machine):
        from repro.hw.peripherals import RCC

        rcc = machine.attach_device("RCC", RCC())
        base = machine.board.peripheral("RCC").base
        machine.store(base + 0x30, 4, 0xFF)
        assert rcc.registers[0x30] == 0xFF


class TestBoards:
    def test_discovery_sizes(self):
        board = stm32f4_discovery()
        assert board.flash_size == 1024 * 1024
        assert board.sram_size == 192 * 1024

    def test_eval_sizes_and_extras(self):
        board = stm32479i_eval()
        assert board.flash_size == 2 * 1024 * 1024
        assert board.sram_size == 288 * 1024
        assert "LTDC" in board.peripherals
        assert "ETH" in board.peripherals

    def test_peripheral_at(self):
        board = stm32f4_discovery()
        assert board.peripheral_at(0x40023800).name == "RCC"
        assert board.peripheral_at(0x40023BFF).name == "RCC"
        assert board.peripheral_at(0x30000000) is None

    def test_core_peripherals_flagged(self):
        board = stm32f4_discovery()
        assert board.peripheral("SysTick").core
        assert not board.peripheral("RCC").core
        systick = board.peripheral("SysTick").base
        assert PPB_BASE <= systick < PPB_END
        assert not PPB_BASE <= board.peripheral("RCC").base < PPB_END
