"""Surgical unit tests for DataSynchronizer and StackProtector."""

import pytest

import repro.ir as ir
from repro import build_opec
from repro.hw import Machine, SecurityAbort, stm32f4_discovery
from repro.interp.costs import SANITIZE_CHECK_COST, SYNC_WORD_COST
from repro.ir import I32, VOID, ptr
from repro.partition import OperationSpec
from repro.runtime.monitor import OpecMonitor
from repro.runtime.stack import StackProtector
from repro.runtime.sync import DataSynchronizer


def _world(module_builder, specs):
    board = stm32f4_discovery()
    module = module_builder()
    artifacts = build_opec(module, board, specs)
    machine = Machine(board)
    artifacts.image.initialize_memory(machine)
    return artifacts, machine


def _shared_module():
    module = ir.Module("sync")
    shared = module.add_global("shared", I32, 7, sanitize_range=(0, 100))
    t1, b = ir.define(module, "t1", VOID, [])
    b.store(b.add(b.load(shared), 1), shared)
    b.ret_void()
    t2, b = ir.define(module, "t2", VOID, [])
    b.store(b.add(b.load(shared), 2), shared)
    b.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    b.call(t1)
    b.call(t2)
    b.halt(b.load(shared))
    return module


SPECS = [OperationSpec("t1"), OperationSpec("t2")]


class TestWriteBackRefresh:
    def test_write_back_publishes_shadow(self):
        artifacts, machine = _world(_shared_module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        op1 = artifacts.policy.operation_by_entry("t1")
        shared = artifacts.module.get_global("shared")
        shadow = artifacts.image.shadow_address(op1, shared)
        public = artifacts.image.public_addresses[shared]
        machine.write_direct(shadow, 4, 55)
        sync.write_back(op1)
        assert machine.read_direct(public, 4) == 55

    def test_refresh_pulls_public(self):
        artifacts, machine = _world(_shared_module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        op2 = artifacts.policy.operation_by_entry("t2")
        shared = artifacts.module.get_global("shared")
        public = artifacts.image.public_addresses[shared]
        machine.write_direct(public, 4, 88)
        sync.refresh(op2)
        assert machine.read_direct(
            artifacts.image.shadow_address(op2, shared), 4) == 88

    def test_sync_is_idempotent(self):
        artifacts, machine = _world(_shared_module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        op1 = artifacts.policy.operation_by_entry("t1")
        shared = artifacts.module.get_global("shared")
        shadow = artifacts.image.shadow_address(op1, shared)
        machine.write_direct(shadow, 4, 9)
        sync.write_back(op1)
        first = machine.read_direct(
            artifacts.image.public_addresses[shared], 4)
        sync.write_back(op1)
        sync.refresh(op1)
        sync.refresh(op1)
        assert machine.read_direct(shadow, 4) == first == 9

    def test_sanitize_blocks_out_of_range(self):
        artifacts, machine = _world(_shared_module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        op1 = artifacts.policy.operation_by_entry("t1")
        shared = artifacts.module.get_global("shared")
        machine.write_direct(
            artifacts.image.shadow_address(op1, shared), 4, 101)
        with pytest.raises(SecurityAbort):
            sync.write_back(op1)
        # The public copy was not polluted.
        assert machine.read_direct(
            artifacts.image.public_addresses[shared], 4) == 7

    def test_relocation_table_points_at_active_shadow(self):
        artifacts, machine = _world(_shared_module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        shared = artifacts.module.get_global("shared")
        slot = artifacts.image.reloc_slots[shared]
        op1 = artifacts.policy.operation_by_entry("t1")
        op2 = artifacts.policy.operation_by_entry("t2")
        sync.update_relocation_table(op1)
        assert machine.read_direct(slot, 4) == \
            artifacts.image.shadow_address(op1, shared)
        sync.update_relocation_table(op2)
        assert machine.read_direct(slot, 4) == \
            artifacts.image.shadow_address(op2, shared)

    def test_slot_falls_back_to_public_for_non_accessor(self):
        artifacts, machine = _world(_shared_module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        shared = artifacts.module.get_global("shared")
        # Fabricate an operation view that does not access `shared`:
        # main accesses it here, so craft via a fresh module instead.
        module = ir.Module("aside")
        a = module.add_global("a", I32, 1)
        b_var = module.add_global("b_var", I32, 2)
        t1, b = ir.define(module, "t1", VOID, [])
        b.store(1, a)
        b.ret_void()
        t2, b = ir.define(module, "t2", VOID, [])
        b.store(2, a)
        b.store(2, b_var)
        b.ret_void()
        t3, b = ir.define(module, "t3", VOID, [])
        b.store(3, b_var)
        b.ret_void()
        _m, mb = ir.define(module, "main", I32, [])
        mb.call(t1)
        mb.call(t2)
        mb.call(t3)
        mb.halt(0)
        board = stm32f4_discovery()
        artifacts = build_opec(module, board, [
            OperationSpec("t1"), OperationSpec("t2"), OperationSpec("t3")])
        machine = Machine(board)
        artifacts.image.initialize_memory(machine)
        sync = DataSynchronizer(machine, artifacts.image)
        op1 = artifacts.policy.operation_by_entry("t1")
        sync.update_relocation_table(op1)
        # t1 does not access b_var: its slot points at the public copy.
        # The build's own module: a warm store returns a fresh copy.
        built = artifacts.module.get_global("b_var")
        slot = artifacts.image.reloc_slots[built]
        assert machine.read_direct(slot, 4) == \
            artifacts.image.public_addresses[built]


class TestSramBounds:
    """Copies slice SRAM directly, so an operation whose shadow or
    public original is not wholly inside SRAM is refused before its
    first copy."""

    @pytest.mark.parametrize("which", ["public", "shadow"])
    def test_copy_outside_sram_is_refused(self, which):
        artifacts, machine = _world(_shared_module, SPECS)
        image = artifacts.image
        op1 = artifacts.policy.operation_by_entry("t1")
        shared = artifacts.module.get_global("shared")
        if which == "public":
            image.public_addresses[shared] = machine.board.flash_base
        else:
            # Straddles the SRAM end by two bytes.
            image.shadow_addresses[(op1.index, shared)] = \
                machine.sram.end - 2
        sync = DataSynchronizer(machine, image)
        before = bytes(machine.sram.data)
        with pytest.raises(ValueError, match="not inside SRAM"):
            sync.refresh(op1)
        assert bytes(machine.sram.data) == before


class TestPointerRedirection:
    def _pointer_module(self):
        module = ir.Module("ptrs")
        target = module.add_global("target", I32, 42)
        holder = module.add_global("holder", ptr(I32))
        t1, b = ir.define(module, "t1", VOID, [])
        b.store(target, holder)   # holder := &target (reloc-resolved)
        b.store(1, target)
        b.ret_void()
        t2, b = ir.define(module, "t2", VOID, [])
        b.store(2, target)
        loaded = b.load(holder)
        b.store(5, loaded)  # through the (redirected) pointer: wins
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(t1)
        b.call(t2)
        b.halt(b.load(target))
        return module

    def test_pointer_field_retargeted_on_refresh(self):
        board = stm32f4_discovery()
        artifacts = build_opec(self._pointer_module(), board, SPECS)
        machine = Machine(board)
        artifacts.image.initialize_memory(machine)
        sync = DataSynchronizer(machine, artifacts.image)
        image = artifacts.image
        policy = artifacts.policy
        holder = artifacts.module.get_global("holder")
        target = artifacts.module.get_global("target")
        op1 = policy.operation_by_entry("t1")
        op2 = policy.operation_by_entry("t2")

        # Simulate: t1 stored the address of ITS shadow of `target`.
        machine.write_direct(image.shadow_address(op1, holder), 4,
                             image.shadow_address(op1, target))
        sync.write_back(op1)
        sync.refresh(op2)
        sync.redirect_pointers(op2)
        # t2's shadow of holder now points at t2's shadow of target.
        value = machine.read_direct(image.shadow_address(op2, holder), 4)
        assert value == image.shadow_address(op2, target)

    def test_end_to_end_pointer_global_behaviour(self):
        from repro import build_vanilla, run_image

        board = stm32f4_discovery()
        vanilla = run_image(
            build_vanilla(self._pointer_module(), board))
        artifacts = build_opec(self._pointer_module(), board, SPECS)
        opec = run_image(artifacts.image)
        assert opec.halt_code == vanilla.halt_code == 5

    def test_redirect_charges_per_read_and_rewrite(self, monkeypatch):
        """One charge per field read and one per rewrite, as every
        other phase charges per item (see TestPerItemCharging)."""
        module = ir.Module("two_ptrs")
        target = module.add_global("target", I32, 42)
        holders = [module.add_global(f"holder{i}", ptr(I32))
                   for i in range(2)]
        for name in ("t1", "t2"):
            _t, b = ir.define(module, name, VOID, [])
            for holder in holders:
                b.store(target, holder)
            b.store(1, target)
            b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(module.get_function("t1"))
        b.call(module.get_function("t2"))
        b.halt(b.load(target))
        artifacts, machine = _world(lambda: module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        image = artifacts.image
        target = artifacts.module.get_global("target")
        op1 = artifacts.policy.operation_by_entry("t1")
        op2 = artifacts.policy.operation_by_entry("t2")
        charges = []
        monkeypatch.setattr(machine, "consume", charges.append)

        sync.redirect_pointers(op2)          # null pointers: reads only
        assert charges == [2, 2]
        charges.clear()
        for index in range(2):
            holder = artifacts.module.get_global(f"holder{index}")
            machine.write_direct(image.shadow_address(op2, holder), 4,
                                 image.shadow_address(op1, target))
        sync.redirect_pointers(op2)          # foreign shadows: rewritten
        assert charges == [2, 1, 2, 1]


class TestPerItemCharging:
    """Each phase charges cycles per item — per check, per copy, per
    relocation slot, per pointer-field read and per rewrite — so an
    armed SysTick sees every charge land where the paper's monitor
    makes it."""

    def _module(self):
        module = ir.Module("charges")
        shared = module.add_global("shared", I32, 7, sanitize_range=(0, 100))
        table = module.add_global("table", ir.array(I32, 20))
        for name in ("t1", "t2"):
            _t, b = ir.define(module, name, VOID, [])
            b.store(b.add(b.load(shared), 1), shared)
            b.store(b.load(shared), b.gep(table, 0, 3))
            b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(module.get_function("t1"))
        b.call(module.get_function("t2"))
        b.halt(b.load(shared))
        return module

    def test_sync_phases_charge_per_item(self, monkeypatch):
        artifacts, machine = _world(self._module, SPECS)
        sync = DataSynchronizer(machine, artifacts.image)
        op1 = artifacts.policy.operation_by_entry("t1")
        externals = artifacts.policy.external_vars(op1)
        assert len(externals) == 2
        copies = [SYNC_WORD_COST * ((gvar.size + 3) // 4)
                  for gvar in externals]
        charges = []
        monkeypatch.setattr(machine, "consume", charges.append)

        sync.sanitize_operation(op1)
        assert charges == [SANITIZE_CHECK_COST]
        charges.clear()
        sync.write_back(op1, sanitize=False)
        assert charges == copies
        charges.clear()
        sync.write_back(op1)     # each check just before its copy
        assert charges == [
            charge for gvar, copy in zip(externals, copies)
            for charge in ([SANITIZE_CHECK_COST, copy]
                           if gvar.sanitize_range else [copy])]
        charges.clear()
        sync.refresh(op1)
        assert charges == copies
        charges.clear()
        sync.update_relocation_table(op1)
        assert charges == [1] * len(artifacts.image.reloc_slots)


class TestImageLevelMemos:
    """The interval index and the operation memos are image-level
    data: every monitor of one image (one per lane) shares them, while
    each machine keeps its own copy counter."""

    def test_monitors_of_one_image_share_the_memos(self):
        artifacts, first = _world(_shared_module, SPECS)
        image = artifacts.image
        second = Machine(image.board)
        image.initialize_memory(second)
        one = OpecMonitor(first, image).sync
        two = OpecMonitor(second, image).sync
        op1 = artifacts.policy.operation_by_entry("t1")
        assert two._intervals is one._intervals
        assert two._memo(op1) is one._memo(op1)
        one.refresh(op1)
        copied = first.metrics.counter("monitor.sync_bytes_copied")
        assert copied.value == 4
        assert second.metrics.counter(
            "monitor.sync_bytes_copied").value == 0

    def test_other_image_gets_its_own_memos(self):
        artifacts, machine = _world(_shared_module, SPECS)
        other, other_machine = _world(_shared_module, SPECS)
        assert other.image is not artifacts.image
        sync = DataSynchronizer(machine, artifacts.image)
        other_sync = DataSynchronizer(other_machine, other.image)
        assert other_sync._intervals is not sync._intervals
        assert other_sync._memos is not sync._memos


class TestStackProtectorUnit:
    def test_boundary_and_mask_roundtrip(self):
        artifacts, machine = _world(_shared_module, SPECS)
        protector = StackProtector(machine, artifacts.image)
        top = artifacts.image.stack_top
        sub = artifacts.image.subregion_size
        assert protector.boundary_below(top - 1) == top - sub
        assert protector.mask_for(top) == 0
        assert protector.mask_for(artifacts.image.stack_base) == 0xFF

    def test_relocate_and_copy_back(self):
        artifacts, machine = _world(_shared_module, SPECS)
        protector = StackProtector(machine, artifacts.image)
        op1 = artifacts.policy.operation_by_entry("t1")
        op1.stack_info = {0: 8}
        source = artifacts.image.stack_top - 64
        machine.write_bytes(source, b"ABCDEFGH")
        args, new_sp, relocations = protector.relocate_arguments(
            op1, [source], artifacts.image.stack_top - 32)
        assert args[0] != source
        assert machine.read_bytes(args[0], 8) == b"ABCDEFGH"
        machine.write_bytes(args[0], b"ZYXWVUTS")
        protector.copy_back(relocations)
        assert machine.read_bytes(source, 8) == b"ZYXWVUTS"
