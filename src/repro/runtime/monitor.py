"""OPEC-Monitor: the privileged reference monitor (§5).

Plugs into the interpreter as :class:`~repro.interp.hooks.RuntimeHooks`
and enforces, at the exact hardware trap points the paper uses:

* initialisation — shadow-section setup, MPU programming, privilege
  drop (§5.1);
* operation switching on entry-function call/return — data
  synchronisation + sanitisation, relocation-table update, pointer
  redirection, stack relocation, MPU reconfiguration (§5.2–§5.3);
* MPU-region virtualisation for peripherals in the MemManage handler,
  round-robin over the reserved regions (§5.2);
* load/store emulation for core peripherals in the BusFault handler
  (§5.2) — unprivileged application code never runs privileged.

Each switch direction has one body, traced or not, SysTick armed or
not: the data phases are :class:`~repro.runtime.sync.DataSynchronizer`'s
methods, which charge cycles per item, and the ``op.*`` spans are
emitted only when ``machine.recorder`` is set.  Spans never charge
cycles, so a traced run simulates exactly what an untraced one does.
"""

from __future__ import annotations

from typing import Optional

from ..hw.exceptions import BusFault, MemManageFault, SecurityAbort
from ..hw.machine import Machine
from ..hw.mpu import MPURegion
from ..image.linker import OpecImage, OperationLayout
from ..image.mpu_config import (
    PERIPHERAL_REGIONS,
    covering_regions,
    operation_region_set,
)
from ..interp.costs import CORE_EMULATION_COST, SYNC_WORD_COST
from ..interp.hooks import RuntimeHooks
from ..ir.function import Function
from ..ir.values import GlobalVariable
from ..obs.events import (
    FAULT_MEMMANAGE,
    OP_MPU,
    OP_RETURN,
    OP_SANITISE,
    OP_STACK,
    OP_SWITCH,
    OP_SYNC,
    PPB_EMULATE,
    REGION_EVICT,
)
from ..partition.operations import Operation
from .context import SwitchContext
from .stack import StackProtector
from .sync import DataSynchronizer


class OpecMonitor(RuntimeHooks):
    """The runtime half of OPEC."""

    def __init__(self, machine: Machine, image: OpecImage):
        self.machine = machine
        self.image = image
        self.policy = image.policy
        self.sync = DataSynchronizer(machine, image)
        self.stack = StackProtector(machine, image)
        self.current: Operation = self.policy.default_operation
        self.context_stack: list[SwitchContext] = []
        self.current_stack_mask = 0
        self._victim_rotation = 0
        self._n_switches = machine.metrics.counter(
            "monitor.operation_switches")
        self._h_switch = machine.metrics.histogram("monitor.switch_cycles")
        self._h_memmanage = machine.metrics.histogram(
            "monitor.memmanage_cycles")
        # Resolved reloc-table addresses are loop-invariant within an
        # operation; a compiling build hoists the slot load, so the
        # per-access cost is paid once per (operation, variable).
        self._addr_cache: dict[GlobalVariable, int] = {}
        # Region sets are pure in (operation, stack mask): memoised,
        # with a fresh list per load.
        self._region_sets: dict[tuple[int, int], list[MPURegion]] = {}

    @property
    def switch_count(self) -> int:
        """Total operation switches (call direction), from the registry."""
        return self._n_switches.value

    # -- initialisation (§5.1) ------------------------------------------

    def on_reset(self, interp) -> None:
        machine = self.machine
        # 1. Initialise every shadow copy from its public original.
        for (op_index, gvar), shadow in self.image.shadow_addresses.items():
            public = self.image.public_addresses[gvar]
            blob = machine.read_bytes(public, gvar.size)
            machine.write_bytes(shadow, blob)
            machine.consume(SYNC_WORD_COST * ((gvar.size + 3) // 4))
        # 2. Exception handling for SVC / MemManage / BusFault is wired
        #    through the interpreter's hook dispatch (always enabled).
        # 3. Configure the MPU for the default operation and drop to the
        #    unprivileged level.
        self.sync.update_relocation_table(self.current)
        self.current_stack_mask = self.stack.mask_for(interp.sp)
        self._load_mpu(self.current, self.current_stack_mask)
        machine.enforcement.enabled = True
        machine.drop_privilege()

    # -- address resolution through the relocation table -------------------

    def global_address(self, interp, gvar: GlobalVariable) -> int:
        if interp is not None and interp._irq_depth > 0:
            # Exception context (§4.3): handlers are never part of an
            # operation and are not instrumented — they link against the
            # public originals directly.  Resolving through the
            # *suspended* operation's relocation table here would hand
            # the handler that operation's shadow copy (stale, and not
            # yet sanitised); it must also neither read nor pollute
            # ``_addr_cache``, which holds the operation's view.
            placement = self.policy.placements.get(gvar)
            if placement is not None and placement.is_external:
                return self.image.public_addresses[gvar]
            return self.image.global_address(gvar)
        cached = self._addr_cache.get(gvar)
        if cached is not None:
            return cached
        placement = self.policy.placements.get(gvar)
        if placement is not None and placement.is_external:
            # The instrumented access loads the pointer slot first; the
            # table is unprivileged-readable (Figure 6).
            self.machine.consume(2)
            address = self.machine.load(self.image.reloc_slots[gvar], 4)
        else:
            address = self.image.global_address(gvar)
        self._addr_cache[gvar] = address
        return address

    # -- operation switching (§5.3) -------------------------------------------

    def is_switch_point(self, interp, callee: Function) -> bool:
        operation = self.image.operation_for_entry(callee)
        return operation is not None and not operation.is_default

    def before_call(self, interp, callee: Function,
                    args: list[int]) -> list[int]:
        target = self.image.operation_for_entry(callee)
        assert target is not None
        machine = self.machine
        recorder = machine.recorder
        start_cycles = machine.cycles
        switch_name = f"{self.current.name}->{target.name}"
        if recorder is not None:
            recorder.begin(OP_SWITCH, switch_name, start_cycles,
                           args={"from": self.current.name,
                                 "to": target.name,
                                 "entry": callee.name})
        self._n_switches.value += 1

        # Figure 7(b): sanitise the suspended operation's shadows, write
        # them back, then refresh the entered operation's shadows.
        self._sync_phases(self.current, target, switch_name)

        # Figure 8: relocate stack-passed buffers and mask sub-regions.
        if recorder is not None:
            recorder.begin(OP_STACK, target.name, machine.cycles)
        new_args, new_sp, relocations = self.stack.relocate_arguments(
            target, args, interp.sp
        )
        context = SwitchContext(
            previous=self.current,
            saved_sp=interp.sp,
            saved_stack_mask=self.current_stack_mask,
            relocations=relocations,
        )
        self.context_stack.append(context)
        interp.sp = new_sp

        boundary = self.stack.boundary_below(context.saved_sp)
        self.current_stack_mask = self.stack.mask_for(boundary)
        self.current = target
        if recorder is not None:
            recorder.end(OP_STACK, target.name, machine.cycles,
                         args={"relocations": len(relocations)})
            recorder.begin(OP_MPU, target.name, machine.cycles)
        self._load_mpu(target, self.current_stack_mask)
        if recorder is not None:
            recorder.end(OP_MPU, target.name, machine.cycles)
            recorder.end(OP_SWITCH, switch_name, machine.cycles)
        self._h_switch.observe(machine.cycles - start_cycles)
        return new_args

    def after_return(self, interp, callee: Function) -> None:
        if not self.context_stack:
            raise SecurityAbort("operation exit without matching entry")
        context = self.context_stack.pop()
        machine = self.machine
        recorder = machine.recorder
        start_cycles = machine.cycles
        previous = context.previous
        switch_name = f"{self.current.name}->{previous.name}"
        if recorder is not None:
            recorder.begin(OP_RETURN, switch_name, start_cycles,
                           args={"from": self.current.name,
                                 "to": previous.name,
                                 "entry": callee.name})

        # Figure 7(c): sanitise and write back the exiting operation,
        # refresh the resumed one, restore its relocation-table view.
        self._sync_phases(self.current, previous, switch_name)

        # Copy relocated buffers back and restore the stack.
        if recorder is not None:
            recorder.begin(OP_STACK, previous.name, machine.cycles)
        self.stack.copy_back(context.relocations)
        interp.sp = context.saved_sp
        self.current = previous
        self.current_stack_mask = context.saved_stack_mask
        if recorder is not None:
            recorder.end(OP_STACK, previous.name, machine.cycles,
                         args={"relocations": len(context.relocations)})
            recorder.begin(OP_MPU, previous.name, machine.cycles)
        self._load_mpu(previous, self.current_stack_mask)
        if recorder is not None:
            recorder.end(OP_MPU, previous.name, machine.cycles)
        # General-purpose registers are cleared on exit (frame registers
        # are dropped with the frame; charge the zeroing cost).
        machine.consume(13)
        if recorder is not None:
            recorder.end(OP_RETURN, switch_name, machine.cycles)
        self._h_switch.observe(machine.cycles - start_cycles)

    def _sync_phases(self, leaving: Operation, entering: Operation,
                     switch_name: str) -> None:
        """Charge the backend's switch cost, then run Figure 7's data
        phases: ``op.sanitise`` over ``leaving``'s shadows, and one
        ``op.sync`` span for its write-back plus ``entering``'s
        refresh, relocation-table update and pointer redirection."""
        machine = self.machine
        recorder = machine.recorder
        sync = self.sync
        machine.consume(machine.enforcement.switch_base_cost)
        self._addr_cache.clear()
        if recorder is not None:
            recorder.begin(OP_SANITISE, leaving.name, machine.cycles)
        sync.sanitize_operation(leaving)
        if recorder is not None:
            recorder.end(OP_SANITISE, leaving.name, machine.cycles)
            recorder.begin(OP_SYNC, switch_name, machine.cycles)
        sync.write_back(leaving, sanitize=False)
        sync.refresh(entering)
        sync.update_relocation_table(entering)
        sync.redirect_pointers(entering)
        if recorder is not None:
            recorder.end(OP_SYNC, switch_name, machine.cycles)

    # -- enforcement loading ----------------------------------------------

    def _load_mpu(self, operation: Operation, stack_mask: int) -> None:
        """Hand the operation's region plan to the machine's backend.

        Kept under its historical name (the OP_MPU trace span and the
        paper's §5.3 wording both say "MPU reconfiguration"); the
        actual substrate is whatever ``machine.enforcement`` carries.

        ``operation_region_set`` is pure in (layout, stack mask, heap)
        and MPURegion is immutable, so the set is memoised; the backend
        gets a fresh list each load in case it keeps or reorders it.
        """
        key = (operation.index, stack_mask)
        memo = self._region_sets.get(key)
        if memo is None:
            layout = self.image.layout_of(operation)
            heap = self._heap_region() if layout.uses_heap else None
            memo = operation_region_set(layout, stack_mask, heap)
            self._region_sets[key] = memo
        self.machine.enforcement.load_configuration(list(memo))

    def _heap_region(self) -> tuple[int, int]:
        pieces = covering_regions(self.image.heap_base, self.image.heap_size)
        return pieces[0]

    # -- MPU-region virtualisation (§5.2) -----------------------------------------

    def handle_memmanage(self, interp, fault: MemManageFault) -> bool:
        machine = self.machine
        recorder = machine.recorder
        start_cycles = machine.cycles
        fault_name = f"0x{fault.address:08X}"
        if recorder is not None:
            recorder.begin(FAULT_MEMMANAGE, fault_name, machine.cycles,
                           args={"address": fault.address,
                                 "write": int(fault.is_write),
                                 "operation": self.current.name})
        try:
            handled = self._virtualise_region(fault)
        finally:
            # A SecurityAbort still closes the span, so a crash trace
            # shows the fault being handled when the run died.
            if recorder is not None:
                recorder.end(FAULT_MEMMANAGE, fault_name, machine.cycles)
        self._h_memmanage.observe(machine.cycles - start_cycles)
        return handled

    def _virtualise_region(self, fault: MemManageFault) -> bool:
        address = fault.address
        layout = self.image.layout_of(self.current)

        # Heap access by a heap-using operation whose heap region was
        # evicted is re-established the same way as a peripheral window.
        for window in self.current.windows:
            if window.contains(address):
                self._map_window(layout, address, window.base, window.size)
                return True
        if (layout.uses_heap
                and self.image.heap_base <= address
                < self.image.heap_base + self.image.heap_size):
            heap_base, heap_size = self._heap_region()
            self._map_window(layout, address, heap_base, heap_size)
            return True
        raise SecurityAbort(
            f"operation {self.current.name} attempted "
            f"{'write' if fault.is_write else 'read'} at "
            f"0x{address:08X} outside its policy"
        )

    def _map_window(self, layout: OperationLayout, address: int,
                    base: int, size: int) -> None:
        """Round-robin one of the reserved regions onto the window piece
        containing the faulting address."""
        slots = list(PERIPHERAL_REGIONS)
        if layout.uses_heap:
            slots.pop(0)  # the heap's slot is never a victim
        victim = slots[self._victim_rotation % len(slots)]
        self._victim_rotation += 1
        for piece_base, piece_size in covering_regions(base, size):
            if piece_base <= address < piece_base + piece_size:
                self.machine.enforcement.set_region(MPURegion(
                    number=victim, base=piece_base, size=piece_size,
                    priv="RW", unpriv="RW",
                ))
                self.machine.stats.peripheral_region_switches += 1
                self.machine.consume(
                    self.machine.enforcement.region_switch_cost)
                recorder = self.machine.recorder
                if recorder is not None:
                    recorder.instant(
                        REGION_EVICT, f"region{victim}",
                        self.machine.cycles,
                        args={"victim": victim, "base": piece_base,
                              "size": piece_size})
                return
        raise SecurityAbort(
            f"no MPU cover for window piece at 0x{address:08X}"
        )

    # -- core-peripheral emulation (§5.2) ----------------------------------------

    def handle_busfault(self, interp, fault: BusFault) -> Optional[int]:
        if not fault.is_ppb:
            return None
        allowed = any(
            p.contains(fault.address)
            for p in self.current.resources.core_peripherals
        )
        if not allowed:
            raise SecurityAbort(
                f"operation {self.current.name} accessed core peripheral "
                f"at 0x{fault.address:08X} outside its policy"
            )
        self.machine.stats.emulated_core_accesses += 1
        self.machine.consume(CORE_EMULATION_COST)
        recorder = self.machine.recorder
        if recorder is not None:
            recorder.instant(
                PPB_EMULATE, f"0x{fault.address:08X}", self.machine.cycles,
                args={"address": fault.address,
                      "write": int(fault.is_write)})
        if fault.is_write:
            self.machine.write_direct(fault.address, fault.size, fault.value)
            return 0
        return self.machine.read_direct(fault.address, fault.size)
