"""ACES runtime: compartment switching and enforcement.

Switches happen at every cross-compartment call edge — the code-module
partitioning crosses domains far more often than OPEC's operation
boundaries (Figure 4), which is where ACES' higher runtime overhead in
Table 2 comes from.  Compartments that need core peripherals run at
the privileged level instead of being emulated (§6.2, "ACES lifts the
compartment to the privileged level").

Stack handling follows ACES' design as §5.2 describes it: one MPU
region covers the stack with previous portions' sub-regions disabled;
an access into a previous frame faults and the *micro-emulator* checks
it against the allow list (the stack itself) and performs the access —
paying a per-access emulation cost instead of OPEC's per-switch
relocation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...hw.exceptions import BusFault, MemManageFault, SecurityAbort
from ...hw.machine import Machine
from ...hw.mpu import MPURegion
from ...image.mpu_config import subregion_disable_for_free_range
from ...interp.costs import MICRO_EMULATOR_COST
from ...interp.hooks import RuntimeHooks
from ...ir.function import Function
from .compartments import Compartment
from .image import AcesImage


@dataclass
class AcesContext:
    previous: Compartment
    was_privileged: bool
    stack_mask: int


class AcesRuntime(RuntimeHooks):
    """Runtime hooks enforcing the ACES policy."""

    def __init__(self, machine: Machine, image: AcesImage):
        self.machine = machine
        self.image = image
        main = image.module.get_function("main")
        self.current = image.compartment_for(main)
        if self.current is None:
            raise ValueError("main is not in any compartment")
        self.context_stack: list[AcesContext] = []
        self.switch_count = 0
        self.micro_emulations = 0
        self.current_stack_mask = 0
        # Region sets are pure in (compartment, stack mask) and
        # MPURegion is immutable: memoised, with a fresh list per load.
        # Keyed by index, since Compartment equality compares function
        # sets.
        self._region_sets: dict[tuple[int, int], list[MPURegion]] = {}

    def on_reset(self, interp) -> None:
        self._load_mpu(self.current, self.current_stack_mask)
        self.machine.enforcement.enabled = True
        if not self.current.privileged:
            self.machine.drop_privilege()

    def is_switch_point(self, interp, callee: Function) -> bool:
        target = self.image.compartment_for(callee)
        return target is not None and target is not self.current

    def _boundary_mask(self, sp: int) -> int:
        sub = self.image.stack_size // 8
        boundary = sp & ~(sub - 1)
        return subregion_disable_for_free_range(
            self.image.stack_base, self.image.stack_size, boundary)

    def before_call(self, interp, callee: Function, args):
        target = self.image.compartment_for(callee)
        assert target is not None
        self.machine.consume(self.machine.enforcement.switch_base_cost)
        self.switch_count += 1
        self.context_stack.append(
            AcesContext(previous=self.current,
                        was_privileged=self.machine.base_privilege,
                        stack_mask=self.current_stack_mask)
        )
        self.current = target
        # Hide the previous compartments' stack portions (no data
        # relocation: faulting accesses go through the micro-emulator).
        self.current_stack_mask = self._boundary_mask(interp.sp)
        self._load_mpu(target, self.current_stack_mask)
        # Privilege lifting: a compartment that needs core peripherals
        # runs at the privileged level (§6.2) — set the thread privilege
        # execution resumes at after this handler returns.
        self.machine.set_base_privilege(target.privileged)
        return args

    def after_return(self, interp, callee: Function) -> None:
        if not self.context_stack:
            raise SecurityAbort("compartment exit without matching entry")
        context = self.context_stack.pop()
        self.machine.consume(self.machine.enforcement.switch_base_cost)
        self.current = context.previous
        self.current_stack_mask = context.stack_mask
        self._load_mpu(self.current, self.current_stack_mask)
        self.machine.set_base_privilege(context.was_privileged)

    def switch_pair_cycles(self, interp, callee: Function) -> int:
        # A pair charges the switch cost twice and restores the context
        # stack, compartment, stack mask, base privilege and (memoised)
        # region set it found; the micro-emulator charges for every
        # fault it serves and every other fault aborts.
        return 2 * self.machine.enforcement.switch_base_cost

    def skip_switch_pairs(self, interp, callee: Function, k: int) -> None:
        self.switch_count += k

    def _load_mpu(self, compartment: Compartment, stack_mask: int) -> None:
        key = (compartment.index, stack_mask)
        memo = self._region_sets.get(key)
        if memo is None:
            memo = []
            for template in self.image.layout_of(compartment).templates:
                if template.number == 2:  # the stack region gets the mask
                    memo.append(MPURegion(
                        number=2, base=template.base, size=template.size,
                        priv=template.priv, unpriv=template.unpriv,
                        subregion_disable=stack_mask,
                    ))
                else:
                    memo.append(template)
            self._region_sets[key] = memo
        self.machine.enforcement.load_configuration(list(memo))

    def handle_memmanage(self, interp, fault: MemManageFault):
        # The micro-emulator: accesses into the (masked) previous stack
        # frames are checked against the allow list — the stack itself —
        # and performed by the emulator (§5.2).
        if self.image.stack_base <= fault.address < self.image.stack_top:
            self.machine.consume(MICRO_EMULATOR_COST)
            self.machine.stats.micro_emulated_accesses += 1
            self.micro_emulations += 1
            if fault.is_write:
                self.machine.write_direct(fault.address, fault.size,
                                          fault.value)
                return ("emulated", 0)
            return ("emulated",
                    self.machine.read_direct(fault.address, fault.size))
        raise SecurityAbort(
            f"compartment {self.current.name} attempted "
            f"{'write' if fault.is_write else 'read'} at "
            f"0x{fault.address:08X} outside its regions"
        )

    def handle_busfault(self, interp, fault: BusFault):
        # Unprivileged PPB access: ACES has no emulator — the paper's
        # answer is privilege lifting, so reaching here is a policy bug.
        raise SecurityAbort(
            f"compartment {self.current.name} hit the PPB unprivileged "
            f"at 0x{fault.address:08X}"
        )
