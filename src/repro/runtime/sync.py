"""Global-variable synchronisation and sanitisation (§5.2, Figure 7).

External (shared) globals have one *public* original plus a shadow copy
per accessing operation.  On a switch the monitor writes the suspended
operation's shadows back to the public copies — after checking each
value against its developer-provided valid range — then refreshes the
resumed/entered operation's shadows from the public copies, points the
relocation table at them, and finally redirects any pointer fields that
still point into another operation's data section (§5.3).

The phase methods below are the only switch implementation: the
monitor's call and return paths and the §7 thread switch all run them.
Every address a phase touches is policy- or layout-level data, fixed
once the image is linked, so it is resolved once per operation into an
:class:`_OperationMemo`.  The memos and the address index behind
pointer redirection belong to the image (:class:`_ImageSync`), so every
monitor of one image — a campaign runs each OPEC image on many lanes —
shares them.  Shadows and public originals all live in the board's SRAM
(the memo refuses an image where one does not), so a copy slices the
SRAM bytes directly.  Cycles are still charged per item — per check,
per copy, per relocation slot, per pointer-field read and per rewrite —
so an armed SysTick sees the same charge sequence whether or not a
flight recorder is attached.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..hw.board import Board
from ..hw.exceptions import SecurityAbort
from ..hw.machine import Machine
from ..image.linker import OpecImage
from ..interp.costs import SANITIZE_CHECK_COST, SYNC_WORD_COST
from ..ir.values import GlobalVariable
from ..partition.operations import Operation


def _sram_offset(board: Board, address: int, gvar: GlobalVariable,
                 what: str) -> int:
    offset = address - board.sram_base
    if not 0 <= offset <= board.sram_size - gvar.size:
        raise ValueError(
            f"{what} of @{gvar.name} at 0x{address:08X}+{gvar.size} is "
            f"not inside SRAM")
    return offset


class _OperationMemo:
    """Every address one operation's switch phases touch, in the
    policy's order (which fixes the memory-write sequence)."""

    __slots__ = ("checks", "copies", "own", "reloc", "fields")

    def __init__(self, image: OpecImage, operation: Operation):
        policy = image.policy
        board = image.board
        # (shadow, size, lo, hi, variable name) per range-checked scalar.
        self.checks: list[tuple[int, int, int, int, str]] = []
        # (shadow, public, size, its check or None) per external, the
        # first two as offsets into SRAM.
        self.copies: list[tuple[int, int, int, Optional[tuple]]] = []
        # The operation's own shadow of each external.
        self.own: dict[GlobalVariable, int] = {}
        for gvar in policy.external_vars(operation):
            shadow = image.shadow_address(operation, gvar)
            check = None
            if gvar.sanitize_range is not None and gvar.size <= 4:
                lo, hi = gvar.sanitize_range
                check = (shadow, gvar.size, lo, hi, gvar.name)
                self.checks.append(check)
            self.copies.append(
                (_sram_offset(board, shadow, gvar, "shadow"),
                 _sram_offset(board, image.public_addresses[gvar], gvar,
                              "public original"),
                 gvar.size, check))
            self.own[gvar] = shadow
        # (slot, target) per relocation-table slot: the operation's own
        # shadow, or the public original when it does not access it.
        self.reloc: list[tuple[int, int]] = [
            (slot, self.own[gvar] if gvar in self.own
             else image.public_addresses[gvar])
            for gvar, slot in image.reloc_slots.items()
        ]
        # Address of every pointer field in the operation's section.
        self.fields: list[int] = []
        for gvar in policy.section_vars(operation):
            if not gvar.pointer_field_offsets:
                continue
            base = image.shadow_addresses.get((operation.index, gvar))
            if base is None:
                base = image.global_address(gvar)
            self.fields.extend(base + offset
                               for offset in gvar.pointer_field_offsets)


class _ImageSync:
    """The image-level switch data every monitor of one image shares:
    the address index over every shadow copy and public original, so
    pointer fields can be retargeted across sections (§5.3), and each
    operation's memo, built when a switch first needs it."""

    __slots__ = ("intervals", "memos")

    def __init__(self, image: OpecImage):
        self.intervals: list[tuple[int, int, Optional[int],
                                   GlobalVariable]] = []
        for (op_index, gvar), addr in image.shadow_addresses.items():
            self.intervals.append((addr, addr + gvar.size, op_index, gvar))
        for gvar, addr in image.public_addresses.items():
            self.intervals.append((addr, addr + gvar.size, None, gvar))
        self.intervals.sort()
        self.memos: dict[int, _OperationMemo] = {}


# Per image; an entry holds no reference to its image, so it dies with
# the image.
_image_syncs: "weakref.WeakKeyDictionary[OpecImage, _ImageSync]" = \
    weakref.WeakKeyDictionary()


class DataSynchronizer:
    """Performs the Figure-7 data movement for one image on one
    machine."""

    def __init__(self, machine: Machine, image: OpecImage):
        self.machine = machine
        self.image = image
        shared = _image_syncs.get(image)
        if shared is None:
            shared = _image_syncs[image] = _ImageSync(image)
        self._intervals = shared.intervals
        self._memos = shared.memos
        self._bytes_copied = machine.metrics.counter("monitor.sync_bytes_copied")

    def _memo(self, operation: Operation) -> _OperationMemo:
        memo = self._memos.get(operation.index)
        if memo is None:
            memo = _OperationMemo(self.image, operation)
            self._memos[operation.index] = memo
        return memo

    # -- words ------------------------------------------------------------

    def _copy(self, src: int, dst: int, size: int) -> None:
        """Copy ``size`` bytes between two SRAM offsets."""
        machine = self.machine
        data = machine.sram.data
        data[dst:dst + size] = data[src:src + size]
        self._bytes_copied.value += size
        machine.consume(SYNC_WORD_COST * ((size + 3) // 4))

    # -- sanitisation -------------------------------------------------------

    def _check(self, operation: Operation, check: tuple) -> None:
        """Abort if a scalar shadow value left its declared range."""
        shadow, size, lo, hi, name = check
        value = self.machine.read_direct(shadow, size)
        self.machine.consume(SANITIZE_CHECK_COST)
        if not lo <= value <= hi:
            raise SecurityAbort(
                f"sanitisation failed for @{name} in operation "
                f"{operation.name}: value {value} outside [{lo}, {hi}]"
            )

    def sanitize_operation(self, operation: Operation) -> None:
        """Range-check every external shadow of ``operation``.

        The monitor runs this as its own switch phase (so it traces as a
        distinct span) and then copies with ``sanitize=False``; checking
        all shadows before copying any is equivalent to the interleaved
        order because a failed check aborts the run.
        """
        for check in self._memo(operation).checks:
            self._check(operation, check)

    # -- Figure 7 steps ------------------------------------------------------

    def write_back(self, operation: Operation, *,
                   sanitize: bool = True) -> None:
        """Shadows of ``operation`` → public copies (sanitised)."""
        for shadow, public, size, check in self._memo(operation).copies:
            if sanitize and check is not None:
                self._check(operation, check)
            self._copy(shadow, public, size)

    def refresh(self, operation: Operation) -> None:
        """Public copies → shadows of ``operation``."""
        for shadow, public, size, _check in self._memo(operation).copies:
            self._copy(public, shadow, size)

    def update_relocation_table(self, operation: Operation) -> None:
        """Point every external's slot at ``operation``'s shadow, or at
        the public original when the operation does not access it."""
        machine = self.machine
        for slot, target in self._memo(operation).reloc:
            machine.write_direct(slot, 4, target)
            machine.consume(1)

    # -- pointer-field redirection (§5.3) --------------------------------------

    def _locate(self, address: int) -> Optional[tuple[Optional[int],
                                                      GlobalVariable, int]]:
        for start, end, op_index, gvar in self._intervals:
            if start <= address < end:
                return op_index, gvar, address - start
        return None

    def redirect_pointers(self, operation: Operation) -> None:
        """Rewrite pointer fields in ``operation``'s section that point
        at another operation's shadow (or a public original) of a
        variable this operation holds its own shadow of."""
        machine = self.machine
        memo = self._memo(operation)
        for address in memo.fields:
            pointer = machine.read_direct(address, 4)
            machine.consume(2)
            located = self._locate(pointer)
            if located is None:
                continue
            target_op, target_var, delta = located
            if target_op == operation.index:
                continue
            own = memo.own.get(target_var)
            if own is not None:
                machine.write_direct(address, 4, own + delta)
                machine.consume(1)
