"""Superinstruction compilation: one Python closure per basic block.

PR 1 made per-instruction dispatch cheap (``inst._hot``); the next
factor requires not dispatching at all.  This module compiles each
:class:`~repro.ir.function.BasicBlock` once into a single generated
function — the straight-line handler chain fused into one code object —
cached on the block (``block._compiled``) and shared by every
interpreter executing it.

Design constraints (DESIGN.md, "Superinstruction compilation"):

* **Bit-identical semantics.**  The generated code charges the same
  cycles at the same points (``machine.cycles`` plus the SysTick
  check — an inlined ``Machine.consume``), bumps the same
  ``MachineStats`` counter cells in the same order, delivers pending
  IRQs at the same instruction boundaries, and routes faults through
  the same ``Interpreter._retry_access`` path as single-step
  execution.  ``tools/check_determinism.py`` runs the full export with
  block compilation on and off and byte-compares everything.

* **Image independence.**  The same IR objects may be linked into
  several images (and shared by batch-runner lanes), so generated code
  resolves every image- or machine-specific value at run time through
  the executing interpreter: globals via
  ``interp.hooks.global_address``, function addresses and the stack
  limit via ``interp.image``.  Only immutable facts are resolved at
  compile time: operand slots, constant values and folded GEP
  offsets (bound into the closure's namespace, see below), cycle
  costs, access sizes/masks, GEP strides, branch targets.

* **Inline SRAM hit, shared cold paths.**  A block that touches
  memory hoists the epoch-scoped arbitration callable (the backend's
  :meth:`~repro.hw.backend.EnforcementBackend.fast_allows`, validated
  against the decision-cache epoch by :func:`_fast_allows`) and
  ``machine.sram``'s base, data and size at entry.  A load or store
  counts itself, reads ``machine.privileged`` and, when the access
  lies wholly inside SRAM and ``allows`` it, slices the bytearray
  exactly as ``RamRegion.read``/``write`` do.  Everything else —
  flash, MMIO, the PPB, unmapped addresses, an access straddling the
  SRAM end, a denied access — is one call to :func:`_load_other` /
  :func:`_store_other`, which keep ``Machine.load``/``store``'s order
  and the fault retry, then rebind the fast path (a retry is the only
  point inside a block where the monitor can reconfigure enforcement;
  the SVC/call/return seams leave the block entirely).  Every other
  cold escape — IRQ suspension, budget, undefined register, stack
  overflow, ``unreachable``, falling off the block — is one helper
  call as well; the helpers flush the closure's locals and build any
  message at raise time from ``frame.function`` and ``frame.block``.

* **Single-step fallback.**  The compiled function returns to the
  interpreter loop — with ``frame.index`` and
  ``interp.instructions_executed`` synced — at every suspension
  point: pending IRQs, SVCs, calls, returns.  IRQ windows, delivery
  boundaries, and uncompilable blocks run through the unmodified
  ``step()``, so the trickiest interleavings always execute on the
  reference path.

* **Fault-exact fallback.**  Register fetches always precede side
  effects, so a missing register (KeyError) replays the instruction
  through its single-step handler (:func:`_undef`), which raises the
  canonical "use of undefined value" HardFault.  Shapes the compiler
  does not specialise (runtime struct indices, unknown ops) delegate
  to ``Interpreter._execute`` mid-block.

* **One compile per distinct source.**  Generated source is a pure
  function of the block's structure: bindings are numbered, not named
  after the objects they hold, and no function or block name appears
  in it.  Nor does any constant: every value taken from an IR constant
  (an operand, a ``ConstantPointer`` address, a folded GEP offset, an
  ``alloca`` size, a polled MMIO address) is a fresh ``_K<n>`` binding
  per occurrence, never shared between equal values.  Instruction
  indices, cycle costs, access sizes, masks, bit widths, GEP strides
  and the target of a constant ``br`` stay literal.  Structurally
  identical blocks — the same helper linked into many firmwares, the
  same loop shape in two functions, blocks differing only in their
  immediates — cost one ``compile()`` from a bounded per-process memo
  (:func:`_source_code`).
  :func:`_block_code` then gives each closure's code its
  ``<block @fn:block>`` filename, memoised per source and filename so
  identical fn:block pairs share one code object; profilers and
  tracebacks read that name.  Each block still ``exec``s its code into
  its own namespace, so it binds its own operands, globals and
  constant values; the process-wide names every namespace shares come
  from one table (:func:`static_bindings`).

* **Device-wait fast-forward.**  A block heading a device-wait loop
  (:func:`wait_loop`) calls ``Interpreter._wait_skip`` on its
  loop-continue branch, which charges the further idle poll
  iterations in one step with single-step's exact cycles, instruction
  count and load count.

``REPRO_BLOCKCOMPILE`` (default **on**) gates the whole mechanism;
unknown spellings raise loudly, matching ``REPRO_TRACE``.
"""

from __future__ import annotations

import os
from functools import cache, lru_cache
from types import CodeType, MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

from ..hw.board import PPB_BASE as _PPB_BASE, PPB_END as _PPB_END
from ..hw.exceptions import BusFault, HardFault, MemManageFault
from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    GEP,
    Halt,
    ICall,
    ICmp,
    Instruction,
    Jump,
    Load,
    Ret,
    Select,
    Store,
    SVC,
    Unreachable,
)
from ..ir.types import ArrayType, IntType, StructType
from ..ir.values import (
    Constant,
    ConstantNull,
    ConstantPointer,
    GlobalVariable,
    Parameter,
)
from .costs import DEFAULT_COST, DIV_COST, INSTRUCTION_COSTS

_WORD = 0xFFFFFFFF
_DIV_OPS = ("udiv", "sdiv", "urem", "srem")

#: Accepted ``REPRO_BLOCKCOMPILE`` spellings.  Anything else raises.
#: Unset/empty means **on** — block compilation is the default mode.
BLOCKCOMPILE_ON_VALUES = frozenset({"", "on", "1", "true", "yes", "enabled"})
BLOCKCOMPILE_OFF_VALUES = frozenset({"off", "0", "none", "false", "disabled"})

_BINOP_SYMBOLS = {"add": "+", "sub": "-", "mul": "*",
                  "and": "&", "or": "|", "xor": "^"}
_ICMP_SYMBOLS = {"eq": "==", "ne": "!=",
                 "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
                 "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_ICMP_SIGNED = frozenset({"slt", "sle", "sgt", "sge"})

#: Distinct generated block sources whose code objects stay memoised
#: per process (least recently used evicted first).
CODE_MEMO_SIZE = 1024


def block_compile_enabled() -> bool:
    """Whether ``REPRO_BLOCKCOMPILE`` asks for compiled-block execution.

    Defaults to on; misspellings raise instead of silently changing
    the execution mode under a benchmark or a determinism check.
    """
    raw = os.environ.get("REPRO_BLOCKCOMPILE", "").strip().lower()
    if raw in BLOCKCOMPILE_ON_VALUES:
        return True
    if raw in BLOCKCOMPILE_OFF_VALUES:
        return False
    raise ValueError(
        f"REPRO_BLOCKCOMPILE={raw!r} is not a recognised setting; "
        f"use one of {sorted(BLOCKCOMPILE_ON_VALUES - {''})} or "
        f"{sorted(BLOCKCOMPILE_OFF_VALUES)}"
    )


# -- cold paths shared by every generated closure -------------------------
#
# Generated code calls these with its locals ``interp, frame, n, index,
# block``: ``n`` is the closure's running instruction count, ``index``
# the instruction executing, and ``block`` None in a block closure or,
# in a trace, the chain block that instruction belongs to.


def _sync(interp, frame, n: int, index: int, block) -> None:
    """Store a closure's locals back before it leaves: the count, the
    executing block (traces span blocks) and the instruction index."""
    interp.instructions_executed = n
    if block is not None:
        frame.block = block
    frame.index = index


def _budget(interp, frame, n: int, index: int, block) -> None:
    """The instruction budget ran out: the reference's limit fault."""
    from .interpreter import ExecutionLimitExceeded  # no module cycle

    _sync(interp, frame, n, index, block)
    raise ExecutionLimitExceeded(
        f"instruction budget exceeded in @{frame.function.name}")


def _undef(interp, frame, n: int, index: int, block, inst) -> None:
    """A register operand was missing (KeyError on fetch).

    Generated code performs all register fetches before any side
    effect, so the instruction can be replayed through its single-step
    handler, which raises the canonical "use of undefined value"
    HardFault with the exact message single-step execution produces.
    """
    _sync(interp, frame, n, index, block)
    interp._execute(frame, inst)
    # The replay must raise (the register really is absent); reaching
    # here means the compiled fetch and the handler disagree.
    raise HardFault(f"operand KeyError replaying {inst!r}")


def _stack_overflow(interp, frame, n: int, index: int, block,
                    sp: int) -> None:
    """An ``alloca`` moved the stack pointer below the stack limit."""
    _sync(interp, frame, n, index, block)
    raise HardFault(
        f"stack overflow in @{frame.function.name} (sp=0x{sp:08X})")


def _unreachable(interp, frame, n: int, index: int, block) -> None:
    _sync(interp, frame, n, index, block)
    raise HardFault(f"unreachable executed in @{frame.function.name}")


def _fell_off(interp, frame, n: int, index: int, block) -> None:
    """No terminator transferred: mirror ``step()``'s boundary order —
    deliver a pending IRQ first, then fault."""
    _sync(interp, frame, n, index, block)
    if interp.machine.pending_irqs:
        return
    raise HardFault(
        f"fell off block {frame.block.name} in @{frame.function.name}")


def _fast_allows(machine):
    """The backend's arbitration callable for its current epoch.

    Reuses the machine's bound ``fast_allows`` while ``(backend
    identity, epoch)`` still match, and rebinds it otherwise.
    """
    enf = machine.enforcement
    if enf is machine._fp_backend and enf.epoch == machine._fp_epoch:
        return machine._fp_allows
    return machine._refresh_fast_path()


def _load_other(interp, frame, n: int, index: int, block, address: int,
                size: int, privileged: bool, allows):
    """Every load the inline SRAM hit does not serve.

    ``Machine.load`` after its load count, in its order: the
    unprivileged-PPB BusFault, arbitration, the memory map (flushing
    before an unmapped access's HardFault escapes).  A fault is
    counted, flushed and retried through the monitor exactly like
    single-step.  Returns the masked value and the arbitration
    callable, rebound after a retry (the monitor may have started a
    new epoch).
    """
    machine = interp.machine
    try:
        if not privileged and _PPB_BASE <= address < _PPB_END:
            machine._n_bus_faults.value += 1
            raise BusFault(address, size, False, value=0, is_ppb=True)
        if allows(address, size, privileged, False):
            value = machine.memory.read(address, size)
        else:
            machine._n_memmanage.value += 1
            raise MemManageFault(address, size, False, value=0)
    except (MemManageFault, BusFault) as fault:
        _sync(interp, frame, n, index, block)
        value = interp._retry_access(
            lambda: machine.load(address, size), fault)
        allows = _fast_allows(machine)
    except Exception:
        _sync(interp, frame, n, index, block)
        raise
    return value & ((1 << (size * 8)) - 1), allows


def _store_other(interp, frame, n: int, index: int, block, address: int,
                 size: int, value: int, privileged: bool, allows):
    """Every store the inline SRAM hit does not serve; the store
    counterpart of :func:`_load_other`.  Returns the arbitration
    callable, rebound after a retry."""
    machine = interp.machine
    try:
        if not privileged and _PPB_BASE <= address < _PPB_END:
            machine._n_bus_faults.value += 1
            raise BusFault(address, size, True, value=value, is_ppb=True)
        if allows(address, size, privileged, True):
            machine.memory.write(address, size, value)
        else:
            machine._n_memmanage.value += 1
            raise MemManageFault(address, size, True, value=value)
    except (MemManageFault, BusFault) as fault:
        _sync(interp, frame, n, index, block)
        interp._retry_access(
            lambda: machine.store(address, size, value) or 0, fault)
        allows = _fast_allows(machine)
    except Exception:
        _sync(interp, frame, n, index, block)
        raise
    return allows


@cache
def static_bindings() -> Mapping[str, object]:
    """The process-wide names every generated namespace binds.

    The cold-path helpers above plus the interpreter's arithmetic and
    ``HardFault``: the block and trace compilers add them to each
    namespace, and the closure cache skips them when it serialises a
    closure and re-adds them when it loads one.  Built on first use,
    since the interpreter imports this module.
    """
    from .interpreter import _to_signed, _trunc_div  # no module cycle

    return MappingProxyType({
        "HardFault": HardFault,
        "_ts": _to_signed,
        "_tdiv": _trunc_div,
        "_sync": _sync,
        "_budget": _budget,
        "_undef": _undef,
        "_stack_overflow": _stack_overflow,
        "_unreachable": _unreachable,
        "_fell_off": _fell_off,
        "_fast_allows": _fast_allows,
        "_load_other": _load_other,
        "_store_other": _store_other,
    })


def _fold_signed(value: int, bits: int) -> int:
    """Compile-time twos-complement fold (mirrors ``_to_signed``)."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


#: ``[sources, characters]`` :func:`_source_code` has compiled in this
#: process (its memo misses); the interpreter counts the growth each of
#: its compiles causes.
source_tally = [0, 0]


@lru_cache(maxsize=CODE_MEMO_SIZE)
def _source_code(source: str):
    """``(source, code)`` for one generated source, compiled on a miss.

    Sources are name- and constant-free, so one entry serves every
    block with the same structure.  The memo's ``source`` string is
    returned too, so closures sharing code share one string.  A
    failing compile raises and is not memoised.
    """
    source_tally[0] += 1
    source_tally[1] += len(source)
    return source, compile(source, "<generated>", "exec")


def _renamed(code: CodeType, filename: str) -> CodeType:
    """``code`` with ``filename`` on it and on every nested code."""
    return code.replace(co_filename=filename, co_consts=tuple(
        _renamed(const, filename) if isinstance(const, CodeType) else const
        for const in code.co_consts))


@lru_cache(maxsize=CODE_MEMO_SIZE)
def _block_code(source: str, filename: str):
    """``(source, code)``: the shared compile of ``source`` renamed to
    ``filename``, so identical (source, filename) pairs share one code
    object.  A failing compile raises and is not memoised."""
    source, code = _source_code(source)
    return source, _renamed(code, filename)


def _inst_cost(inst: Instruction) -> int:
    cost = INSTRUCTION_COSTS.get(inst.opcode, DEFAULT_COST)
    if isinstance(inst, BinOp) and inst.op in _DIV_OPS:
        cost = DIV_COST
    return cost


class WaitLoop(NamedTuple):
    """A recognised device-wait loop and its per-iteration constants."""

    address: int                # the polled MMIO register
    size: int                   # its access size in bytes
    cycles: int                 # cycles charged per iteration
    insts: int                  # instructions executed per iteration
    read_at: int                # cycles charged up to and including the read
    cont: BasicBlock            # the header's loop-continue branch target
    callee: Optional[Function]  # the polled accessor, or None when inline


def _plain_operands(inst: Instruction) -> bool:
    """Only constants and registers: no runtime address resolution."""
    return all(isinstance(v, (Constant, Instruction, Parameter))
               for v in inst.operands)


def _wait_pure(insts) -> bool:
    """Non-dividing binop/icmp/cast ops over constants and registers:
    re-executing them cannot fault or touch memory and recomputes the
    values the previous iteration computed."""
    return all(isinstance(inst, (BinOp, ICmp, Cast))
               and not (isinstance(inst, BinOp) and inst.op in _DIV_OPS)
               and _plain_operands(inst) for inst in insts)


def _is_mmio_load(inst: Instruction) -> bool:
    return isinstance(inst, Load) and isinstance(inst.pointer,
                                                 ConstantPointer)


def wait_loop(block: BasicBlock) -> Optional[WaitLoop]:
    """The device-wait loop ``block`` heads, or ``None``.

    Two shapes qualify (DESIGN.md, "Device-wait fast-forward"): *inline*
    — a ``load`` from a constant pointer, pure ops on it, a ``br`` — and
    *call* — a ``call f()`` with no arguments, pure ops on the result,
    a ``br``, where ``f`` is one block: a ``load`` from a constant
    pointer, pure ops, ``ret``.  One ``br`` target must continue the
    loop: the header itself, or a block holding only ``jump header``.
    An iteration starts at that continue target, so its cycles,
    instruction count and read offset are compile-time constants.
    """
    insts = block.instructions
    if len(insts) < 2:
        return None
    head, term = insts[0], insts[-1]
    if (not isinstance(term, Br) or not _plain_operands(term)
            or not _wait_pure(insts[1:-1])):
        return None
    for cont in (term.then_block, term.else_block):
        if cont is block:
            via = ()
            break
        body = cont.instructions
        if (len(body) == 1 and isinstance(body[0], Jump)
                and body[0].target is block):
            via = tuple(body)
            break
    else:
        return None
    callee = None
    if _is_mmio_load(head):
        load = head
        before = via + (head,)
        iteration = via + tuple(insts)
    elif isinstance(head, Call) and not head.operands:
        callee = head.callee
        if len(callee.blocks) != 1:
            return None
        body = callee.blocks[0].instructions
        if (len(body) < 2 or not _is_mmio_load(body[0])
                or not isinstance(body[-1], Ret)
                or not _plain_operands(body[-1])
                or not _wait_pure(body[1:-1])):
            return None
        load = body[0]
        before = via + (head, load)
        iteration = via + (head,) + tuple(body) + tuple(insts[1:])
    else:
        return None
    return WaitLoop(address=load.pointer.address, size=load.type.size,
                    cycles=sum(map(_inst_cost, iteration)),
                    insts=len(iteration),
                    read_at=sum(map(_inst_cost, before)),
                    cont=cont, callee=callee)


class _Emitted:
    """One instruction's generated statements plus emission metadata.

    ``fetch`` holds the statements that may raise KeyError on a
    missing register (always free of side effects beyond scratch
    locals / idempotent register writes); ``body`` holds the
    side-effecting remainder.  Unguarded instructions keep everything
    in ``body``.
    """

    __slots__ = ("fetch", "body", "transfers", "pure")

    def __init__(self, body: list[str], *, fetch: Optional[list[str]] = None,
                 transfers: bool = False, pure: bool = False):
        self.fetch = fetch or []
        self.body = body
        self.transfers = transfers  # ends with `return`
        self.pure = pure            # eligible for the batched pure path

    @property
    def guarded(self) -> bool:
        return bool(self.fetch)


class _BlockCompiler:
    """Emits and ``exec``s the superinstruction source for one block."""

    def __init__(self, block: BasicBlock):
        self.block = block
        function = block.parent
        self.fname = function.name if function is not None else "?"
        self.ns: dict = {}
        self._obj_names: dict[int, str] = {}
        self._counter = 0
        # Set by compile() when the block heads a device-wait loop.
        self._wait: Optional[WaitLoop] = None

    # -- namespace bindings -------------------------------------------

    def _bind(self, obj, prefix: str = "O") -> str:
        name = self._obj_names.get(id(obj))
        if name is None:
            self._counter += 1
            name = f"_{prefix}{self._counter}"
            self._obj_names[id(obj)] = name
            self.ns[name] = obj
        return name

    def _const(self, value: int) -> str:
        """A fresh binding for one value taken from an IR constant.

        Every occurrence gets its own name, even when two values (or
        two uses of one constant) are equal, so the source depends only
        on where constants occur, never on what they hold.
        """
        self._counter += 1
        name = f"_K{self._counter}"
        self.ns[name] = value
        return name

    # -- operand expressions ------------------------------------------

    def _operand(self, value) -> tuple[str, bool]:
        """``(expression, needs_keyerror_guard)`` for one operand.

        Mirrors ``Interpreter.eval``'s classification; register
        operands compile to a plain dict fetch and everything
        image-specific stays a runtime call through ``interp``.
        """
        if isinstance(value, Constant):
            return self._const(value.value & value.type.mask), False
        if isinstance(value, ConstantPointer):
            return self._const(value.address), False
        if isinstance(value, ConstantNull):
            return "0", False
        if isinstance(value, GlobalVariable):
            name = self._bind(value, "G")
            return (f"(interp.hooks.global_address(interp, {name})"
                    f" & {_WORD})"), False
        if isinstance(value, Function):
            name = self._bind(value, "F")
            return f"interp.image.function_address({name})", False
        if isinstance(value, (Parameter, Instruction)):
            return f"regs[{self._bind(value, 'V')}]", True
        # Exotic Value subclasses: defer to the reference evaluator.
        return f"interp.eval(frame, {self._bind(value, 'V')})", False

    # -- shared snippets ----------------------------------------------

    def _where(self, i: int) -> str:
        """The ``interp, frame, n, index, block`` arguments locating
        instruction ``i`` for the cold-path helpers.

        Every emitter's escape paths pass these, so a subclass
        compiling multi-block traces overrides only this to make each
        escape restore ``frame.block`` as well.
        """
        return f"interp, frame, n, {i}, None"

    def _flush(self, i: int) -> list[str]:
        """The statement syncing interpreter state before an escape."""
        return [f"_sync({self._where(i)})"]

    def _mem_hoists(self, insts) -> list[str]:
        """Entry bindings the memory emitters read, for ``insts``."""
        loads = any(isinstance(inst, Load) for inst in insts)
        stores = any(isinstance(inst, Store) for inst in insts)
        if not (loads or stores):
            return []
        lines = ["allows = _fast_allows(machine)"]
        if loads:
            lines.append("n_loads = machine._n_loads")
        if stores:
            lines.append("n_stores = machine._n_stores")
        return lines + ["sram = machine.sram",
                        "sb = sram.base",
                        "sd = sram.data",
                        "ss = sram.size"]

    # -- per-instruction emitters -------------------------------------
    #
    # Statements assume locals ``interp, frame, machine, regs, pending,
    # n, maxi`` (plus the memory hoists when the block touches memory).
    # Register fetches always land in ``fetch`` so the KeyError guard
    # can replay through ``_undef`` before any side effect happens.

    def _emit(self, i: int, inst: Instruction) -> _Emitted:
        if isinstance(inst, BinOp):
            return self._emit_binop(i, inst)
        if isinstance(inst, Load):
            return self._emit_load(i, inst)
        if isinstance(inst, Store):
            return self._emit_store(i, inst)
        if isinstance(inst, ICmp):
            return self._emit_icmp(i, inst)
        if isinstance(inst, Cast):
            return self._emit_cast(i, inst)
        if isinstance(inst, GEP):
            return self._emit_gep(i, inst)
        if isinstance(inst, Select):
            return self._emit_select(i, inst)
        if isinstance(inst, Alloca):
            return self._emit_alloca(i, inst)
        if isinstance(inst, Call):
            return self._emit_call(i, inst)
        if isinstance(inst, ICall):
            return self._emit_icall(i, inst)
        if isinstance(inst, SVC):
            return self._emit_svc(i, inst)
        if isinstance(inst, Br):
            return self._emit_br(i, inst)
        if isinstance(inst, Jump):
            return self._emit_jump(i, inst)
        if isinstance(inst, Ret):
            return self._emit_ret(i, inst)
        if isinstance(inst, Halt):
            return self._emit_halt(i, inst)
        if isinstance(inst, Unreachable):
            return self._emit_unreachable(i, inst)
        return self._emit_escape(i, inst)

    def _emit_escape(self, i: int, inst: Instruction) -> _Emitted:
        """Delegate one instruction to its single-step handler.

        Used for shapes the compiler does not specialise (runtime
        struct indices, unknown ops): the handler runs with
        ``frame.index`` synced, advances it itself, and raises exactly
        what single-step execution would.  Never used for control
        transfers, so straight-line emission continues after it.
        """
        iname = self._bind(inst, "I")
        return _Emitted(self._flush(i) + [
            f"interp._execute(frame, {iname})",
        ])

    def _emit_binop(self, i: int, inst: BinOp) -> _Emitted:
        a, ga = self._operand(inst.operands[0])
        b, gb = self._operand(inst.operands[1])
        bits = inst.type.bits if isinstance(inst.type, IntType) else 32
        mask = (1 << bits) - 1
        dst = self._bind(inst, "V")
        op = inst.op
        sym = _BINOP_SYMBOLS.get(op)
        if sym is not None:
            if op in ("and", "or", "xor"):
                # The reference returns these unmasked.
                stmts = [f"regs[{dst}] = {a} {sym} {b}"]
            else:
                stmts = [f"regs[{dst}] = ({a} {sym} {b}) & {mask}"]
        elif op == "shl":
            stmts = [f"regs[{dst}] = ({a} << ({b} & 31)) & {mask}"]
        elif op == "lshr":
            stmts = [f"regs[{dst}] = ({a} >> ({b} & 31)) & {mask}"]
        elif op == "ashr":
            stmts = [f"regs[{dst}] = (_ts({a}, {bits}) >> ({b} & 31))"
                     f" & {mask}"]
        elif op in ("udiv", "urem"):
            pysym = "//" if op == "udiv" else "%"
            stmts = [f"__x = {a}",
                     f"__y = {b}",
                     f"regs[{dst}] = (__x {pysym} __y) & {mask}"
                     f" if __y else 0"]
        elif op in ("sdiv", "srem"):
            stmts = [f"__sa = _ts({a}, {bits})",
                     f"__sb = _ts({b}, {bits})"]
            if op == "sdiv":
                stmts.append(f"regs[{dst}] = (_tdiv(__sa, __sb) & {mask})"
                             f" if __sb else 0")
            else:
                stmts.append(f"regs[{dst}] = (__sa - _tdiv(__sa, __sb)"
                             f" * __sb) & {mask} if __sb else 0")
        else:
            return self._emit_escape(i, inst)
        if ga or gb:
            return _Emitted([], fetch=stmts, pure=True)
        return _Emitted(stmts, pure=True)

    def _emit_icmp(self, i: int, inst: ICmp) -> _Emitted:
        a, ga = self._operand(inst.operands[0])
        b, gb = self._operand(inst.operands[1])
        op0_type = inst.operands[0].type
        bits = op0_type.bits if isinstance(op0_type, IntType) else 32
        pred = inst.pred
        sym = _ICMP_SYMBOLS.get(pred)
        if sym is None:
            return self._emit_escape(i, inst)
        dst = self._bind(inst, "V")
        if pred in _ICMP_SIGNED:
            expr = f"_ts({a}, {bits}) {sym} _ts({b}, {bits})"
        else:
            expr = f"{a} {sym} {b}"
        stmts = [f"regs[{dst}] = 1 if {expr} else 0"]
        if ga or gb:
            return _Emitted([], fetch=stmts, pure=True)
        return _Emitted(stmts, pure=True)

    def _emit_cast(self, i: int, inst: Cast) -> _Emitted:
        a, guarded = self._operand(inst.operands[0])
        kind = inst.kind
        dst = self._bind(inst, "V")
        dst_mask = (inst.type.mask if isinstance(inst.type, IntType)
                    else _WORD)
        if kind in ("zext", "ptrtoint", "inttoptr", "bitcast"):
            stmts = [f"regs[{dst}] = {a} & {dst_mask}"]
        elif kind == "trunc":
            stmts = [f"regs[{dst}] = {a} & {inst.type.mask}"]
        elif kind == "sext":
            src = inst.operands[0].type
            bits = src.bits if isinstance(src, IntType) else 32
            stmts = [f"regs[{dst}] = _ts({a}, {bits}) & {dst_mask}"]
        else:
            return self._emit_escape(i, inst)
        if guarded:
            return _Emitted([], fetch=stmts, pure=True)
        return _Emitted(stmts, pure=True)

    def _emit_select(self, i: int, inst: Select) -> _Emitted:
        cond, gc = self._operand(inst.operands[0])
        a, ga = self._operand(inst.operands[1])
        b, gb = self._operand(inst.operands[2])
        dst = self._bind(inst, "V")
        # A conditional expression keeps the unchosen arm lazy,
        # matching single-step (which only evaluates the chosen one).
        stmts = [f"regs[{dst}] = ({a}) if ({cond}) else ({b})"]
        if gc or ga or gb:
            return _Emitted([], fetch=stmts, pure=True)
        return _Emitted(stmts, pure=True)

    def _emit_gep(self, i: int, inst: GEP) -> _Emitted:
        ptr, guarded = self._operand(inst.pointer)
        indices = inst.indices
        const_off = 0
        folded = False
        terms: list[str] = []

        def add_index(value, stride: int) -> None:
            nonlocal const_off, folded, guarded
            if isinstance(value, Constant):
                signed = _fold_signed(value.value & value.type.mask, 32)
                const_off += signed * stride
                folded = True
            else:
                expr, g = self._operand(value)
                guarded = guarded or g
                terms.append(f"_ts({expr}, 32) * {stride}")

        try:
            pointee = inst.pointer.type.pointee
            add_index(indices[0], pointee.size)
            current = pointee
            bad_walk = False
            for index in indices[1:]:
                if isinstance(current, ArrayType):
                    add_index(index, current.stride)
                    current = current.element
                elif isinstance(current, StructType):
                    if not isinstance(index, Constant):
                        return self._emit_escape(i, inst)
                    ival = index.value & index.type.mask
                    const_off += current.offset_of(ival)
                    folded = True
                    current = current.field_type(ival)
                else:
                    bad_walk = True
                    break
        except Exception:
            return self._emit_escape(i, inst)
        # Masking once at the end equals the reference's per-step
        # masking: addition mod 2**32 is associative.
        parts = [ptr]
        if folded:
            parts.append(self._const(const_off))
        parts.extend(terms)
        expr = f"({' + '.join(parts)}) & {_WORD}"
        if bad_walk:
            # The static type walk hit a non-aggregate: evaluate the
            # operands gathered so far (an undefined register must
            # still fault first, like single-step), then raise the
            # handler's HardFault.
            body = self._flush(i) + [
                "raise HardFault('gep into non-aggregate at runtime')",
            ]
            if guarded:
                return _Emitted(body, fetch=[f"__g = {expr}"],
                                transfers=True)
            return _Emitted([f"__g = {expr}"] + body, transfers=True)
        dst = self._bind(inst, "V")
        stmts = [f"regs[{dst}] = {expr}"]
        if guarded:
            return _Emitted([], fetch=stmts, pure=True)
        return _Emitted(stmts, pure=True)

    def _emit_alloca(self, i: int, inst: Alloca) -> _Emitted:
        dst = self._bind(inst, "V")
        return _Emitted([
            f"interp.sp = __sp = (interp.sp - {self._const(inst.byte_size)})"
            " & -4",
            "if __sp < interp.image.stack_limit:",
            f"    _stack_overflow({self._where(i)}, __sp)",
            f"regs[{dst}] = __sp",
        ])

    def _emit_load(self, i: int, inst: Load) -> _Emitted:
        addr, guarded = self._operand(inst.pointer)
        size = inst.type.size
        dst = self._bind(inst, "V")
        fetch = [f"__a = {addr}"]
        body = [
            "n_loads.value += 1",
            "__p = machine.privileged",
            "__o = __a - sb",
            f"if 0 <= __o <= ss - {size} and allows(__a, {size}, __p, False):",
            f"    regs[{dst}] = int.from_bytes(sd[__o:__o + {size}],"
            f" 'little')",
            "else:",
            f"    regs[{dst}], allows = _load_other({self._where(i)},"
            f" __a, {size}, __p, allows)",
        ]
        if guarded:
            return _Emitted(body, fetch=fetch)
        return _Emitted(fetch + body)

    def _emit_store(self, i: int, inst: Store) -> _Emitted:
        addr, ga = self._operand(inst.pointer)
        value, gv = self._operand(inst.value)
        size = inst.value.type.size
        mask = (1 << (size * 8)) - 1
        # Reference order: pointer first, then value.
        fetch = [f"__a = {addr}", f"__v = {value}"]
        body = [
            "n_stores.value += 1",
            "__p = machine.privileged",
            "__o = __a - sb",
            f"if 0 <= __o <= ss - {size} and allows(__a, {size}, __p, True):",
            f"    sd[__o:__o + {size}] = (__v & {mask}).to_bytes({size},"
            f" 'little')",
            "else:",
            f"    allows = _store_other({self._where(i)}, __a, {size}, __v,"
            f" __p, allows)",
        ]
        if ga or gv:
            return _Emitted(body, fetch=fetch)
        return _Emitted(fetch + body)

    def _emit_call(self, i: int, inst: Call) -> _Emitted:
        exprs = []
        guarded = False
        for arg in inst.operands:
            expr, g = self._operand(arg)
            exprs.append(expr)
            guarded = guarded or g
        callee = self._bind(inst.callee, "F")
        iname = self._bind(inst, "I")
        fetch = [f"__args = [{', '.join(exprs)}]"]
        # ``_do_call`` advances frame.index past this call, runs the
        # switch-point hooks, pushes the callee frame; we suspend, and
        # the loop re-enters this block at i+1 after the return.
        body = self._flush(i) + [
            f"interp._do_call(frame, {iname}, {callee}, __args)",
            "return",
        ]
        if self._wait is not None and i == 0:
            # A polling call: stamp it so the branch can tell whether
            # anything (an IRQ handler) ran besides the accessor.
            body.insert(0, "interp._wait_call_cycles = machine.cycles")
        if guarded:
            return _Emitted(body, fetch=fetch, transfers=True)
        return _Emitted(fetch + body, transfers=True)

    def _emit_icall(self, i: int, inst: ICall) -> _Emitted:
        target, guarded = self._operand(inst.target)
        exprs = []
        for arg in inst.args:
            expr, g = self._operand(arg)
            exprs.append(expr)
            guarded = guarded or g
        iname = self._bind(inst, "I")
        fetch = [
            f"__t = {target}",
            "__c = interp.image.function_at(__t)",
            "if __c is None:",
            "    " + self._flush(i)[0],
            "    raise HardFault("
            "'icall to non-function address 0x%08X' % __t)",
            f"__args = [{', '.join(exprs)}]",
        ]
        body = self._flush(i) + [
            f"interp._do_call(frame, {iname}, __c, __args)",
            "return",
        ]
        if guarded:
            return _Emitted(body, fetch=fetch, transfers=True)
        return _Emitted(fetch + body, transfers=True)

    def _emit_svc(self, i: int, inst: SVC) -> _Emitted:
        # SVC boundaries run the single-step handler and suspend the
        # block: the monitor may switch operations, reconfigure
        # enforcement, or change privilege, so the block is re-entered
        # (re-hoisting every binding) at i+1.
        iname = self._bind(inst, "I")
        return _Emitted(self._flush(i) + [
            f"interp._exec_svc(frame, {iname})",
            "return",
        ], transfers=True)

    def _emit_br(self, i: int, inst: Br) -> _Emitted:
        cond_op = inst.operands[0]
        then_name = self._bind(inst.then_block, "B")
        else_name = self._bind(inst.else_block, "B")
        if isinstance(cond_op, Constant):
            folded = cond_op.value & cond_op.type.mask
            fetch = [f"__b = {then_name if folded else else_name}"]
            guarded = False
        else:
            cond, guarded = self._operand(cond_op)
            fetch = [f"__b = {then_name} if ({cond}) else {else_name}"]
        body = [
            "interp.instructions_executed = n",
            "frame.block = __b",
            "frame.index = 0",
            "return",
        ]
        if self._wait is not None:
            body[:0] = self._wait_skip()
        if guarded:
            return _Emitted(body, fetch=fetch, transfers=True, pure=True)
        return _Emitted(fetch + body, transfers=True, pure=True)

    def _wait_skip(self) -> list[str]:
        """A wait header's fast-forward, on its loop-continue branch.

        Skips only after an iteration whose read nothing else could
        have followed before the branch (an IRQ handler touching the
        device): inline, the read ran in this same invocation; for the
        call shape, the helper gets the cycles that passed since the
        call beyond the accessor's and the header's remaining
        instructions — zero, or exactly a vouched switch pair with its
        SVCs when the accessor sits behind a domain switch.
        """
        wait = self._wait
        if wait.callee is None:
            guard = " and start == 0"
            callee = "None"
            extra = "0"
        else:
            span = sum(map(_inst_cost, self.block.instructions[1:])) + sum(
                map(_inst_cost, wait.callee.blocks[0].instructions))
            guard = ""
            callee = self._bind(wait.callee, "F")
            extra = f"machine.cycles - interp._wait_call_cycles - {span}"
        return [
            f"if __b is {self._bind(wait.cont, 'B')}{guard}:",
            f"    n = interp._wait_skip(n, {self._const(wait.address)}, "
            f"{wait.size}, {wait.cycles}, {wait.insts}, {wait.read_at}, "
            f"{callee}, {extra})",
        ]

    def _emit_jump(self, i: int, inst: Jump) -> _Emitted:
        target = self._bind(inst.target, "B")
        # `__b` first, matching Br, so the batched path can split the
        # (trivial) fetch from the transfer uniformly.
        return _Emitted([
            f"__b = {target}",
            "interp.instructions_executed = n",
            "frame.block = __b",
            "frame.index = 0",
            "return",
        ], transfers=True, pure=True)

    def _emit_ret(self, i: int, inst: Ret) -> _Emitted:
        iname = self._bind(inst, "I")
        return _Emitted(self._flush(i) + [
            f"interp._do_return(frame, {iname})",
            "return",
        ], transfers=True)

    def _emit_halt(self, i: int, inst: Halt) -> _Emitted:
        iname = self._bind(inst, "I")
        return _Emitted(self._flush(i) + [
            f"interp._exec_halt(frame, {iname})",
            "return",
        ], transfers=True)

    def _emit_unreachable(self, i: int, inst: Unreachable) -> _Emitted:
        return _Emitted([f"_unreachable({self._where(i)})"],
                        transfers=True)

    # -- assembly ------------------------------------------------------

    def compile(self) -> Callable:
        block = self.block
        insts = block.instructions
        self._wait = wait_loop(block)
        emitted = [self._emit(i, inst) for i, inst in enumerate(insts)]
        costs = [_inst_cost(inst) for inst in insts]

        lines = ["def __block(interp, frame, machine, start):"]

        def w(indent: int, text: str) -> None:
            lines.append("    " * indent + text)

        w(1, "regs = frame.regs")
        w(1, "pending = machine.pending_irqs")
        w(1, "n = interp.instructions_executed")
        w(1, "maxi = interp.max_instructions")
        for line in self._mem_hoists(insts):
            w(1, line)

        # Tier 2: a block of pure register compute plus its Br/Jump
        # terminator executes with one batched cycle charge and one
        # budget check.  Safe because pure ops cannot fault, touch
        # memory, pend IRQs, or observe the cycle counter — and all
        # state mutation (cycles, instruction count, the transfer)
        # happens only after every KeyError-capable fetch succeeded;
        # register writes inside the try are idempotent, so a missing
        # register falls through to the per-instruction path, which
        # replays from index 0 and reports the fault like single-step.
        batchable = (len(insts) >= 2 and all(e.pure for e in emitted)
                     and emitted[-1].transfers)
        if batchable:
            total = sum(costs)
            term_stmts = emitted[-1].fetch + emitted[-1].body
            term_fetch, term_transfer = term_stmts[:1], term_stmts[1:]
            w(1, f"if start == 0 and not pending "
                 f"and not machine._systick_armed "
                 f"and n + {len(insts)} <= maxi:")
            w(2, "try:")
            for e in emitted[:-1]:
                for stmt in e.fetch + e.body:
                    w(3, stmt)
            for stmt in term_fetch:
                w(3, stmt)
            w(2, "except KeyError:")
            w(3, "pass")
            w(2, "else:")
            w(3, f"machine.cycles += {total}")
            w(3, f"n += {len(insts)}")
            for stmt in term_transfer:
                w(3, stmt)

        for i, (inst, e, cost) in enumerate(zip(insts, emitted, costs)):
            w(1, f"if start <= {i}:")
            w(2, "if pending:")
            w(3, f"return _sync({self._where(i)})")
            w(2, "n += 1")
            w(2, "if n > maxi:")
            w(3, f"_budget({self._where(i)})")
            w(2, f"machine.cycles += {cost}")
            w(2, "if machine._systick_armed "
                 "and machine.cycles >= machine._systick_next:")
            w(3, "machine._systick_fire()")
            if e.guarded:
                w(2, "try:")
                for stmt in e.fetch:
                    w(3, stmt)
                w(2, "except KeyError:")
                w(3, f"_undef({self._where(i)}, {self._bind(inst, 'I')})")
                for stmt in e.body:
                    w(2, stmt)
            else:
                for stmt in e.body:
                    w(2, stmt)

        # Fell off the block: no terminator transferred.
        w(1, f"return _fell_off({self._where(len(insts))})")

        source = "\n".join(lines) + "\n"
        self.ns.update(static_bindings())
        source, code = _block_code(
            source, f"<block @{self.fname}:{block.name}>")
        exec(code, self.ns)
        fn = self.ns["__block"]
        fn.__repro_source__ = source
        fn.__repro_batched__ = batchable
        return fn


def compile_block(block: BasicBlock) -> Optional[Callable]:
    """Compile ``block`` and cache the closure on it.

    Returns the compiled function, or ``None`` (also cached) when the
    block cannot be compiled — the interpreter then permanently
    single-steps that block.  Never raises: a codegen failure must
    degrade to the reference path, not kill the run.
    """
    try:
        fn = _BlockCompiler(block).compile()
    except Exception:
        fn = None
    block._compiled = fn
    return fn


__all__ = [
    "BLOCKCOMPILE_OFF_VALUES",
    "BLOCKCOMPILE_ON_VALUES",
    "block_compile_enabled",
    "compile_block",
    "WaitLoop",
    "wait_loop",
]
