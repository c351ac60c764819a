"""Trace fusion: hot multi-block loop chains fused into one closure.

The third interpreter tier.  PR 7's block compiler
(:mod:`repro.interp.blockcompile`) fused each basic block into one
closure; the remaining per-iteration overhead of a hot loop is the
*inter*-block machinery — one closure call, one ``_compiled`` lookup,
one dispatch-loop turn and one full set of hoists (``regs``,
``pending``, the epoch-bound ``fast_allows`` rebind) per block per
iteration.  This module detects hot loop chains — blocks linked by
``jump``-to-unconditional-target edges and closed back to the head by
a ``jump`` or conditional ``br`` latch — and compiles the whole chain
into a single closure that stays resident across iterations.

Semantics are the block compiler's, batched harder:

* **One guard per iteration.**  Pure instruction runs (register
  compute, folded constants, mid-chain jumps) execute under a single
  batched cycle charge and instruction count.  That is exact because
  the iteration is entered only with no pending IRQs, SysTick
  disarmed, and the whole iteration inside the instruction budget —
  and pure ops can change none of those.  Loads/stores are *sync
  points*: the batched charge for the preceding pure run (plus the
  memory op itself) commits first, then the access runs the block
  compiler's code — the inline SRAM hit, or the shared
  ``_load_other``/``_store_other`` helper with its PPB check and fault
  retry — and afterwards the trace suspends if the access pended an
  IRQ or armed SysTick.

* **Fall back exactly like a block.**  Every escape (pending IRQ,
  SysTick armed, budget, fault, KeyError on an undefined register)
  flushes ``interp.instructions_executed``, ``frame.block`` *and*
  ``frame.index`` — traces span blocks, so they pass the executing
  block to the block compiler's shared cold-path helpers, which the
  block compiler's own escapes call with ``None`` — and returns to the
  dispatch loop, which resumes on the per-block (or single-step)
  tier.  A pure-run KeyError rolls back to the start of its
  uncommitted segment; the per-block replay then reports the
  canonical "use of undefined value" HardFault.

* **Progress protocol.**  The closure returns 1 when it committed any
  state and 0 when it bailed before executing anything (so the
  dispatch loop falls through to the per-block tier instead of
  re-entering the trace forever).

Traces compile once a block has been entered ``TRACE_THRESHOLD`` (8)
times at index 0 with IRQs quiet, and are cached on the IR
(``block._trace``) — shared by every interpreter and batch lane, and
dropped on pickle like ``_compiled``.  ``REPRO_TRACEFUSE`` (default
**on**) gates the tier; unknown spellings raise loudly.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from ..ir.function import BasicBlock
from ..ir.instructions import Alloca, Br, Jump, Load, Store
from ..ir.values import Constant
from .blockcompile import (
    _BlockCompiler,
    _block_code,
    _inst_cost,
    static_bindings,
    wait_loop,
)

#: Accepted ``REPRO_TRACEFUSE`` spellings.  Anything else raises.
#: Unset/empty means **on** — trace fusion is the default mode.
TRACEFUSE_ON_VALUES = frozenset({"", "on", "1", "true", "yes", "enabled"})
TRACEFUSE_OFF_VALUES = frozenset({"off", "0", "none", "false", "disabled"})

#: Block entries (at index 0, IRQs quiet) before a trace is attempted;
#: each interpreter reads it when it is constructed.
TRACE_THRESHOLD = 8

#: Chain caps: a runaway walk must not fuse half a program.
MAX_TRACE_BLOCKS = 16
MAX_TRACE_INSTS = 256


def trace_fuse_enabled() -> bool:
    """Whether ``REPRO_TRACEFUSE`` asks for fused-trace execution.

    Defaults to on; misspellings raise instead of silently changing
    the execution mode under a benchmark or a determinism check.
    """
    raw = os.environ.get("REPRO_TRACEFUSE", "").strip().lower()
    if raw in TRACEFUSE_ON_VALUES:
        return True
    if raw in TRACEFUSE_OFF_VALUES:
        return False
    raise ValueError(
        f"REPRO_TRACEFUSE={raw!r} is not a recognised setting; "
        f"use one of {sorted(TRACEFUSE_ON_VALUES - {''})} or "
        f"{sorted(TRACEFUSE_OFF_VALUES)}"
    )


class _Unfusible(Exception):
    """Internal: the chain contains something a trace cannot carry."""


def _detect_chain(head: BasicBlock) -> Optional[list[BasicBlock]]:
    """The loop chain anchored at ``head``, or ``None``.

    Follows ``jump`` terminators forward until the loop closes back to
    ``head`` — either by a ``jump`` latch or a conditional ``br``
    latch with ``head`` among its targets.  Anything else (a chain
    that leaves through a ``br`` elsewhere, revisits a non-head block,
    or exceeds the caps) is not a loop through ``head`` and is
    rejected.
    """
    chain = [head]
    seen = {id(head)}
    total = len(head.instructions)
    cur = head
    while True:
        insts = cur.instructions
        if not insts:
            return None
        term = insts[-1]
        if isinstance(term, Jump):
            target = term.target
            if target is head:
                return chain
            if (id(target) in seen or len(chain) >= MAX_TRACE_BLOCKS
                    or total + len(target.instructions) > MAX_TRACE_INSTS):
                return None
            chain.append(target)
            seen.add(id(target))
            total += len(target.instructions)
            cur = target
        elif isinstance(term, Br):
            if head is term.then_block or head is term.else_block:
                return chain
            return None
        else:
            return None


class _TraceCompiler(_BlockCompiler):
    """Emits and ``exec``s the fused-loop source for one chain.

    Reuses every per-instruction emitter of the block compiler and its
    cold-path helpers; overriding :meth:`_where` makes each emitted
    escape restore ``frame.block`` as well, since inside a trace the
    executing block is not the one the frame was entered on.
    """

    def __init__(self, chain: list[BasicBlock]):
        super().__init__(chain[0])
        self.chain = chain
        self._cur_block = chain[0]

    def _where(self, i: int) -> str:
        return (f"interp, frame, n, {i}, "
                f"{self._bind(self._cur_block, 'B')}")

    def compile(self) -> Callable:
        chain = self.chain
        head = chain[0]
        head_name = self._bind(head, "B")
        total = sum(len(b.instructions) for b in chain)

        lines = ["def __trace(interp, frame, machine):"]

        def w(indent: int, text: str) -> None:
            lines.append("    " * indent + text)

        w(1, "regs = frame.regs")
        w(1, "pending = machine.pending_irqs")
        w(1, "n = interp.instructions_executed")
        w(1, "maxi = interp.max_instructions")
        for line in self._mem_hoists(
                [inst for b in chain for inst in b.instructions]):
            w(1, line)
        w(1, "prog = 0")
        w(1, "while True:")
        # One guard per iteration: the whole iteration must run with
        # no pending IRQs, SysTick disarmed, and inside the budget —
        # then pure runs need no per-instruction checks at all.
        w(2, f"if pending or machine._systick_armed "
             f"or n + {total} > maxi:")
        w(3, f"_sync(interp, frame, n, 0, {head_name})")
        w(3, "return prog")

        # Streaming chunk state: a buffered pure run, its batched
        # cost/count, and the (block, index) a KeyError rolls back to.
        buf: list[str] = []
        buf_cost = 0
        buf_count = 0
        seg: tuple[BasicBlock, int] = (head, 0)

        def commit(extra_cost: int = 0, extra_count: int = 0,
                   tail: tuple[str, ...] = ()) -> None:
            """Charge the buffered pure run plus the op that ends it.

            Register writes inside the ``try`` are idempotent and
            nothing is charged until every fetch succeeded, so a
            KeyError rolls back to the segment start and the replay
            (per-block tier) observes exactly the reference state.
            """
            nonlocal buf, buf_cost, buf_count
            stmts = buf + list(tail)
            if stmts:
                seg_block, seg_index = seg
                w(2, "try:")
                for stmt in stmts:
                    w(3, stmt)
                w(2, "except KeyError:")
                w(3, f"_sync(interp, frame, n, {seg_index}, "
                     f"{self._bind(seg_block, 'B')})")
                w(3, "return prog")
            w(2, f"machine.cycles += {buf_cost + extra_cost}")
            w(2, f"n += {buf_count + extra_count}")
            w(2, "prog = 1")
            buf = []
            buf_cost = 0
            buf_count = 0

        last_bi = len(chain) - 1
        for bi, block in enumerate(chain):
            self._cur_block = block
            insts = block.instructions
            if not insts:
                raise _Unfusible(f"empty block {block.name}")
            last_i = len(insts) - 1
            for i, inst in enumerate(insts):
                cost = _inst_cost(inst)
                if i == last_i:
                    if bi < last_bi:
                        # Mid-chain jump: pure glue — its cost and
                        # count fold into the ongoing pure run; the
                        # next block's statements simply follow.
                        if not isinstance(inst, Jump):
                            raise _Unfusible(
                                f"mid-chain terminator {inst.opcode}")
                        buf_cost += cost
                        buf_count += 1
                        continue
                    self._emit_latch(w, commit, inst, cost, head_name)
                    continue
                e = self._emit(i, inst)
                if isinstance(inst, (Load, Store)):
                    # Sync point: commit the pure run + this access,
                    # run the block compiler's exact memory body, then
                    # suspend if the access pended an IRQ or armed
                    # SysTick (the only ways either can change inside
                    # an iteration).
                    commit(extra_cost=cost, extra_count=1)
                    if e.guarded:
                        w(2, "try:")
                        for stmt in e.fetch:
                            w(3, stmt)
                        w(2, "except KeyError:")
                        w(3, f"_undef({self._where(i)}, "
                             f"{self._bind(inst, 'I')})")
                    for stmt in e.body:
                        w(2, stmt)
                    w(2, "if pending or machine._systick_armed:")
                    for stmt in self._flush(i + 1):
                        w(3, stmt)
                    w(3, "return 1")
                    seg = (block, i + 1)
                elif isinstance(inst, Alloca):
                    # Side-effecting (moves interp.sp) but cannot pend
                    # IRQs or arm SysTick: a sync point with no
                    # suspension check.
                    commit(extra_cost=cost, extra_count=1)
                    for stmt in e.body:
                        w(2, stmt)
                    seg = (block, i + 1)
                elif e.pure and not e.transfers:
                    buf.extend(e.fetch + e.body)
                    buf_cost += cost
                    buf_count += 1
                else:
                    raise _Unfusible(f"unfusible {inst.opcode} "
                                     f"in {block.name}")

        source = "\n".join(lines) + "\n"
        self.ns.update(static_bindings())
        source, code = _block_code(
            source, f"<trace @{self.fname}:{head.name}x{len(chain)}>")
        exec(code, self.ns)
        fn = self.ns["__trace"]
        fn.__repro_source__ = source
        fn.__repro_chain__ = tuple(chain)
        return fn

    def _emit_latch(self, w, commit, inst, cost: int,
                    head_name: str) -> None:
        """The chain's final terminator: loop back or leave."""
        if isinstance(inst, Jump):
            # _detect_chain only ends a chain on a jump when it
            # targets the head: unconditionally continue.
            commit(extra_cost=cost, extra_count=1)
            w(2, "continue")
            return
        if not isinstance(inst, Br):
            raise _Unfusible(f"latch {inst.opcode}")
        cond_op = inst.operands[0]
        then_name = self._bind(inst.then_block, "B")
        else_name = self._bind(inst.else_block, "B")
        if isinstance(cond_op, Constant):
            folded = cond_op.value & cond_op.type.mask
            tail = (f"__b = {then_name if folded else else_name}",)
        else:
            cond, _guarded = self._operand(cond_op)
            tail = (f"__b = {then_name} if ({cond}) else {else_name}",)
        commit(extra_cost=cost, extra_count=1, tail=tail)
        w(2, f"if __b is {head_name}:")
        w(3, "continue")
        w(2, "interp.instructions_executed = n")
        w(2, "frame.block = __b")
        w(2, "frame.index = 0")
        w(2, "return 1")


def compile_trace(block: BasicBlock) -> Optional[Callable]:
    """Compile the loop trace anchored at ``block`` and cache it.

    Returns the fused closure, or ``None`` (also cached, on
    ``block._trace``) when ``block`` does not anchor a fusible loop —
    the interpreter then permanently runs it on the per-block tier.
    Never raises: like ``compile_block``, failure degrades, it does
    not kill the run.
    """
    try:
        chain = _detect_chain(block)
        if chain is not None and any(map(wait_loop, chain)):
            chain = None  # the header's own fast-forward runs it
        fn = _TraceCompiler(chain).compile() if chain is not None else None
    except Exception:
        fn = None
    block._trace = fn
    return fn


__all__ = [
    "MAX_TRACE_BLOCKS",
    "MAX_TRACE_INSTS",
    "TRACEFUSE_OFF_VALUES",
    "TRACEFUSE_ON_VALUES",
    "TRACE_THRESHOLD",
    "compile_trace",
    "trace_fuse_enabled",
]
