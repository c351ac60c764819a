"""IR interpreter: executes a linked firmware image on the machine.

The interpreter is the stand-in for the Cortex-M4 pipeline: it walks
basic blocks, keeps virtual registers per frame, maintains the stack
pointer inside simulated SRAM, charges cycles to the machine's DWT
counter, and — critically for OPEC — performs every memory access
through :class:`repro.hw.machine.Machine`, so the MPU and privilege
checks apply exactly as on hardware.

Faults raised mid-instruction are routed to the build's
:class:`~repro.interp.hooks.RuntimeHooks` at the privileged level and
the instruction is retried when the handler fixed things up — the same
fault-driven control flow the paper's monitor uses for MPU-region
virtualisation and core-peripheral emulation (§5.2).

Dispatch is table-driven: each instruction object caches its bound
handler and precomputed cycle cost in ``_hot`` on first execution, so
the per-step work is one dict-free tuple unpack instead of an
isinstance chain plus a cost lookup.  Loads and stores attempt the
machine access directly and only enter the closure-building
fault-retry loop after a fault has actually been raised; the common
path allocates nothing.  None of this changes *what* is charged — the
DWT cycle counter and every :class:`~repro.hw.machine.MachineStats`
counter stay bit-identical to the reference semantics (see DESIGN.md,
"Performance & determinism").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..hw.board import PPB_BASE as _PPB_BASE, PPB_END as _PPB_END
from ..hw.exceptions import (
    BusFault,
    HardFault,
    MachineError,
    MachineHalt,
    MemManageFault,
)
from ..hw.machine import Machine
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
    Value,
)
from ..obs.events import (
    HALT as EV_HALT,
    IRQ as EV_IRQ,
    SVC as EV_SVC,
    SVC_ENTER as EV_SVC_ENTER,
    SVC_RETURN as EV_SVC_RETURN,
)
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import attach_crash_context
from .blockcompile import (
    block_compile_enabled,
    compile_block,
    source_tally as _source_tally,
)
from .closurecache import (
    note_compiled as _cache_note_compiled,
    preload as _cache_preload,
    save as _cache_save,
)
from .costs import DEFAULT_COST, DIV_COST, INSTRUCTION_COSTS
from .hooks import RuntimeHooks
from . import tracefuse as _tracefuse
from .tracefuse import compile_trace, trace_fuse_enabled

_WORD = 0xFFFFFFFF
_MAX_FAULT_RETRIES = 16
_DIV_OPS = ("udiv", "sdiv", "urem", "srem")


class ExecutionLimitExceeded(HardFault):
    """The instruction budget ran out (firmware likely spinning)."""


def _to_signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _trunc_div(sa: int, sb: int) -> int:
    """C-style (truncating) signed division, exact by construction.

    Python's ``//`` floors; hardware ``sdiv`` truncates toward zero.
    Going through ``abs`` keeps the arithmetic pure-integer — no float
    round-trip that loses precision past 53 bits.
    """
    q = abs(sa) // abs(sb)
    return q if (sa < 0) == (sb < 0) else -q


@dataclass
class Frame:
    """One activation record."""

    function: Function
    block: BasicBlock
    index: int = 0
    regs: dict[Value, int] = field(default_factory=dict)
    sp_entry: int = 0
    switched: bool = False
    is_irq: bool = False
    call_site: Optional[Instruction] = None  # caller's call instruction


class Interpreter:
    """Executes a linked image until ``halt`` or a terminal fault."""

    def __init__(
        self,
        machine: Machine,
        image,
        hooks: Optional[RuntimeHooks] = None,
        max_instructions: int = 100_000_000,
        block_compile: Optional[bool] = None,
        trace_fuse: Optional[bool] = None,
    ):
        self.machine = machine
        self.image = image
        self.hooks = hooks or RuntimeHooks()
        self.max_instructions = max_instructions
        self.frames: list[Frame] = []
        self.sp = image.stack_top
        self.instructions_executed = 0
        self.halt_code: Optional[int] = None
        self._irq_depth = 0
        # Superinstruction execution (``None`` → REPRO_BLOCKCOMPILE,
        # default on).  Compilation activity is counted on the
        # interpreter's own registry, NOT ``machine.metrics``: the
        # machine-side snapshot must stay byte-identical with block
        # compilation on and off.
        if block_compile is None:
            block_compile = block_compile_enabled()
        self.block_compile = bool(block_compile)
        # Trace fusion rides on top of block compilation (its fallback
        # tier): ``None`` → REPRO_TRACEFUSE, default on, and forced
        # off whenever block compilation itself is off.
        if trace_fuse is None:
            trace_fuse = self.block_compile and trace_fuse_enabled()
        self.trace_fuse = self.block_compile and bool(trace_fuse)
        self._fuse_threshold = _tracefuse.TRACE_THRESHOLD
        self.compile_metrics = MetricsRegistry()
        self._n_blocks_compiled = self.compile_metrics.counter(
            "blockcompile.blocks_compiled")
        self._n_compile_errors = self.compile_metrics.counter(
            "blockcompile.compile_errors")
        # ``compile()`` calls (code-memo misses) this interpreter's
        # block and trace compiles caused, and their source length.
        self._n_sources_compiled = self.compile_metrics.counter(
            "blockcompile.sources_compiled")
        self._n_source_chars = self.compile_metrics.counter(
            "blockcompile.source_chars")
        self._n_block_entries = self.compile_metrics.counter(
            "blockcompile.block_entries")
        self._n_fallback_steps = self.compile_metrics.counter(
            "blockcompile.fallback_steps")
        self._n_traces_compiled = self.compile_metrics.counter(
            "tracefuse.traces_compiled")
        self._n_trace_rejects = self.compile_metrics.counter(
            "tracefuse.trace_rejects")
        self._n_trace_entries = self.compile_metrics.counter(
            "tracefuse.trace_entries")
        self._n_cache_blocks_loaded = self.compile_metrics.counter(
            "closurecache.blocks_loaded")
        self._n_cache_traces_loaded = self.compile_metrics.counter(
            "closurecache.traces_loaded")
        self._n_cache_saves = self.compile_metrics.counter(
            "closurecache.saves")
        # Device-wait fast-forward (``_wait_skip``): skips taken, the
        # poll iterations they charged without executing, and the cycle
        # stamp of the last polling call a call-shape wait header made.
        self._n_wait_skips = self.compile_metrics.counter("waitskip.skips")
        self._n_wait_iterations = self.compile_metrics.counter(
            "waitskip.iterations")
        self._wait_call_cycles = -1
        if self.block_compile:
            # Warm-start from the artifact store: cached closures land
            # on the shared IR blocks, so the first interpreter of a
            # module pays the (pickle) load and every later one — and
            # every batch lane — starts warm for free.
            loaded_blocks, loaded_traces = _cache_preload(image.module)
            self._n_cache_blocks_loaded.value += loaded_blocks
            self._n_cache_traces_loaded.value += loaded_traces
        # Optional function-granularity trace (GDB single-step stand-in,
        # §6.4): the evaluation harness records executed functions per task.
        self.on_function_enter: Optional[Callable[[Function], None]] = None
        self.on_function_exit: Optional[Callable[[Function], None]] = None
        # Set by an observer that can tell when one more enter/exit pair
        # of a function, right after a real pair, records nothing new:
        # the call-shape wait fast-forward then still skips polls of it.
        self.repeat_call_is_noop: Optional[Callable[[Function], bool]] = None

    # -- public API ----------------------------------------------------

    def run(self, entry: str = "main", args: tuple[int, ...] = ()) -> int:
        """Reset the system, run ``entry``, return the halt code."""
        self.start(entry, args)
        return self.resume()

    def start(self, entry: str = "main", args: tuple[int, ...] = ()) -> None:
        """Reset and stage ``entry`` without executing anything; a later
        :meth:`resume` runs it.  The batch runner builds and stages
        each lane this way when it reaches the lane, then resumes it."""
        self.hooks.on_reset(self)
        self.call_function(self.image.module.get_function(entry), list(args))

    def resume(self) -> int:
        """Execute until halt; returns the firmware's halt code."""
        machine = self.machine
        try:
            if self.block_compile:
                self._run_compiled()
            else:
                while self.frames:
                    self.step()
        except MachineHalt as halt:
            return self._finish_halt(halt.code, f"halt({halt.code})")
        except MachineError as error:
            # Terminal fault: dump the flight-recorder tail onto the
            # exception so the failure window survives the crash.
            attach_crash_context(error, machine.recorder, machine.cycles)
            raise
        # ``main`` returned without halting: treat as a clean stop.
        return self._finish_halt(0, "main-return")

    def _finish_halt(self, code: int, label: str) -> int:
        """Record the halt event and code."""
        self.halt_code = code
        machine = self.machine
        recorder = machine.recorder
        if recorder is not None:
            recorder.instant(EV_HALT, label, machine.cycles,
                             args={"code": code})
        if self.block_compile and _cache_save(self.image.module):
            self._n_cache_saves.value += 1
        return code

    def _run_compiled(self) -> None:
        """The superinstruction main loop.

        One compiled-closure call per basic block; every tricky
        boundary falls back to the unmodified :meth:`step`:

        * a pending IRQ with no handler active — ``step`` pops exactly
          one IRQ and then executes exactly one instruction, and that
          pop-one/execute-one interleaving (a masked pop still spends
          the boundary) must stay bit-exact, so the reference code
          performs it;
        * anywhere inside an IRQ window (``_irq_depth > 0``);
        * blocks the compiler rejected (``_compiled is None``).

        Compiled functions are therefore only entered with no pending
        IRQs and no active handler, and return whenever that changes.
        """
        frames = self.frames
        machine = self.machine
        pending = machine.pending_irqs
        step = self.step
        entries = self._n_block_entries
        fallbacks = self._n_fallback_steps
        trace_fuse = self.trace_fuse
        threshold = self._fuse_threshold
        trace_entries = self._n_trace_entries
        while frames:
            if (pending and self._irq_depth == 0) or self._irq_depth > 0:
                fallbacks.value += 1
                step()
                continue
            frame = frames[-1]
            block = frame.block
            # Tier 3: a hot block entered at index 0 with SysTick
            # disarmed may anchor a fused loop trace.  ``_trace`` is
            # tri-state on the IR block: an int heat counter, the
            # compiled closure, or None (rejected).  The closure
            # returns truthy when it committed progress; falsy means
            # it bailed before executing anything, so fall through to
            # the per-block tier below.
            if (trace_fuse and frame.index == 0
                    and not machine._systick_armed):
                try:
                    tr = block._trace
                except AttributeError:
                    tr = block._trace = 0
                if tr is not None:
                    if tr.__class__ is int:
                        tr += 1
                        if tr >= threshold:
                            tr = self._compile_trace(block)
                        else:
                            block._trace = tr
                            tr = None
                    if tr is not None and tr(self, frame, machine):
                        trace_entries.value += 1
                        continue
            try:
                fn = block._compiled
            except AttributeError:
                fn = self._compile(block)
            if fn is None:
                fallbacks.value += 1
                step()
                continue
            entries.value += 1
            fn(self, frame, machine, frame.index)

    def _codegen(self, compiler, block: BasicBlock):
        """Run one block or trace compiler, counting the sources it had
        to ``compile()`` (the rest came from the shared code memo)."""
        sources, chars = _source_tally
        fn = compiler(block)
        self._n_sources_compiled.value += _source_tally[0] - sources
        self._n_source_chars.value += _source_tally[1] - chars
        _cache_note_compiled(self.image.module)
        return fn

    def _compile(self, block: BasicBlock):
        """First execution of ``block``: build (or fail) its closure."""
        fn = self._codegen(compile_block, block)
        if fn is None:
            self._n_compile_errors.value += 1
        else:
            self._n_blocks_compiled.value += 1
        return fn

    def _compile_trace(self, block: BasicBlock):
        """``block`` went hot: build (or reject) its loop trace."""
        fn = self._codegen(compile_trace, block)
        if fn is None:
            self._n_trace_rejects.value += 1
        else:
            self._n_traces_compiled.value += 1
        return fn

    def _wait_skip(self, n: int, address: int, size: int, cycles: int,
                   insts: int, read_at: int, callee: Optional[Function],
                   extra: int) -> int:
        """Device-wait fast-forward; returns the new instruction count.

        Called by a compiled wait-loop header (``blockcompile.wait_loop``)
        when its branch continues the loop after a real iteration that
        ended at ``machine.cycles`` with ``n`` instructions executed;
        ``extra`` is what that iteration charged beyond its own
        instructions since the polling call (0 for the inline shape).
        Charges ``k`` further identical iterations at once — the
        discrete-event "advance to the next event" technique — with
        ``k`` the largest count such that every skipped read still
        returns the same value (it lands before the device's
        ``next_change_cycle`` horizon), no skipped charge reaches the
        next SysTick, and the instruction budget covers every skipped
        instruction.  ``machine.cycles``, ``n`` and the loads counter
        advance by exactly ``k`` times the per-iteration amounts; the
        next real iteration then observes the change, fires the tick,
        or trips the budget itself.

        Nothing is skipped with an IRQ pending, without a horizon (a
        read with a side effect, or one that depends on more than
        time), or with function enter/exit observers installed unless
        ``repeat_call_is_noop`` vouches that the skipped calls of
        ``callee`` would record nothing (the task tracer does; the cycle
        profiler, which counts calls, does not).  An unswitched
        iteration must have charged nothing extra (an IRQ handler ran
        otherwise), and its read must pass under the current state
        (fault handlers must run for real).  Polling through a domain
        switch point, the runtime must vouch for the call/return pair
        (``RuntimeHooks.switch_pair_cycles``: ACES does, the OPEC
        monitor does not), no flight recorder may be attached (it logs
        each switch), and ``extra`` must be exactly both SVC charges
        plus the vouched pair, so no handler ran; the read then ran
        under the callee's domain, fault-free, and so will every
        replay.  A switched skip charges the pair per iteration (read
        offset taken after the whole pair, which is never earlier than
        the real read), counts both SVCs, and lets the runtime count
        its ``k`` pairs.
        """
        machine = self.machine
        if machine.pending_irqs:
            return n
        switch = 0
        if callee is not None:
            if (self.on_function_enter is not None
                    or self.on_function_exit is not None):
                noop = self.repeat_call_is_noop
                if noop is None or not noop(callee):
                    return n
            if self.hooks.is_switch_point(self, callee):
                pair = self.hooks.switch_pair_cycles(self, callee)
                if pair is None or machine.recorder is not None:
                    return n
                switch = 2 * INSTRUCTION_COSTS["svc"] + pair
            if extra != switch:
                return n
        if not switch:
            privileged = machine.privileged
            if not privileged and _PPB_BASE <= address < _PPB_END:
                return n
            if not machine.enforcement.allows(address, size, privileged,
                                              False):
                return n
        region = machine.memory.find(address)
        horizon_of = getattr(getattr(region, "device", None),
                             "next_change_cycle", None)
        if horizon_of is None or address + size > region.end:
            return n
        horizon = horizon_of(address - region.base)
        if horizon is None:
            return n
        now = machine.cycles
        cycles += switch
        read_at += switch
        # Skipped read j (1-based) lands at now + (j-1)*cycles + read_at
        # (or earlier) and must come strictly before the horizon.
        k = (horizon - now - read_at + cycles - 1) // cycles
        if machine._systick_armed:
            k = min(k, (machine._systick_next - 1 - now) // cycles)
        k = min(k, (self.max_instructions - n) // insts)
        if k <= 0:
            return n
        machine.cycles = now + k * cycles
        machine._n_loads.value += k
        if switch:
            machine.stats.svc_calls += 2 * k
            self.hooks.skip_switch_pairs(self, callee, k)
        self._n_wait_skips.value += 1
        self._n_wait_iterations.value += k
        return n + k * insts

    def call_function(self, func: Function, args: list[int],
                      switched: bool = False,
                      call_site: Optional[Instruction] = None) -> None:
        """Push a new frame for ``func`` with evaluated ``args``."""
        if func.is_declaration:
            raise HardFault(f"call to undefined function @{func.name}")
        regs: dict[Value, int] = {}
        for param, value in zip(func.params, args):
            regs[param] = value & _WORD
        frame = Frame(
            function=func,
            block=func.entry_block,
            regs=regs,
            sp_entry=self.sp,
            switched=switched,
            call_site=call_site,
        )
        self.frames.append(frame)
        if self.on_function_enter is not None:
            self.on_function_enter(func)

    # -- core loop ------------------------------------------------------

    def step(self) -> None:
        machine = self.machine
        if machine.pending_irqs and self._irq_depth == 0:
            self._dispatch_irq(machine.pending_irqs.popleft())
        frame = self.frames[-1]
        instructions = frame.block.instructions
        index = frame.index
        if index >= len(instructions):
            raise HardFault(
                f"fell off block {frame.block.name} in @{frame.function.name}"
            )
        inst = instructions[index]
        self.instructions_executed += 1
        if self.instructions_executed > self.max_instructions:
            raise ExecutionLimitExceeded(
                f"instruction budget exceeded in @{frame.function.name}"
            )
        try:
            handler, cost = inst._hot
        except AttributeError:
            handler, cost = _bind_hot(inst)
        machine.consume(cost)
        handler(self, frame, inst)

    def _dispatch_irq(self, number: int) -> None:
        """Exception entry: run a handler at the privileged level.

        Handlers with no registered vector are dropped (masked).  No
        preemption nesting: one handler runs to completion.
        """
        handler = self.image.irq_handlers.get(number)
        if handler is None or handler.is_declaration:
            return
        recorder = self.machine.recorder
        if recorder is not None:
            recorder.begin(EV_IRQ, handler.name, self.machine.cycles,
                           args={"number": number})
        self.machine.consume(INSTRUCTION_COSTS["svc"])  # exception entry
        self.machine.privileged = True
        self._irq_depth += 1
        frame = Frame(
            function=handler,
            block=handler.entry_block,
            sp_entry=self.sp,
            is_irq=True,
        )
        self.frames.append(frame)
        if self.on_function_enter is not None:
            self.on_function_enter(handler)

    # -- operand evaluation --------------------------------------------

    def eval(self, frame: Frame, value: Value) -> int:
        # Virtual registers (instruction results / parameters) dominate
        # operand traffic: try the frame's register file first.
        reg = frame.regs.get(value)
        if reg is not None:
            return reg
        cls = value.__class__
        if cls is Constant:
            # Masked defensively: a transformation pass that folds a
            # constant in place may leave a negative Python int behind;
            # it must not escape into addresses or shift amounts.
            return value.value & value.type.mask
        if cls is ConstantPointer:
            return value.address
        if cls is ConstantNull:
            return 0
        if cls is GlobalVariable:
            return self.hooks.global_address(self, value) & _WORD
        if cls is Function:
            return self.image.function_address(value)
        return self._eval_slow(frame, value)

    def _eval_slow(self, frame: Frame, value: Value) -> int:
        """Subclasses and error reporting, off the hot path."""
        if isinstance(value, Constant):
            return value.value & value.type.mask
        if isinstance(value, ConstantPointer):
            return value.address
        if isinstance(value, ConstantNull):
            return 0
        if isinstance(value, GlobalVariable):
            return self.hooks.global_address(self, value) & _WORD
        if isinstance(value, Function):
            return self.image.function_address(value)
        if isinstance(value, (Parameter, Instruction)):
            raise HardFault(
                f"use of undefined value {value.short()} in "
                f"@{frame.function.name}"
            )
        raise HardFault(f"unsupported operand {value!r}")

    # -- faulting memory access with handler retry ------------------------

    def _retry_access(self, operation: Callable[[], Optional[int]],
                      fault: Exception) -> Optional[int]:
        """Consult the monitor about ``fault``, then retry ``operation``.

        Entered only after an access has actually faulted; the common
        (allowed) access path never builds the retry closure.
        """
        for _ in range(_MAX_FAULT_RETRIES):
            if isinstance(fault, MemManageFault):
                with self.machine.privileged_mode():
                    handled = self.hooks.handle_memmanage(self, fault)
                if handled is False or handled is None:
                    raise fault
                if handled is not True:
                    # ("emulated", value): the handler performed the
                    # access itself (ACES' micro-emulator, §5.2).
                    return handled[1]
            else:
                with self.machine.privileged_mode():
                    emulated = self.hooks.handle_busfault(self, fault)
                if emulated is None:
                    raise HardFault(
                        f"unhandled BusFault at 0x{fault.address:08X}"
                    )
                return emulated
            try:
                return operation()
            except (MemManageFault, BusFault) as next_fault:
                fault = next_fault
        raise HardFault("fault retry limit exceeded (handler loop)")

    # -- instruction dispatch ----------------------------------------------

    def _execute(self, frame: Frame, inst: Instruction) -> None:
        try:
            handler = inst._hot[0]
        except AttributeError:
            handler = _bind_hot(inst)[0]
        handler(self, frame, inst)

    # -- per-instruction handlers ------------------------------------------

    def _exec_alloca(self, frame: Frame, inst: Alloca) -> None:
        self.sp = (self.sp - inst._hot_size) & ~0x3
        if self.sp < self.image.stack_limit:
            raise HardFault(
                f"stack overflow in @{frame.function.name} "
                f"(sp=0x{self.sp:08X})"
            )
        frame.regs[inst] = self.sp
        frame.index += 1

    def _exec_load(self, frame: Frame, inst: Load) -> None:
        address = self.eval(frame, inst.pointer)
        size = inst._hot_size
        machine = self.machine
        try:
            value = machine.load(address, size)
        except (MemManageFault, BusFault) as fault:
            value = self._retry_access(
                lambda: machine.load(address, size), fault)
        frame.regs[inst] = value & inst._hot_mask
        frame.index += 1

    def _exec_store(self, frame: Frame, inst: Store) -> None:
        address = self.eval(frame, inst.pointer)
        value = self.eval(frame, inst.value)
        size = inst._hot_size
        machine = self.machine
        try:
            machine.store(address, size, value)
        except (MemManageFault, BusFault) as fault:
            self._retry_access(
                lambda: machine.store(address, size, value) or 0, fault)
        frame.index += 1

    def _exec_gep(self, frame: Frame, inst: GEP) -> None:
        frame.regs[inst] = self._compute_gep(frame, inst)
        frame.index += 1

    def _exec_binop(self, frame: Frame, inst: BinOp) -> None:
        frame.regs[inst] = self._compute_binop(frame, inst)
        frame.index += 1

    def _exec_icmp(self, frame: Frame, inst: ICmp) -> None:
        frame.regs[inst] = self._compute_icmp(frame, inst)
        frame.index += 1

    def _exec_cast(self, frame: Frame, inst: Cast) -> None:
        frame.regs[inst] = self._compute_cast(frame, inst)
        frame.index += 1

    def _exec_select(self, frame: Frame, inst: Select) -> None:
        cond = self.eval(frame, inst.operands[0])
        chosen = inst.operands[1] if cond else inst.operands[2]
        frame.regs[inst] = self.eval(frame, chosen)
        frame.index += 1

    def _exec_call(self, frame: Frame, inst: Call) -> None:
        self._do_call(frame, inst, inst.callee,
                      [self.eval(frame, a) for a in inst.operands])

    def _exec_icall(self, frame: Frame, inst: ICall) -> None:
        address = self.eval(frame, inst.target)
        callee = self.image.function_at(address)
        if callee is None:
            raise HardFault(f"icall to non-function address 0x{address:08X}")
        self._do_call(frame, inst,
                      callee, [self.eval(frame, a) for a in inst.args])

    def _exec_svc(self, frame: Frame, inst: SVC) -> None:
        self.machine.stats.svc_calls += 1
        recorder = self.machine.recorder
        if recorder is not None:
            recorder.instant(EV_SVC, f"svc{inst.number}",
                             self.machine.cycles,
                             args={"number": inst.number})
        handler = getattr(self.hooks, "on_svc", None)
        if handler is not None:
            with self.machine.privileged_mode():
                handler(self, inst.number, inst.payload)
        frame.index += 1

    def _exec_br(self, frame: Frame, inst: Br) -> None:
        cond = self.eval(frame, inst.operands[0])
        frame.block = inst.then_block if cond else inst.else_block
        frame.index = 0

    def _exec_jump(self, frame: Frame, inst: Jump) -> None:
        frame.block = inst.target
        frame.index = 0

    def _exec_ret(self, frame: Frame, inst: Ret) -> None:
        self._do_return(frame, inst)

    def _exec_halt(self, frame: Frame, inst: Halt) -> None:
        code = self.eval(frame, inst.operands[0])
        self.hooks.on_halt(self, code)
        raise MachineHalt(code)

    def _exec_unreachable(self, frame: Frame, inst: Unreachable) -> None:
        raise HardFault(
            f"unreachable executed in @{frame.function.name}"
        )

    def _exec_unknown(self, frame: Frame, inst: Instruction) -> None:
        raise HardFault(f"unknown instruction {inst.opcode}")

    # -- calls / returns ---------------------------------------------------

    def _do_call(self, frame: Frame, inst: Instruction,
                 callee: Function, args: list[int]) -> None:
        frame.index += 1  # resume after the call on return
        switched = self.hooks.is_switch_point(self, callee)
        if switched:
            self.machine.stats.svc_calls += 1
            self.machine.consume(INSTRUCTION_COSTS["svc"])
            recorder = self.machine.recorder
            if recorder is not None:
                recorder.instant(EV_SVC_ENTER, callee.name,
                                 self.machine.cycles)
            with self.machine.privileged_mode():
                args = self.hooks.before_call(self, callee, args)
        self.call_function(callee, args, switched=switched, call_site=inst)

    def _do_return(self, frame: Frame, inst: Ret) -> None:
        value = self.eval(frame, inst.value) if inst.value is not None else None
        self.frames.pop()
        self.sp = frame.sp_entry
        if self.on_function_exit is not None:
            self.on_function_exit(frame.function)
        if frame.is_irq:
            # Exception return: drop back to the thread privilege level.
            self._irq_depth -= 1
            self.machine.consume(INSTRUCTION_COSTS["svc"])
            self.machine.privileged = self.machine.base_privilege
            recorder = self.machine.recorder
            if recorder is not None:
                recorder.end(EV_IRQ, frame.function.name,
                             self.machine.cycles)
            return
        if frame.switched:
            self.machine.stats.svc_calls += 1
            self.machine.consume(INSTRUCTION_COSTS["svc"])
            recorder = self.machine.recorder
            if recorder is not None:
                recorder.instant(EV_SVC_RETURN, frame.function.name,
                                 self.machine.cycles)
            with self.machine.privileged_mode():
                self.hooks.after_return(self, frame.function)
        if not self.frames:
            raise MachineHalt(value or 0)
        if frame.call_site is not None and value is not None:
            self.frames[-1].regs[frame.call_site] = value & _WORD

    # -- pure computations ---------------------------------------------------

    def _compute_gep(self, frame: Frame, inst: GEP) -> int:
        address = self.eval(frame, inst.pointer)
        pointee = inst.pointer.type.pointee
        indices = inst.indices
        first = self.eval(frame, indices[0])
        stride = pointee.size
        if isinstance(pointee, ArrayType):
            stride = pointee.size
        address = (address + _to_signed(first, 32) * _pad4(stride)) & _WORD
        current = pointee
        for index in indices[1:]:
            if isinstance(current, ArrayType):
                i = _to_signed(self.eval(frame, index), 32)
                address = (address + i * current.stride) & _WORD
                current = current.element
            elif isinstance(current, StructType):
                i = self.eval(frame, index)
                address = (address + current.offset_of(i)) & _WORD
                current = current.field_type(i)
            else:
                raise HardFault("gep into non-aggregate at runtime")
        return address

    def _compute_binop(self, frame: Frame, inst: BinOp) -> int:
        a = self.eval(frame, inst.operands[0])
        b = self.eval(frame, inst.operands[1])
        bits = inst.type.bits if isinstance(inst.type, IntType) else 32
        mask = (1 << bits) - 1
        op = inst.op
        if op == "add":
            return (a + b) & mask
        if op == "sub":
            return (a - b) & mask
        if op == "mul":
            return (a * b) & mask
        if op == "udiv":
            return (a // b) & mask if b else 0
        if op == "sdiv":
            sa, sb = _to_signed(a, bits), _to_signed(b, bits)
            return (_trunc_div(sa, sb) & mask) if sb else 0
        if op == "urem":
            return (a % b) & mask if b else 0
        if op == "srem":
            sa, sb = _to_signed(a, bits), _to_signed(b, bits)
            return (sa - _trunc_div(sa, sb) * sb) & mask if sb else 0
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "shl":
            return (a << (b & 31)) & mask
        if op == "lshr":
            return (a >> (b & 31)) & mask
        if op == "ashr":
            return (_to_signed(a, bits) >> (b & 31)) & mask
        raise HardFault(f"unknown binop {op}")

    def _compute_icmp(self, frame: Frame, inst: ICmp) -> int:
        a = self.eval(frame, inst.operands[0])
        b = self.eval(frame, inst.operands[1])
        bits = (
            inst.operands[0].type.bits
            if isinstance(inst.operands[0].type, IntType)
            else 32
        )
        sa, sb = _to_signed(a, bits), _to_signed(b, bits)
        pred = inst.pred
        result = {
            "eq": a == b, "ne": a != b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
            "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb,
        }[pred]
        return 1 if result else 0

    def _compute_cast(self, frame: Frame, inst: Cast) -> int:
        value = self.eval(frame, inst.operands[0])
        kind = inst.kind
        if kind in ("zext", "ptrtoint", "inttoptr", "bitcast"):
            if isinstance(inst.type, IntType):
                return value & inst.type.mask
            return value & _WORD
        if kind == "trunc":
            return value & inst.type.mask
        if kind == "sext":
            src = inst.operands[0].type
            bits = src.bits if isinstance(src, IntType) else 32
            signed = _to_signed(value, bits)
            mask = inst.type.mask if isinstance(inst.type, IntType) else _WORD
            return signed & mask
        raise HardFault(f"unknown cast {kind}")


def _pad4(size: int) -> int:
    """Pointer strides for scalars stay exact; sub-word types keep size."""
    return size


# -- dispatch table ---------------------------------------------------------
#
# One handler per instruction class.  ``_bind_hot`` resolves the handler
# and the instruction's cycle cost once and caches both on the
# instruction object (``_hot``); images are immutable after linking, so
# the binding is valid for the instruction's lifetime and shared by
# every interpreter executing the image.

_HANDLERS: dict[type, Callable] = {
    Alloca: Interpreter._exec_alloca,
    Load: Interpreter._exec_load,
    Store: Interpreter._exec_store,
    GEP: Interpreter._exec_gep,
    BinOp: Interpreter._exec_binop,
    ICmp: Interpreter._exec_icmp,
    Cast: Interpreter._exec_cast,
    Select: Interpreter._exec_select,
    Call: Interpreter._exec_call,
    ICall: Interpreter._exec_icall,
    SVC: Interpreter._exec_svc,
    Br: Interpreter._exec_br,
    Jump: Interpreter._exec_jump,
    Ret: Interpreter._exec_ret,
    Halt: Interpreter._exec_halt,
    Unreachable: Interpreter._exec_unreachable,
}


def _bind_hot(inst: Instruction) -> tuple:
    """Resolve and cache ``(handler, cycle_cost)`` for ``inst``."""
    handler = None
    for cls in type(inst).__mro__:
        handler = _HANDLERS.get(cls)
        if handler is not None:
            break
    if handler is None:
        handler = Interpreter._exec_unknown
    cost = INSTRUCTION_COSTS.get(inst.opcode, DEFAULT_COST)
    if isinstance(inst, BinOp) and inst.op in _DIV_OPS:
        cost = DIV_COST
    if isinstance(inst, (Load, Alloca)):
        size = inst.type.size if isinstance(inst, Load) else inst.byte_size
        inst._hot_size = size
        if isinstance(inst, Load):
            inst._hot_mask = (1 << (size * 8)) - 1
    elif isinstance(inst, Store):
        inst._hot_size = inst.value.type.size
    hot = (handler, cost)
    inst._hot = hot
    return hot
