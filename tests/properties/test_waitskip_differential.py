"""Differential suite for the device-wait fast-forward.

The compiled tier charges idle MMIO poll iterations in one step
(``Interpreter._wait_skip``); the single-step reference
(``block_compile=False``) executes every one of them.  Both must agree
on everything simulated — the halt code or the terminal fault (type and
message), ``machine.cycles``, ``instructions_executed``, every
``MachineStats`` field and the runtime's switch and micro-emulation
counts — on the paper's I/O-bound apps, PinLock and TCP-Echo, as
vanilla and OPEC builds on every enforcement backend, on TCP-Echo as
ACES1/2/3 builds (ACES2 and ACES3 poll ``ETH_Frames_Waiting`` across a
compartment switch, which the ACES runtime vouches for), and at every
edge where a skip must stop short or not happen at all:

(a) seeded instruction budgets that run out mid-wait;
(b) UART input starvation, ending in the ``_POLL_LIMIT`` HardFault;
(c) SysTick firing mid-wait;
(d) an OPEC operation whose UART poll MemManage-faults after a
    peripheral-region swap and retries;
(e) an unprivileged poll of a PPB register (BusFault emulation);
(f) a batch-runner lane against its solo run;
(g) function observers: the cycle profiler sees every poll call, and
    the task tracer keeps the skip only where a skipped call of the
    accessor would record nothing;
(h) a poll across a domain switch: a runtime that refuses (OPEC), a
    flight recorder logging every switch, and an iteration that
    charged more than the vouched pair (an IRQ handler ran inside it,
    or the runtime's pair cost one cycle more than it vouched).
"""

import functools
import random

import pytest

import repro.ir as ir
from repro import build_opec, build_vanilla
from repro.apps import pinlock, tcp_echo
from repro.baselines import build_aces
from repro.eval.profiler import CycleProfiler
from repro.eval.tracing import trace_tasks
from repro.eval.workloads import build_app
from repro.hw import stm32f4_discovery
from repro.hw.backend import KNOWN_BACKENDS
from repro.hw.exceptions import MachineError
from repro.hw.peripherals import UART, RegisterFile, basic
from repro.interp import BatchRunner, Interpreter, RuntimeHooks
from repro.interp.blockcompile import wait_loop
from repro.interp.costs import INSTRUCTION_COSTS
from repro.ir import I32, VOID
from repro.obs.events import SVC_ENTER
from repro.obs.recorder import FlightRecorder
from repro.partition import OperationSpec
from repro.pipeline import default_hooks, prepare_machine

FLAVOURS = ("vanilla", "opec")
APPS = {
    "PinLock": lambda: pinlock.build(rounds=3),
    "TCP-Echo": lambda: tcp_echo.build(valid=2, invalid=3),
}
ACES_STRATEGIES = ("ACES1", "ACES2", "ACES3")
#: The strategies that put TCP-Echo's ``Rx_Task`` and its accessor
#: ``ETH_Frames_Waiting`` in different compartments: every poll
#: switches, so every skip of them replays vouched switch pairs.
SWITCHED_POLLS = ("ACES2", "ACES3")
APP_BUILDS = ([(name, flavour) for name in APPS for flavour in FLAVOURS]
              + [("TCP-Echo", strategy) for strategy in ACES_STRATEGIES])
BUILDS = [(name, flavour, backend) for name, flavour in APP_BUILDS
          for backend in KNOWN_BACKENDS]
BUDGETS_PER_BUILD = 12
#: Where a poll iteration executes: a budget that runs out in one of
#: these functions ran out mid-wait.
WAIT_FUNCTIONS = ("UART_Read_Byte", "ETH_Frames_Waiting", "Rx_Task")

BOARD = stm32f4_discovery()
USART2 = BOARD.peripheral("USART2").base
RXNE = 1 << 5


@functools.cache
def _app(name):
    return APPS[name]()


def _build(module, flavour, specs, board=BOARD):
    if flavour == "vanilla":
        return build_vanilla(module, board)
    if flavour in ACES_STRATEGIES:
        return build_aces(module, board, flavour).image
    return build_opec(module, board, specs).image


@functools.cache
def _image(name, flavour):
    app = _app(name)
    return _build(app.module, flavour, app.specs, app.board)


def _observe(image, setup, backend, block_compile,
             max_instructions=200_000_000, runtime=None, recorder=None):
    """One run to halt or terminal fault: (observables, interpreter).
    ``runtime`` builds the hooks (default: the image's own runtime)."""
    machine = prepare_machine(image, setup=setup, backend=backend,
                              recorder=recorder)
    hooks = (runtime or default_hooks)(machine, image)
    interp = Interpreter(machine, image, hooks,
                         max_instructions=max_instructions,
                         block_compile=block_compile)
    try:
        outcome = ("halt", interp.run())
    except MachineError as error:
        outcome = (type(error).__name__, str(error))
    return {
        "outcome": outcome,
        "cycles": machine.cycles,
        "instructions": interp.instructions_executed,
        "stats": machine.stats.as_dict(),
        "runtime": _runtime_counts(interp.hooks),
    }, interp


def _runtime_counts(hooks):
    """The runtime's own switch and micro-emulation counts (None where
    a runtime keeps no such count)."""
    return (getattr(hooks, "switch_count", None),
            getattr(hooks, "micro_emulations", None))


def _differential(image, setup, backend, **kwargs):
    """Compiled vs single-step: (observables, compiled interpreter)."""
    compiled, interp = _observe(image, setup, backend, True, **kwargs)
    reference, _ = _observe(image, setup, backend, False, **kwargs)
    assert compiled == reference
    return compiled, interp


def _skips(interp) -> int:
    return interp.compile_metrics.counter("waitskip.skips").value


@pytest.mark.parametrize("name,flavour,backend", BUILDS)
def test_full_run_identical(name, flavour, backend):
    """Under ACES2 and ACES3 every ``ETH_Frames_Waiting`` poll switches
    compartments, and a skip charges the backend's switch cost
    (60/84/16 cycles on mpu/pmp/overlay) twice per skipped pair."""
    app = _app(name)
    observed, interp = _differential(_image(name, flavour), app.setup,
                                     backend)
    assert observed["outcome"][0] == "halt"
    assert _skips(interp) > 0
    if flavour in SWITCHED_POLLS:
        waits = interp.compile_metrics.counter("waitskip.iterations").value
        assert observed["runtime"][0] > waits > 0


@pytest.mark.parametrize("name,flavour", APP_BUILDS)
def test_budget_runs_out_mid_wait(name, flavour):
    """(a) The skip stops where the budget leaves no whole iteration;
    the real iteration then trips it on the same instruction — also in
    the accessor, past a switch a skip would have replayed.  The
    budgets take turns over the backends."""
    app = _app(name)
    image = _image(name, flavour)
    totals = {backend: _observe(image, app.setup, backend, True)[0][
        "instructions"] for backend in KNOWN_BACKENDS}
    rng = random.Random(f"{name}:{flavour}")
    mid_wait = 0
    for i in range(BUDGETS_PER_BUILD):
        backend = KNOWN_BACKENDS[i % len(KNOWN_BACKENDS)]
        budget = rng.randrange(1, totals[backend])
        observed, _ = _differential(image, app.setup, backend,
                                    max_instructions=budget)
        kind, message = observed["outcome"]
        assert kind == "ExecutionLimitExceeded"
        assert observed["instructions"] == budget + 1
        mid_wait += message.endswith(WAIT_FUNCTIONS)
    assert mid_wait >= BUDGETS_PER_BUILD // 2


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_input_starvation_hits_poll_limit(monkeypatch, flavour, backend):
    """(b) Polls of an empty RX queue count toward the HardFault, so the
    device offers no horizon and every one of them runs for real."""
    monkeypatch.setattr(basic, "_POLL_LIMIT", 5_000)
    app = _app("PinLock")

    def starved(machine):
        app.setup(machine)
        queue = machine.device("USART2").rx_queue
        while len(queue) > 6:  # one PIN, then half a lock command
            queue.pop()

    observed, interp = _differential(_image("PinLock", flavour), starved,
                                     backend)
    kind, message = observed["outcome"]
    assert kind == "HardFault" and "polled forever" in message
    assert _skips(interp) > 0  # the bytes that did arrive


def _uart_ticks_module(*, call: bool, nbytes: int, reload: int):
    """Read ``nbytes`` through a UART wait loop (inline, or polling an
    accessor function) while SysTick fires every ``reload + 1`` cycles;
    halts with ``ticks * 4096 + sum(bytes)``."""
    module = ir.Module("uartticks")
    ticks = module.add_global("ticks", I32, 0, source_file="tick.c")
    _h, b = ir.define(module, "SysTick_Handler", VOID, [], irq_number=15,
                      source_file="tick.c")
    b.store(b.add(b.load(ticks), 1), ticks)
    b.ret_void()
    status, b = ir.define(module, "uart_status", I32, [],
                          source_file="uart.c")
    b.ret(b.and_(b.load(b.mmio(USART2)), RXNE))
    _m, b = ir.define(module, "main", I32, [], source_file="main.c")
    total = b.alloca(I32)
    b.store(0, total)
    b.store(reload, b.mmio(0xE000E014))  # RVR
    b.store(7, b.mmio(0xE000E010))       # CSR: ENABLE | TICKINT
    with b.for_range(0, nbytes):
        if call:
            cond = lambda: b.icmp("eq", b.call(status), 0)  # noqa: E731
        else:
            cond = lambda: b.icmp(  # noqa: E731
                "eq", b.and_(b.load(b.mmio(USART2)), RXNE), 0)
        with b.while_loop(cond):
            pass
        byte = b.load(b.mmio(USART2 + UART.DR))
        b.store(b.add(b.load(total), byte), total)
    b.halt(b.add(b.mul(b.load(ticks), 4096), b.load(total)))
    return module


@pytest.mark.parametrize("call", [False, True], ids=["inline", "call"])
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_systick_fires_mid_wait(call, backend):
    """(c) A skip never reaches the next tick: the real iteration fires
    it, the handler runs, and the wait resumes with a fresh skip."""
    data = b"wait"

    def setup(machine):
        machine.attach_device("USART2", UART()).feed(data)

    image = build_vanilla(_uart_ticks_module(call=call, nbytes=len(data),
                                             reload=2_998), BOARD)
    observed, interp = _differential(image, setup, backend)
    code = observed["outcome"][1]
    assert code % 4096 == sum(data)
    assert code // 4096 > 2 * len(data)  # several ticks per byte wait
    assert _skips(interp) > code // 4096  # every tick split a wait


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_systick_fires_mid_switched_wait(backend):
    """(c) As above as an ACES2 build, which gives ``uart.c`` a
    compartment of its own (ACES1 and ACES3 put it in ``main``'s):
    ticks split waits whose every poll switches compartments, and the
    iteration a tick lands in charges its handler on top of the pair,
    so it runs for real."""
    data = b"wait"

    def setup(machine):
        machine.attach_device("USART2", UART()).feed(data)

    module = _uart_ticks_module(call=True, nbytes=len(data), reload=2_998)
    observed, interp = _differential(_build(module, "ACES2", []), setup,
                                     backend)
    code = observed["outcome"][1]
    assert code % 4096 == sum(data)
    assert code // 4096 > 2 * len(data)
    assert _skips(interp) > code // 4096
    assert observed["runtime"][0] > _skips(interp)


def _drain_wait_module(*, call: bool, reload: int):
    """``while (SR & RXNE);`` — main waits for the SysTick handler to
    drain the received byte, so the handler can change the device
    between the loop's read and its branch; halts with the bytes
    drained."""
    module = ir.Module("drainwait")
    drained = module.add_global("drained", I32, 0)
    _h, b = ir.define(module, "SysTick_Handler", VOID, [], irq_number=15)
    b.load(b.mmio(USART2 + UART.DR))
    b.store(b.add(b.load(drained), 1), drained)
    b.ret_void()
    status, b = ir.define(module, "uart_status", I32, [])
    b.ret(b.and_(b.load(b.mmio(USART2)), RXNE))
    _m, b = ir.define(module, "main", I32, [])
    b.store(reload, b.mmio(0xE000E014))
    b.store(7, b.mmio(0xE000E010))
    if call:
        cond = lambda: b.icmp("ne", b.call(status), 0)  # noqa: E731
    else:
        cond = lambda: b.icmp(  # noqa: E731
            "ne", b.and_(b.load(b.mmio(USART2)), RXNE), 0)
    with b.while_loop(cond):
        pass
    b.halt(b.load(drained))
    return module


@pytest.mark.parametrize("call", [False, True], ids=["inline", "call"])
def test_irq_between_read_and_branch(call):
    """An iteration whose read an IRQ handler outdated before the branch
    must not skip: the branch acted on a value the device no longer
    returns.  Sixteen tick periods put the tick at every offset of the
    iteration."""
    def setup(machine):
        machine.attach_device("USART2", UART()).feed(b"ab")

    for reload in range(100, 116):
        image = build_vanilla(_drain_wait_module(call=call, reload=reload),
                              BOARD)
        observed, _ = _differential(image, setup, "mpu")
        assert observed["outcome"] == ("halt", 1)


def test_function_observers_see_every_poll_call():
    """Enter/exit observers that count calls (the cycle profiler) are
    called for each call of a polled accessor, so the call shape never
    skips while one is installed."""
    app = _app("TCP-Echo")
    image = _image("TCP-Echo", "vanilla")
    profiles = []
    for block_compile in (True, False):
        machine = prepare_machine(image, setup=app.setup, backend="mpu")
        interp = Interpreter(machine, image, block_compile=block_compile)
        profiler = CycleProfiler(machine)
        profiler.install(interp)
        profiles.append(profiler.finish(interp.run()).functions)
    assert profiles[0] == profiles[1]
    assert profiles[0]["ETH_Frames_Waiting"].calls > 1_000


def _traced(monkeypatch, image, entries, setup, block_compile):
    """One ``trace_tasks`` run in the given tier: (observables incl. the
    task trace, interpreter)."""
    monkeypatch.setenv("REPRO_BLOCKCOMPILE", "on" if block_compile else "off")
    trace, result = trace_tasks(image, entries, setup=setup)
    machine = result.machine
    return {
        "outcome": ("halt", result.halt_code),
        "cycles": machine.cycles,
        "instructions": result.interpreter.instructions_executed,
        "stats": machine.stats.as_dict(),
        "executed": trace.executed,
        "invocations": trace.invocations,
    }, result.interpreter


def _traced_differential(monkeypatch, image, entries, setup):
    compiled, interp = _traced(monkeypatch, image, entries, setup, True)
    reference, _ = _traced(monkeypatch, image, entries, setup, False)
    assert compiled == reference
    return compiled, interp


def test_task_tracer_keeps_the_fast_forward(monkeypatch):
    """(g) Every ``ETH_Frames_Waiting`` poll runs inside a task window,
    where one more call adds nothing to the trace, so the Figure 11
    trace of TCP-Echo skips like an untraced run and still records
    exactly what single-step records."""
    app = build_app("TCP-Echo", profile="quick")
    image = build_vanilla(app.module, app.board)
    entries = [spec.entry for spec in app.specs]
    observed, interp = _traced_differential(monkeypatch, image, entries,
                                            app.setup)
    assert observed["outcome"] == ("halt", 5)
    assert "ETH_Frames_Waiting" in set().union(*observed["executed"].values())
    assert _skips(interp) > 0


def _task_entry_poll_module(address: int, *, in_window: bool):
    """``main`` polls ``flag_status``, itself a task entry, until the
    flag reads 1 — outside any window, so every call opens one.  With
    ``in_window``, ``Poll_Task`` then polls the same accessor inside
    its own window until the flag reads 2."""
    module = ir.Module("taskpoll")
    status, b = ir.define(module, "flag_status", I32, [])
    b.ret(b.load(b.mmio(address)))
    task, b = ir.define(module, "Poll_Task", VOID, [])
    with b.while_loop(lambda: b.icmp("eq", b.call(status), 1)):
        pass
    b.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    with b.while_loop(lambda: b.icmp("eq", b.call(status), 0)):
        pass
    if in_window:
        b.call(task)
    b.halt(0)
    return module


@pytest.mark.parametrize("in_window", [False, True],
                         ids=["outside", "inside"])
def test_task_entry_accessor_skips_only_inside_a_window(monkeypatch,
                                                         in_window):
    """(g) A skipped call of a task entry outside any window would have
    opened a window and counted an invocation, so the tracer refuses
    the skip there; inside another task's window the same accessor
    skips and the trace is unchanged."""
    def setup(machine):
        machine.attach_device("USART2", PendingFlag(40_000, 80_000))

    module = _task_entry_poll_module(USART2, in_window=in_window)
    observed, interp = _traced_differential(
        monkeypatch, build_vanilla(module, BOARD),
        ["flag_status", "Poll_Task"], setup)
    assert observed["outcome"] == ("halt", 0)
    assert observed["invocations"]["flag_status"] > 100
    if in_window:
        assert observed["invocations"]["Poll_Task"] == 1
        assert observed["executed"]["Poll_Task"] == {"Poll_Task",
                                                     "flag_status"}
        assert _skips(interp) > 0
    else:
        assert _skips(interp) == 0


def _virtualised_poll_module(rounds: int):
    """An operation touching five peripheral windows and then polling
    USART2 each round — more windows than the three reserved MPU
    regions, so the UART window is evicted before every poll."""
    module = ir.Module("virtpoll")
    total = module.add_global("total", I32, 0, source_file="poll.c")
    _t, b = ir.define(module, "Poll_Task", VOID, [], source_file="poll.c")
    with b.for_range(0, rounds):
        for name in ("TIM2", "SDIO", "RCC", "DMA1", "EXTI"):
            b.store(1, b.mmio(BOARD.peripheral(name).base))
        with b.while_loop(lambda: b.icmp(
                "eq", b.and_(b.load(b.mmio(USART2)), RXNE), 0)):
            pass
        byte = b.load(b.mmio(USART2 + UART.DR))
        b.store(b.add(b.load(total), byte), total)
    b.ret_void()
    _m, b = ir.define(module, "main", I32, [], source_file="main.c")
    b.call(module.get_function("Poll_Task"))
    b.halt(b.load(total))
    return module


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_region_swap_fault_before_poll(backend):
    """(d) The first poll after a swap faults and retries for real; only
    the iterations after it, with the window mapped, are skipped."""
    data = b"opec"

    def setup(machine):
        for name in ("TIM2", "SDIO", "RCC", "DMA1", "EXTI"):
            machine.attach_device(name, RegisterFile())
        machine.attach_device("USART2", UART()).feed(data)

    image = _build(_virtualised_poll_module(len(data)), "opec",
                   [OperationSpec("Poll_Task")])
    observed, interp = _differential(image, setup, backend)
    assert observed["outcome"] == ("halt", sum(data))
    assert observed["stats"]["peripheral_region_switches"] > 0
    assert _skips(interp) > 0


class PendingFlag:
    """A status register that reads how many of the ascending cycle
    stamps ``at`` have passed: 0 until cycle 40,000 by default, then 1.

    Time alone decides and reads have no side effect, so it honestly
    offers the fast-forward contract: only the fault guards (or a
    function observer) can keep a poll of it from skipping.
    """

    def __init__(self, *at: int):
        self.machine = None
        self.at = at or (40_000,)

    def mmio_read(self, offset: int, size: int) -> int:
        return sum(self.machine.cycles >= stamp for stamp in self.at)

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        pass

    def next_change_cycle(self, offset: int):
        return next((stamp for stamp in self.at
                     if self.machine.cycles < stamp), None)


class EmulatingRuntime(RuntimeHooks):
    """Unprivileged thread mode whose fault handlers perform every
    denied read themselves, like ACES' micro-emulator: each poll faults
    and the enforcement configuration never changes."""

    def __init__(self, enforce: bool):
        self.enforce = enforce

    def on_reset(self, interp):
        interp.machine.enforcement.enabled = self.enforce
        interp.machine.drop_privilege()

    def handle_memmanage(self, interp, fault):
        return ("emulated", interp.machine.read_direct(fault.address,
                                                       fault.size))

    def handle_busfault(self, interp, fault):
        return interp.machine.read_direct(fault.address, fault.size)


def _flag_poll_module(address: int, *, call: bool = False):
    """``Poll_Task`` spins until the flag at ``address`` reads 1,
    inline or through the accessor ``flag_status``."""
    module = ir.Module("flagpoll")
    status, b = ir.define(module, "flag_status", I32, [],
                          source_file="flag.c")
    b.ret(b.load(b.mmio(address)))
    _t, b = ir.define(module, "Poll_Task", VOID, [], source_file="poll.c")
    read = ((lambda: b.call(status)) if call
            else (lambda: b.load(b.mmio(address))))
    with b.while_loop(lambda: b.icmp("eq", read(), 0)):
        pass
    b.ret_void()
    _m, b = ir.define(module, "main", I32, [], source_file="main.c")
    b.call(module.get_function("Poll_Task"))
    b.halt(0)
    return module


NVIC_ISPR = BOARD.peripheral("NVIC").base + 0x100


@pytest.mark.parametrize("runtime", ["privileged", "opec", "mpu-off"])
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_unprivileged_ppb_poll_never_skips(runtime, backend):
    """(e) Privileged polls of a PPB flag skip; unprivileged ones
    BusFault into emulation every time and must all run — as an OPEC
    operation (core-peripheral emulation) and with enforcement off,
    where the PPB rule alone traps them."""
    def setup(machine):
        machine.attach_device("NVIC", PendingFlag())

    image = _build(_flag_poll_module(NVIC_ISPR),
                   "opec" if runtime == "opec" else "vanilla",
                   [OperationSpec("Poll_Task")])
    hooks = ((lambda machine, image: EmulatingRuntime(enforce=False))
             if runtime == "mpu-off" else None)
    observed, interp = _differential(image, setup, backend, runtime=hooks)
    assert observed["outcome"] == ("halt", 0)
    if runtime == "privileged":
        assert _skips(interp) > 0
    else:
        assert observed["stats"]["bus_faults"] > 100
        assert _skips(interp) == 0


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_denied_poll_served_by_emulation_never_skips(backend):
    """A poll the backend denies but the fault handler answers (no
    region is ever mapped) faults every time: no skip."""
    def setup(machine):
        machine.attach_device("USART2", PendingFlag())

    image = _build(_flag_poll_module(USART2), "vanilla", [])
    observed, interp = _differential(
        image, setup, backend,
        runtime=lambda machine, image: EmulatingRuntime(enforce=True))
    assert observed["outcome"] == ("halt", 0)
    assert observed["stats"]["memmanage_faults"] > 100
    assert _skips(interp) == 0


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_polling_a_switch_point_never_skips(backend):
    """A polled accessor that is itself an OPEC operation entry switches
    domains on every call; the switch runs for real each time."""
    def setup(machine):
        machine.attach_device("USART2", PendingFlag())

    image = _build(_flag_poll_module(USART2, call=True), "opec",
                   [OperationSpec("Poll_Task"), OperationSpec("flag_status")])
    observed, interp = _differential(image, setup, backend)
    assert observed["outcome"] == ("halt", 0)
    assert observed["stats"]["svc_calls"] > 100
    assert _skips(interp) == 0


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_recorder_keeps_every_switch(backend):
    """(h) A flight recorder logs an SVC enter and return event per
    switch, so with one attached the ACES2 poll never skips and the
    event stream equals single-step's."""
    app = _app("TCP-Echo")
    image = _image("TCP-Echo", "ACES2")
    runs = []
    for block_compile in (True, False):
        recorder = FlightRecorder()
        observed, interp = _observe(image, app.setup, backend,
                                    block_compile, recorder=recorder)
        events = [(e.seq, e.ts, e.ph, e.kind, e.name, e.domain, e.args)
                  for e in recorder.events()]
        runs.append((observed, events, recorder.dropped))
        if block_compile:
            assert _skips(interp) == 0
    assert runs[0] == runs[1]
    observed, events, dropped = runs[0]
    assert observed["outcome"][0] == "halt" and dropped == 0
    assert sum(e[3] == SVC_ENTER for e in events) \
        == observed["runtime"][0] > 1_000


class SwitchingRuntime(RuntimeHooks):
    """Every call of ``accessor`` switches domains at ``cost`` cycles
    each way, and the runtime vouches for a pair at ``2 * cost``;
    ``surcharge`` extra cycles on each return make that a lie."""

    def __init__(self, accessor: str, cost: int = 40, surcharge: int = 0):
        self.accessor = accessor
        self.cost = cost
        self.surcharge = surcharge
        self.switch_count = 0

    def is_switch_point(self, interp, callee):
        return callee.name == self.accessor

    def before_call(self, interp, callee, args):
        interp.machine.consume(self.cost)
        self.switch_count += 1
        return args

    def after_return(self, interp, callee):
        interp.machine.consume(self.cost + self.surcharge)

    def switch_pair_cycles(self, interp, callee):
        return 2 * self.cost

    def skip_switch_pairs(self, interp, callee, k):
        self.switch_count += k


@pytest.mark.parametrize("surcharge", [0, 1],
                         ids=["vouched", "one-cycle-more"])
@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_switched_poll_skips_only_the_vouched_pair(backend, surcharge):
    """(h) A switched iteration skips only when it charged exactly both
    SVCs plus the vouched pair; one cycle more and every poll runs."""
    def setup(machine):
        machine.attach_device("USART2", PendingFlag())

    image = _build(_flag_poll_module(USART2, call=True), "vanilla", [])
    observed, interp = _differential(
        image, setup, backend,
        runtime=lambda machine, image: SwitchingRuntime(
            "flag_status", surcharge=surcharge))
    assert observed["outcome"] == ("halt", 0)
    switches = observed["runtime"][0]
    assert switches > 100
    assert observed["stats"]["svc_calls"] == 2 * switches
    if surcharge:
        assert _skips(interp) == 0
    else:
        assert _skips(interp) > 0


class Latch:
    """A register that reads back its last write: only a store changes
    it, so it offers a horizon no time reaches and leaves a handler's
    store to the fast-forward's guards."""

    def __init__(self):
        self.machine = None
        self.value = 0

    def mmio_read(self, offset: int, size: int) -> int:
        return self.value

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        self.value = value

    def next_change_cycle(self, offset: int):
        return 1 << 62


def _latch_wait_module(address: int, reload: int):
    """``while (flag_status() == 0);`` where only the SysTick handler
    sets the flag, so a tick between the read and the branch leaves the
    branch acting on a value the device no longer returns."""
    module = ir.Module("latchwait")
    _h, b = ir.define(module, "SysTick_Handler", VOID, [], irq_number=15)
    b.store(1, b.mmio(address))
    b.ret_void()
    status, b = ir.define(module, "flag_status", I32, [])
    b.ret(b.load(b.mmio(address)))
    _m, b = ir.define(module, "main", I32, [])
    b.store(reload, b.mmio(0xE000E014))
    b.store(7, b.mmio(0xE000E010))
    with b.while_loop(lambda: b.icmp("eq", b.call(status), 0)):
        pass
    b.halt(0)
    return module


def _switched_iteration(module, cost: int) -> int:
    """Cycles of one iteration of ``module``'s wait loop when the
    polled accessor switches domains at ``cost`` cycles each way."""
    wait = next(filter(None, (wait_loop(block)
                              for function in module.defined_functions()
                              for block in function.blocks)))
    return wait.cycles + 2 * INSTRUCTION_COSTS["svc"] + 2 * cost


def test_horizon_at_every_offset_of_a_switched_iteration():
    """(h) The skip never lets a switched read land at or past the
    device's horizon: the flag flips at every offset of the iteration,
    and each run matches single-step."""
    cost = 4
    module = _flag_poll_module(USART2, call=True)
    iteration = _switched_iteration(module, cost)
    image = _build(module, "vanilla", [])
    for stamp in range(40_000, 40_000 + iteration):
        def setup(machine, stamp=stamp):
            machine.attach_device("USART2", PendingFlag(stamp))

        observed, interp = _differential(
            image, setup, "mpu",
            runtime=lambda machine, image: SwitchingRuntime(
                "flag_status", cost=cost))
        assert observed["outcome"] == ("halt", 0)
        assert _skips(interp) > 0


def test_irq_inside_a_switched_iteration():
    """(h) A tick handler that sets the flag inside a switched iteration
    adds its cycles to the pair's, so that iteration never skips.  The
    tick periods step through every offset of the iteration."""
    cost = 4
    tim2 = BOARD.peripheral("TIM2").base
    iteration = _switched_iteration(_latch_wait_module(tim2, 200), cost)
    skips = 0
    for reload in range(200, 200 + iteration):
        def setup(machine):
            machine.attach_device("TIM2", Latch())

        image = build_vanilla(_latch_wait_module(tim2, reload), BOARD)
        observed, interp = _differential(
            image, setup, "mpu",
            runtime=lambda machine, image: SwitchingRuntime(
                "flag_status", cost=cost))
        assert observed["outcome"] == ("halt", 0)
        skips += _skips(interp)
    assert skips >= iteration  # each run skips up to its first tick


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_batch_lane_equals_solo(backend):
    """(f) Lanes share one image's compiled closures but each lane's
    skips see only its own machine, so every lane equals its solo
    run."""
    runner = BatchRunner(block_compile=True)
    for name, flavour in APP_BUILDS:
        runner.add(_image(name, flavour), name=f"{name}:{flavour}",
                   setup=_app(name).setup, max_instructions=200_000_000,
                   backend=backend)
    result = runner.run()
    for lane, (name, flavour) in zip(result.lanes, APP_BUILDS):
        assert lane.error is None, lane.name
        solo, _ = _observe(_image(name, flavour), _app(name).setup,
                           backend, True)
        assert {
            "outcome": ("halt", lane.halt_code),
            "cycles": lane.machine.cycles,
            "instructions": lane.interpreter.instructions_executed,
            "stats": lane.machine.stats.as_dict(),
            "runtime": _runtime_counts(lane.hooks),
        } == solo, lane.name
        assert _skips(lane.interpreter) > 0
