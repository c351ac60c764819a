"""PinLock: the paper's case-study smart lock (Listing 1, §6.1).

Six operations as in the paper: the default ``main`` operation
(including ``System_Init``), ``Uart_Init``, ``Key_Init``,
``Init_Lock``, ``Unlock_Task``, and ``Lock_Task``.  ``PinRxBuffer`` is
shared between the two task operations; ``KEY`` between ``Key_Init``
and ``Unlock_Task`` — the sharing pattern behind the partition-time
over-privilege discussion.

The firmware profile stops after ``rounds`` successful unlocks (each
preceded by one rejected wrong PIN, matching "correct and wrong pin
code sent alternately") and the same number of locks.
"""

from __future__ import annotations

from ..hw.board import stm32f4_discovery
from ..hw.machine import Machine
from ..hw.peripherals import GPIO, RCC, UART
from ..ir import I8, I32, Module, VOID, array, define
from ..partition.operations import OperationSpec
from .base import Application
from .hal.crypto import add_crypto
from .hal.libc import add_libc
from .hal.system import add_system_hal
from .hal.uart import add_uart_hal

CORRECT_PIN = b"1234"
WRONG_PIN = b"9999"
LOCK_COMMAND = b"0000"
LOCK_PIN_NUMBER = 12  # the board LED standing in for the bolt actuator


def build(rounds: int = 100, vulnerable: bool = False) -> Application:
    """Build the PinLock firmware and its host harness."""
    board = stm32f4_discovery()
    module = Module("pinlock")

    libc = add_libc(module)
    crypto = add_crypto(module)
    system = add_system_hal(module, board)
    uart = add_uart_hal(module, board, with_vulnerability=vulnerable,
                        error_handler=system.error_handler)

    pin_rx = module.add_global("PinRxBuffer", array(I8, 4), source_file="main.c")
    key = module.add_global("KEY", I32, 0, source_file="main.c")
    lock_state = module.add_global("lock_state", I32, 1,
                                   source_file="lock.c",
                                   sanitize_range=(0, 1))
    unlock_count = module.add_global("unlock_count", I32, 0,
                                     source_file="main.c")
    lock_count = module.add_global("lock_count", I32, 0, source_file="main.c")
    provision_pin = module.add_global("provision_pin", array(I8, 4),
                                      list(CORRECT_PIN), is_const=True,
                                      source_file="key.c")

    # -- lock.c --------------------------------------------------------
    # State changes notify a registered observer (the app's one icall).
    from ..ir import FunctionType, ptr

    event_count = module.add_global("lock_events", I32, 0,
                                    source_file="lock.c")
    event_cb = module.add_global("lock_event_cb", ptr(I8),
                                 source_file="lock.c")

    notify_event, b = define(module, "lock_notify", VOID, [I32],
                             source_file="lock.c")
    (_state,) = notify_event.params
    b.store(b.add(b.load(event_count), 1), event_count)
    b.ret_void()

    do_unlock, b = define(module, "do_unlock", VOID, [], source_file="lock.c")
    b.call(system.gpio["GPIOD"].write, LOCK_PIN_NUMBER, 1)
    b.store(0, lock_state)
    observer = b.load(event_cb)
    b.icall(b.ptrtoint(observer), FunctionType(VOID, [I32]), 0)
    b.ret_void()

    do_lock, b = define(module, "do_lock", VOID, [], source_file="lock.c")
    b.call(system.gpio["GPIOD"].write, LOCK_PIN_NUMBER, 0)
    b.store(1, lock_state)
    b.ret_void()

    init_lock, b = define(module, "Init_Lock", VOID, [], source_file="lock.c")
    b.call(system.gpio["GPIOD"].init, LOCK_PIN_NUMBER, 1)  # output mode
    b.store(b.inttoptr(b.ptrtoint(notify_event), I8), event_cb)
    b.call(do_lock)
    b.ret_void()

    # -- key.c ---------------------------------------------------------
    key_init, b = define(module, "Key_Init", VOID, [], source_file="key.c")
    digest = b.call(crypto.fnv1a, b.gep(provision_pin, 0, 0), 4)
    b.store(digest, key)
    b.ret_void()

    # -- uart_init.c ------------------------------------------------------
    uart_init, b = define(module, "Uart_Init", VOID, [],
                          source_file="uart_init.c")
    b.call(system.rcc_enable_apb1, 1 << 17)  # USART2EN
    b.call(uart.init)
    b.ret_void()

    # -- main.c -----------------------------------------------------------
    system_init, b = define(module, "System_Init", VOID, [],
                            source_file="main.c")
    b.call(system.system_clock_config)
    b.call(system.rcc_enable_gpio, 0xF)  # ports A-D
    b.call(system.systick_config, 1000)  # core peripheral (PPB)
    b.ret_void()

    unlock_task, b = define(module, "Unlock_Task", VOID, [],
                            source_file="main.c")
    b.call(uart.receive_it, b.gep(pin_rx, 0, 0), 4)
    result = b.call(crypto.fnv1a, b.gep(pin_rx, 0, 0), 4)
    matches = b.icmp("eq", result, b.load(key))
    with b.if_else(matches) as otherwise:
        b.call(do_unlock)
        b.store(b.add(b.load(unlock_count), 1), unlock_count)
        b.call(uart.write_byte, ord("Y"))
        otherwise()
        b.call(uart.write_byte, ord("N"))
    b.ret_void()

    lock_task, b = define(module, "Lock_Task", VOID, [], source_file="main.c")
    b.call(uart.receive_it, b.gep(pin_rx, 0, 0), 4)
    first = b.zext(b.load(b.gep(pin_rx, 0, 0)))
    is_lock = b.icmp("eq", first, ord("0"))
    with b.if_then(is_lock):
        b.call(do_lock)
        b.store(b.add(b.load(lock_count), 1), lock_count)
        b.call(uart.write_byte, ord("L"))
    b.ret_void()

    # stm32_it.c: the SysTick ISR drives the HAL tick.  Interrupt
    # handlers run privileged and are never operation entries (§4.3).
    systick_handler, b = define(module, "SysTick_Handler", VOID, [],
                                source_file="stm32_it.c", irq_number=15)
    b.call(system.hal_inc_tick)
    b.ret_void()

    main, b = define(module, "main", I32, [], source_file="main.c")
    b.call(system_init)
    b.call(uart_init)
    b.call(key_init)
    b.call(init_lock)
    with b.while_loop(
        lambda: b.icmp("ult", b.load(unlock_count), rounds)
    ):
        b.call(unlock_task)
        b.call(lock_task)
    b.halt(b.load(unlock_count))

    specs = [
        OperationSpec("Uart_Init"),
        OperationSpec("Key_Init"),
        OperationSpec("Init_Lock"),
        OperationSpec("Unlock_Task"),
        OperationSpec("Lock_Task"),
    ]

    def setup(machine: Machine) -> None:
        machine.attach_device("RCC", RCC())
        for port in ("GPIOA", "GPIOB", "GPIOC", "GPIOD"):
            machine.attach_device(port, GPIO())
        uart_dev = machine.attach_device("USART2", UART())
        # Alternate wrong/correct PINs; each iteration also locks.
        for _ in range(rounds):
            uart_dev.feed(WRONG_PIN)      # Unlock_Task: rejected
            uart_dev.feed(LOCK_COMMAND)   # Lock_Task: locks
            uart_dev.feed(CORRECT_PIN)    # Unlock_Task: accepted
            uart_dev.feed(LOCK_COMMAND)   # Lock_Task: locks again

    def check(machine: Machine, halt_code: int) -> None:
        uart_dev = machine.device("USART2")
        transcript = uart_dev.transmitted()
        assert halt_code == rounds, f"unlocked {halt_code}/{rounds} times"
        assert transcript.count(b"Y") == rounds
        assert transcript.count(b"N") == rounds
        assert transcript.count(b"L") == 2 * rounds
        gpio_d = machine.device("GPIOD")
        assert not gpio_d.pin_is_high(LOCK_PIN_NUMBER), "must end locked"

    return Application(
        name="PinLock",
        module=module,
        board=board,
        specs=specs,
        setup=setup,
        check=check,
        description="Smart lock driven over the UART (Listing 1).",
    )
