"""Tests for the §7 concurrency extension: thread context switching."""

import pytest

import repro.ir as ir
from repro import build_opec
from repro.hw import Machine, SecurityAbort, stm32f4_discovery
from repro.interp import Interpreter
from repro.ir import I32, VOID
from repro.partition import OperationSpec
from repro.runtime.monitor import OpecMonitor
from repro.runtime.threads import ThreadSupport


def _two_thread_world():
    """Two operations sharing `shared`; each 'thread' runs in one."""
    module = ir.Module("threads")
    shared = module.add_global("shared", I32, 0)
    module.add_global("a_private", I32, 5)
    module.add_global("b_private", I32, 9)

    op_a, b = ir.define(module, "thread_a_op", VOID, [])
    b.store(b.add(b.load(shared), b.load(module.get_global("a_private"))),
            shared)
    b.ret_void()

    op_b, b = ir.define(module, "thread_b_op", VOID, [])
    b.store(b.add(b.load(shared), b.load(module.get_global("b_private"))),
            shared)
    b.ret_void()

    _m, b = ir.define(module, "main", I32, [])
    b.call(op_a)
    b.call(op_b)
    b.halt(b.load(shared))

    board = stm32f4_discovery()
    artifacts = build_opec(
        module, board,
        [OperationSpec("thread_a_op"), OperationSpec("thread_b_op")])
    machine = Machine(board)
    artifacts.image.initialize_memory(machine)
    monitor = OpecMonitor(machine, artifacts.image)
    interp = Interpreter(machine, artifacts.image, monitor)
    monitor.on_reset(interp)
    return artifacts, machine, monitor, interp


class TestContextSwitch:
    def test_shared_value_synchronised_across_threads(self):
        artifacts, machine, monitor, interp = _two_thread_world()
        threads = ThreadSupport(monitor)
        policy = artifacts.policy
        op_a = policy.operation_by_entry("thread_a_op")
        op_b = policy.operation_by_entry("thread_b_op")
        shared = artifacts.module.get_global("shared")
        image = artifacts.image

        threads.register_thread(1, op_a, interp.sp)
        threads.register_thread(2, op_b, interp.sp - 4096)

        # Thread 1 (in op A) writes its shadow of `shared`.
        threads.context_switch(interp, 1)
        machine.write_direct(image.shadow_address(op_a, shared), 4, 41)

        # Switching to thread 2 must publish the value into B's shadow.
        threads.context_switch(interp, 2)
        assert machine.read_direct(
            image.shadow_address(op_b, shared), 4) == 41
        assert machine.read_direct(image.public_addresses[shared], 4) == 41

        # Thread 2 updates; switching back refreshes A's shadow.
        machine.write_direct(image.shadow_address(op_b, shared), 4, 50)
        threads.context_switch(interp, 1)
        assert machine.read_direct(
            image.shadow_address(op_a, shared), 4) == 50

    def test_mpu_follows_the_resumed_thread(self):
        artifacts, machine, monitor, interp = _two_thread_world()
        threads = ThreadSupport(monitor)
        policy = artifacts.policy
        op_a = policy.operation_by_entry("thread_a_op")
        op_b = policy.operation_by_entry("thread_b_op")
        image = artifacts.image
        threads.register_thread(1, op_a, interp.sp)
        threads.register_thread(2, op_b, interp.sp - 4096)

        threads.context_switch(interp, 1)
        a_section = image.layout_of(op_a).section
        b_section = image.layout_of(op_b).section
        assert machine.enforcement.allows(a_section.base, 4, False, True)
        assert not machine.enforcement.allows(b_section.base, 4, False, True)

        threads.context_switch(interp, 2)
        assert machine.enforcement.allows(b_section.base, 4, False, True)
        assert not machine.enforcement.allows(a_section.base, 4, False, True)

    def test_stack_pointer_per_thread(self):
        artifacts, machine, monitor, interp = _two_thread_world()
        threads = ThreadSupport(monitor)
        policy = artifacts.policy
        op_a = policy.operation_by_entry("thread_a_op")
        op_b = policy.operation_by_entry("thread_b_op")
        top = interp.sp
        threads.register_thread(1, op_a, top)
        threads.register_thread(2, op_b, top - 4096)

        threads.context_switch(interp, 2)
        assert interp.sp == top - 4096
        interp.sp -= 64  # thread 2 pushes a frame
        threads.context_switch(interp, 1)
        assert interp.sp == top
        threads.context_switch(interp, 2)
        assert interp.sp == top - 4096 - 64  # resumed where it left off

    def test_switch_counts_and_costs(self):
        artifacts, machine, monitor, interp = _two_thread_world()
        threads = ThreadSupport(monitor)
        policy = artifacts.policy
        threads.register_thread(1, policy.operation_by_entry("thread_a_op"),
                                interp.sp)
        threads.register_thread(2, policy.operation_by_entry("thread_b_op"),
                                interp.sp - 4096)
        before = machine.cycles
        threads.context_switch(interp, 2)
        threads.context_switch(interp, 1)
        assert threads.switches == 2
        assert machine.cycles > before
