"""Unit tests for the PT/ET metrics and the task tracer."""

import pytest

import repro.ir as ir
from repro import cache
from repro.apps import Application
from repro.eval import figure11, workloads
from repro.eval.metrics import cumulative_ratio, et_value, pt_value, var2size
from repro.eval.tracing import TaskTrace, trace_tasks
from repro.image import build_vanilla_image
from repro.ir import I32, VOID, GlobalVariable, array

from ..conftest import build_mini_module


def _vars(*sizes, const=False):
    return [GlobalVariable(f"v{i}", array(ir.I8, s), is_const=const)
            for i, s in enumerate(sizes)]


class TestVar2Size:
    def test_sums_writable_only(self):
        writable = _vars(4, 8)
        const = _vars(100, const=True)
        assert var2size(set(writable) | set(const)) == 12


class TestPT:
    def test_no_over_privilege_is_zero(self):
        vs = set(_vars(4, 4))
        assert pt_value(vs, vs) == 0.0

    def test_empty_accessible_is_zero(self):
        assert pt_value(set(), set(_vars(4))) == 0.0

    def test_ratio_by_bytes(self):
        a, b, c = _vars(4, 4, 8)
        accessible = {a, b, c}
        needed = {a}
        assert pt_value(accessible, needed) == (4 + 8) / 16

    def test_fully_unneeded_is_one(self):
        accessible = set(_vars(4))
        assert pt_value(accessible, set()) == 1.0


class TestET:
    def test_all_used_is_zero(self):
        vs = set(_vars(4, 4))
        assert et_value(vs, vs) == 0.0

    def test_none_used_is_one(self):
        needed = set(_vars(4, 4))
        assert et_value(set(), needed) == 1.0

    def test_no_needed_is_zero(self):
        assert et_value(set(_vars(4)), set()) == 0.0

    def test_used_outside_needed_ignored(self):
        a, b = _vars(4, 4)
        assert et_value({a, b}, {a}) == 0.0


class TestCumulative:
    def test_thresholds(self):
        values = [0.0, 0.25, 0.5, 1.0]
        assert cumulative_ratio(values, [0.0, 0.5, 1.0]) == [0.25, 0.75, 1.0]

    def test_empty_values(self):
        assert cumulative_ratio([], [0.0, 1.0]) == [1.0, 1.0]


class TestTaskTracer:
    def test_windows_capture_nested_functions(self, board):
        module = build_mini_module()
        image = build_vanilla_image(module, board)
        trace, result = trace_tasks(image, ["task_a", "task_b"])
        assert result.halt_code == 14
        assert trace.names_of("task_a") == {"task_a"}
        assert trace.invocations["task_a"] == 2
        assert trace.invocations["task_b"] == 1

    def test_nested_helpers_attributed_to_task(self, board):
        module = ir.Module("m")
        helper, hb = ir.define(module, "helper", VOID, [])
        hb.ret_void()
        task, tb = ir.define(module, "task", VOID, [])
        tb.call(helper)
        tb.ret_void()
        _m, mb = ir.define(module, "main", I32, [])
        mb.call(task)
        mb.halt(0)
        image = build_vanilla_image(module, board)
        trace, _ = trace_tasks(image, ["task"])
        assert trace.names_of("task") == {"task", "helper"}

    def test_functions_outside_windows_not_recorded(self, board):
        module = build_mini_module()
        image = build_vanilla_image(module, board)
        trace, _ = trace_tasks(image, ["task_a"])
        for names in trace.executed.values():
            assert "main" not in names

    def test_nested_entry_does_not_open_second_window(self, board):
        """A task entry reached *inside* another task's window belongs
        to the outer window: one invocation, attributed functions."""
        module = ir.Module("m")
        inner, b = ir.define(module, "inner_task", VOID, [])
        b.ret_void()
        outer, b = ir.define(module, "outer_task", VOID, [])
        b.call(inner)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.call(outer)
        b.call(inner)  # a direct, window-opening invocation too
        b.halt(0)
        image = build_vanilla_image(module, board)
        trace, _ = trace_tasks(image, ["outer_task", "inner_task"])
        assert trace.invocations["outer_task"] == 1
        assert trace.invocations["inner_task"] == 1  # only the direct call
        assert trace.names_of("outer_task") == {"outer_task", "inner_task"}
        assert trace.names_of("inner_task") == {"inner_task"}

    def test_reentered_entry_window_closes_at_matching_depth(self, board):
        """A task entry that recurses closes its window only when the
        *outermost* activation returns."""
        module = ir.Module("m")
        leaf, b = ir.define(module, "leaf", VOID, [])
        b.ret_void()
        # task(0) calls task(1) — one level of recursion — then leaf.
        task, tb = ir.define(module, "task", VOID, [I32])
        with tb.if_then(tb.icmp("eq", task.params[0], 0)):
            tb.call(task, 1)
            tb.call(leaf)
        tb.ret_void()
        _m, mb = ir.define(module, "main", I32, [])
        mb.call(task, 0)
        mb.halt(0)
        image = build_vanilla_image(module, board)
        trace, _ = trace_tasks(image, ["task"])
        assert trace.invocations["task"] == 1  # one window, not two
        # leaf runs after the inner activation returned; the window is
        # still open (outermost activation) so it belongs to the task.
        assert "leaf" in trace.names_of("task")

    def test_irq_during_window_attributed_to_open_window(self, board):
        """Everything executed while a window is open belongs to the
        task — the GDB single-step semantics — including an interrupt
        handler that happens to fire mid-window."""
        module = ir.Module("m")
        ticks = module.add_global("uwTick", I32, 0)
        handler, b = ir.define(module, "SysTick_Handler", VOID, [],
                               irq_number=15)
        b.store(b.add(b.load(ticks), 1), ticks)
        b.ret_void()
        task, b = ir.define(module, "task", VOID, [])
        with b.for_range(0, 2000):  # ~14k cycles: several tick periods
            pass
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.store(999, b.mmio(0xE000E014))   # RVR: tick every 1000 cycles
        b.store(7, b.mmio(0xE000E010))     # CSR: ENABLE | TICKINT
        b.call(task)
        b.halt(b.load(ticks))
        image = build_vanilla_image(module, board)
        trace, result = trace_tasks(image, ["task"])
        assert result.halt_code >= 1  # the handler really fired
        # The first tick lands well inside task's loop, so the handler
        # executed with the window open and is attributed to the task.
        assert "SysTick_Handler" in trace.names_of("task")
        assert trace.invocations["task"] == 1
        # The handler is not an entry, so no window of its own.
        assert "SysTick_Handler" not in trace.invocations


def test_figure11_trace_is_verified_before_it_is_stored(tmp_path,
                                                        monkeypatch):
    """A traced run that fails its app's check is neither memoised nor
    persisted, so no later export reads ET values from it."""
    def reject(self, machine, halt_code):
        raise AssertionError(f"{self.name}: traced run rejected")

    stored = []
    put = cache.ArtifactStore.put

    def spy(self, digest, obj):
        stored.append(obj)
        return put(self, digest, obj)

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    workloads.clear_caches()
    cache.reset_store_state()
    monkeypatch.setattr(Application, "verify_run", reject)
    monkeypatch.setattr(cache.ArtifactStore, "put", spy)
    try:
        with pytest.raises(AssertionError, match="traced run rejected"):
            figure11.task_trace("PinLock")
        # The run's compiled closures may be saved; the trace may not.
        assert not any(isinstance(obj, TaskTrace) for obj in stored)
        assert "PinLock" not in figure11._trace_cache
    finally:
        workloads.clear_caches()
        cache.reset_store_state()
