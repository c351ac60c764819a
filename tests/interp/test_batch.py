"""Unit tests for the batched simulation runner.

The batch contract: lanes are fully isolated (a batched lane's
simulated outcome is bit-identical to a solo run of the same image),
compiled block closures warm across lanes through the shared IR, one
lane's terminal fault never disturbs the fleet, and lanes are built,
run and handed over one at a time, in ``add`` order.
"""

import gc
import weakref

import pytest

import repro.ir as ir
from repro.hw import Machine, stm32f4_discovery
from repro.hw.exceptions import HardFault
from repro.image import build_vanilla_image
from repro.interp import BatchRunner, Interpreter
from repro.interp.batch import LaneFailure, _drop_tracebacks
from repro.interp.hooks import RuntimeHooks
from repro.obs.metrics import MetricsRegistry
from repro.ir import I32


def _loop_module(iterations: int = 300, name: str = "loop"):
    module = ir.Module(name)
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, iterations) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    return module


def _crash_module():
    module = ir.Module("crash")
    _m, b = ir.define(module, "main", I32, [])
    b.halt(b.load(b.mmio(0x60000000)))  # unmapped: terminal HardFault
    return module


def _calling_module():
    module = ir.Module("caller")
    helper, b = ir.define(module, "helper", ir.VOID, [])
    b.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    b.call(helper)
    b.halt(7)
    return module


class _ExplodingHooks(RuntimeHooks):
    """Host-side defect stand-in: raises a non-MachineError mid-run."""

    def is_switch_point(self, interp, callee):
        raise RuntimeError("hook exploded")


class TestBatchIdentity:
    def test_lanes_bit_identical_to_solo(self):
        module = _loop_module()
        board = stm32f4_discovery()
        image = build_vanilla_image(module, board)

        # Per-block tier only: the block-entry accounting below counts
        # one entry per block, which loop fusion deliberately elides
        # (fused batch identity has its own coverage in the tracefuse
        # suites).
        solo_machine = Machine(board)
        image.initialize_memory(solo_machine)
        solo = Interpreter(solo_machine, image, block_compile=True,
                           trace_fuse=False)
        solo_code = solo.run()
        solo_compiled = solo.compile_metrics.snapshot()["counters"]
        solo_sram = solo_machine.read_bytes(solo_machine.sram.base,
                                            solo_machine.sram.size)

        runner = BatchRunner(block_compile=True, trace_fuse=False)
        for _ in range(3):
            runner.add(image)
        finished = []
        result = runner.run(finished.append)
        assert result.lanes == [] and len(finished) == 3
        for lane in finished:
            assert lane.error is None
            assert lane.halt_code == solo_code
            assert lane.machine.cycles == solo_machine.cycles
            assert lane.machine.stats.as_dict() == \
                solo_machine.stats.as_dict()
            assert lane.interpreter.instructions_executed == \
                solo.instructions_executed
            assert lane.machine.read_bytes(
                lane.machine.sram.base, lane.machine.sram.size) == solo_sram

        # The solo run already compiled every closure onto the shared
        # IR; no lane compiles anything, they all just enter blocks.
        aggregate = result.compile_metrics.snapshot()["counters"]
        assert aggregate["blockcompile.blocks_compiled"] == 0
        assert aggregate["blockcompile.block_entries"] == \
            3 * solo_compiled["blockcompile.block_entries"]

    def test_first_lane_warms_the_fleet(self, no_artifact_store):
        module = _loop_module(name="fresh")
        image = build_vanilla_image(module, stm32f4_discovery())
        runner = BatchRunner(block_compile=True)
        for _ in range(4):
            runner.add(image)
        result = runner.run()
        aggregate = result.compile_metrics.snapshot()["counters"]
        # Compiled exactly once across the whole fleet.
        assert aggregate["blockcompile.blocks_compiled"] == \
            len(module.get_function("main").blocks)

    def test_default_lane_names(self):
        image = build_vanilla_image(_loop_module(5), stm32f4_discovery())
        runner = BatchRunner()
        assert runner.add(image) == "lane0"
        assert runner.add(image, name="probe") == "probe"
        assert runner.add(image) == "lane2"
        assert [lane.name for lane in runner.run().lanes] == \
            ["lane0", "probe", "lane2"]


class TestOneLaneAtATime:
    """``add`` builds nothing; ``run`` builds each lane's machine when
    it reaches the lane and keeps no lane it has handed over."""

    def test_no_machine_before_run_reaches_its_lane(self, monkeypatch):
        built = []
        init = Machine.__init__

        def tracking_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            built.append(machine)

        monkeypatch.setattr(Machine, "__init__", tracking_init)
        image = build_vanilla_image(_loop_module(5), stm32f4_discovery())
        runner = BatchRunner()
        for _ in range(3):
            runner.add(image)
        assert built == []
        handed = []

        def on_lane(lane):
            assert built[-1] is lane.machine
            handed.append(lane.name)

        runner.run(on_lane)
        assert handed == ["lane0", "lane1", "lane2"]
        assert len(built) == 3

    def test_handed_over_lane_freed_before_next_is_built(
            self, monkeypatch):
        board = stm32f4_discovery()
        good = build_vanilla_image(_loop_module(5), board)
        bad = build_vanilla_image(_crash_module(), board)
        machines = []
        alive_at_build = []
        init = Machine.__init__

        def tracking_init(machine, *args, **kwargs):
            alive_at_build.append(
                sum(ref() is not None for ref in machines))
            init(machine, *args, **kwargs)
            machines.append(weakref.ref(machine))

        monkeypatch.setattr(Machine, "__init__", tracking_init)
        runner = BatchRunner()
        for image in (good, bad, good, good):
            runner.add(image)
        outcomes = []

        def on_lane(lane):
            outcomes.append(lane.error is None)
            lane.machine.release_devices()

        gc.collect()
        gc.disable()
        try:
            result = runner.run(on_lane)
            alive = [ref for ref in machines if ref() is not None]
        finally:
            gc.enable()
        assert outcomes == [True, False, True, True]
        assert alive_at_build == [0, 0, 0, 0]
        assert alive == []
        assert result.lanes == []


class TestFaultIsolation:
    def test_each_lane_resumed_once_in_add_order(self, monkeypatch):
        """``run`` is one pass over the lanes: one ``resume`` each, in
        ``add`` order, and a lane that faults midway stops nothing
        after it."""
        resumed = []
        resume = Interpreter.resume

        def spy(interp):
            resumed.append(interp)
            return resume(interp)

        monkeypatch.setattr(Interpreter, "resume", spy)
        board = stm32f4_discovery()
        good = build_vanilla_image(_loop_module(50), board)
        bad = build_vanilla_image(_crash_module(), board)
        runner = BatchRunner()
        for name, image in (("good0", good), ("good1", good),
                            ("doomed", bad), ("good2", good),
                            ("good3", good)):
            runner.add(image, name=name)
        result = runner.run()
        assert resumed == [lane.interpreter for lane in result.lanes]
        assert [lane.name for lane in result.failed] == ["doomed"]
        assert [lane.halt_code for lane in result.lanes] == \
            [sum(range(50))] * 2 + [None] + [sum(range(50))] * 2

    def test_one_lane_dies_rest_complete(self):
        board = stm32f4_discovery()
        good = build_vanilla_image(_loop_module(50), board)
        bad = build_vanilla_image(_crash_module(), board)
        runner = BatchRunner(block_compile=True)
        runner.add(good, name="good0")
        runner.add(bad, name="doomed")
        runner.add(good, name="good1")
        result = runner.run()
        assert [lane.name for lane in result.failed] == ["doomed"]
        assert "unmapped" in str(result.failed[0].error)
        for lane in result.lanes:
            if lane.name != "doomed":
                assert lane.error is None
                assert lane.halt_code == sum(range(50))

    def test_host_defect_wrapped_and_isolated(self):
        """A non-MachineError escaping a lane (a raising hook) must be
        wrapped as LaneFailure — naming the lane and chaining the
        original — while sibling lanes finish normally."""
        board = stm32f4_discovery()
        good = build_vanilla_image(_loop_module(50), board)
        buggy = build_vanilla_image(_calling_module(), board)
        runner = BatchRunner()
        runner.add(good, name="good0")
        runner.add(buggy, name="buggy", hooks=_ExplodingHooks())
        runner.add(good, name="good1")
        result = runner.run()
        assert [lane.name for lane in result.failed] == ["buggy"]
        failure = result.failed[0].error
        assert isinstance(failure, LaneFailure)
        assert failure.lane_name == "buggy"
        assert "buggy" in str(failure)
        assert "RuntimeError" in str(failure)
        assert isinstance(failure.original, RuntimeError)
        assert failure.__cause__ is failure.original
        for lane in result.lanes:
            if lane.name != "buggy":
                assert lane.error is None
                assert lane.halt_code == sum(range(50))


def _chain(error):
    """Every exception on ``error``'s cause/context chain."""
    seen, chain = [], [error]
    while chain:
        error = chain.pop()
        if error is not None and all(error is not e for e in seen):
            seen.append(error)
            chain += (error.__cause__, error.__context__)
    return seen


def _raise(error):
    raise error


class TestRecordedErrorsHoldNoFrames:
    """A recorded fault's traceback would reach ``BatchRunner.run``'s
    frame, the runner, its lanes and the error again: a cycle that
    keeps every finished machine alive until a full collection."""

    def test_drop_tracebacks_walks_cause_and_context(self):
        try:
            try:
                _raise(KeyError("context"))
            except KeyError:
                try:
                    _raise(ValueError("cause"))
                except ValueError as cause:
                    raise HardFault("outer") from cause
        except HardFault as error:
            outer = error
        chain = _chain(outer)
        assert len(chain) == 3
        assert all(e.__traceback__ is not None for e in chain)
        _drop_tracebacks(outer)
        assert all(e.__traceback__ is None for e in chain)

    def test_fault_lane_drops_lane_failure_keeps(self):
        board = stm32f4_discovery()
        runner = BatchRunner()
        runner.add(build_vanilla_image(_crash_module(), board),
                   name="doomed")
        runner.add(build_vanilla_image(_calling_module(), board),
                   name="buggy", hooks=_ExplodingHooks())
        doomed, buggy = runner.run().lanes
        assert "unmapped" in str(doomed.error)
        assert all(e.__traceback__ is None for e in _chain(doomed.error))
        assert isinstance(buggy.error, LaneFailure)
        assert buggy.error.original.__traceback__ is not None


class TestMetricsMerge:
    def test_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").value = 3
        b.counter("hits").value = 4
        b.counter("misses").value = 1
        for value in (2, 9):
            a.histogram("lat").observe(value)
        b.histogram("lat").observe(40)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"] == {"hits": 7, "misses": 1}
        lat = snap["histograms"]["lat"]
        assert lat["count"] == 3
        assert lat["total"] == 51
        assert lat["min"] == 2
        assert lat["max"] == 40

    def test_merge_into_empty_is_copy(self):
        src = MetricsRegistry()
        src.counter("c").value = 5
        src.histogram("h").observe(7)
        dst = MetricsRegistry()
        dst.merge(src)
        assert dst.snapshot() == src.snapshot()
