"""Unit tests for the ACES baseline: strategies, regions, runtime."""

import pytest

import repro.ir as ir
from repro import build_vanilla, run_image
from repro.analysis import ResourceAnalysis
from repro.baselines import build_aces
from repro.baselines.aces import (
    MAX_DATA_REGIONS,
    assign_regions,
    partition_by_filename,
    partition_by_peripheral,
)
from repro.eval.workloads import aces_artifacts, build_app
from repro.hw import SecurityAbort, stm32f4_discovery
from repro.hw.backend import KNOWN_BACKENDS
from repro.interp import Interpreter
from repro.ir import I32, VOID
from repro.pipeline import default_hooks, prepare_machine

from ..conftest import MINI_HALT_CODE, build_mini_module


def _resources(module, board):
    return ResourceAnalysis(module, board)


class TestStrategies:
    def test_filename_one_compartment_per_file(self, board):
        module = build_mini_module()
        compartments = partition_by_filename(module, _resources(module, board))
        assert {c.name for c in compartments} == {"a.c", "b.c", "main.c"}

    def test_optimisation_merges_compartments(self, board):
        module = build_mini_module()
        merged = partition_by_filename(module, _resources(module, board),
                                       optimize=True)
        unmerged = partition_by_filename(module, _resources(module, board),
                                         optimize=False)
        assert len(merged) < len(unmerged)

    def test_peripheral_grouping(self, board):
        module = ir.Module("m")
        rcc = board.peripheral("RCC").base
        tim = board.peripheral("TIM2").base
        f1, b = ir.define(module, "f1", VOID, [], source_file="x.c")
        b.store(1, b.mmio(rcc))
        b.ret_void()
        f2, b = ir.define(module, "f2", VOID, [], source_file="y.c")
        b.store(1, b.mmio(rcc))
        b.ret_void()
        f3, b = ir.define(module, "f3", VOID, [], source_file="x.c")
        b.store(1, b.mmio(tim))
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [], source_file="main.c")
        b.call(f1)
        b.call(f2)
        b.call(f3)
        b.halt(0)
        compartments = partition_by_peripheral(module, _resources(module, board))
        by_name = {c.name: c for c in compartments}
        assert by_name["periph:RCC"].functions == {f1, f2}
        assert by_name["periph:TIM2"].functions == {f3}

    def test_core_peripheral_lifts_compartment(self, board):
        module = ir.Module("m")
        t, b = ir.define(module, "t", VOID, [], source_file="systick.c")
        b.store(1, b.mmio(0xE000E014))
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [], source_file="main.c")
        b.call(t)
        b.halt(0)
        compartments = partition_by_filename(module, _resources(module, board))
        lifted = next(c for c in compartments if c.name == "systick.c")
        assert lifted.privileged


class TestRegionAssignment:
    def _compartments_with_many_groups(self, board):
        """One compartment accessing vars with 6 distinct accessor sets."""
        module = ir.Module("m")
        hub_vars = []
        spokes = []
        for i in range(6):
            g = module.add_global(f"v{i}", I32, i)
            hub_vars.append(g)
            spoke, b = ir.define(module, f"spoke{i}", VOID, [],
                                 source_file=f"s{i}.c")
            b.store(1, g)
            b.ret_void()
            spokes.append(spoke)
        hub, b = ir.define(module, "hub", VOID, [], source_file="hub.c")
        for g in hub_vars:
            b.store(2, g)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [], source_file="main.c")
        b.call(hub)
        for spoke in spokes:
            b.call(spoke)
        b.halt(0)
        return module, partition_by_filename(module, _resources(module, board))

    def test_merging_respects_region_limit(self, board):
        module, compartments = self._compartments_with_many_groups(board)
        assignment = assign_regions(compartments, module.writable_globals())
        for compartment in compartments:
            assert len(assignment.groups_of(compartment)) <= MAX_DATA_REGIONS

    def test_merging_creates_over_privilege(self, board):
        module, compartments = self._compartments_with_many_groups(board)
        assignment = assign_regions(compartments, module.writable_globals())
        # Some spoke compartment can now access a variable it never
        # needed — the partition-time over-privilege of Figure 3.
        over_privileged = False
        for compartment in compartments:
            accessible = assignment.accessible_vars(compartment)
            needed = compartment.resources.globals_all
            if accessible - needed:
                over_privileged = True
        assert over_privileged

    def test_accessible_is_superset_of_needed(self, board):
        module, compartments = self._compartments_with_many_groups(board)
        assignment = assign_regions(compartments, module.writable_globals())
        for compartment in compartments:
            needed = {
                v for v in compartment.resources.globals_all if not v.is_const
            }
            assert needed <= assignment.accessible_vars(compartment)


class TestAcesRuntime:
    def test_functional_equivalence(self, board):
        module = build_mini_module()
        vanilla = run_image(build_vanilla(module, board))
        for strategy in ("ACES1", "ACES2", "ACES3"):
            module2 = build_mini_module()
            artifacts = build_aces(module2, board, strategy)
            result = run_image(artifacts.image)
            assert result.halt_code == vanilla.halt_code

    def test_switch_on_cross_compartment_calls(self, board):
        module = build_mini_module()
        artifacts = build_aces(module, board, "ACES2")
        result = run_image(artifacts.image)
        # main.c -> a.c, main.c -> b.c, main.c -> a.c
        assert result.hooks.switch_count == 3

    def test_grouped_variable_write_allowed_cross_compartment(self, board):
        """Region merging grants task_b access to vars it shares a
        region with — the over-privilege OPEC blocks."""
        module = build_mini_module()
        artifacts = build_aces(module, board, "ACES2")
        # counter is accessed by a.c, b.c, and main.c: it lands in a
        # region both tasks can write.
        counter = artifacts.module.get_global("counter")
        by_name = {c.name: c for c in artifacts.compartments}
        accessible_b = artifacts.assignment.accessible_vars(by_name["b.c"])
        assert counter in accessible_b

    def test_out_of_region_write_aborts(self, board):
        module = build_mini_module()
        probe = build_aces(module, board, "ACES2")
        secret = probe.module.get_global("secret")
        leaked = probe.image.global_address(secret)

        attack = build_mini_module()
        task_b = attack.get_function("task_b")
        # Append an arbitrary write before task_b's terminator.
        block = task_b.blocks[0]
        ret = block.instructions.pop()
        b = ir.IRBuilder(task_b, block)
        b.store(0xBAD, b.inttoptr(leaked, I32))
        block.instructions.append(ret)
        artifacts = build_aces(attack, board, "ACES2")
        with pytest.raises(SecurityAbort):
            run_image(artifacts.image)


class NeverStores(dict):
    """A region-set memo that never hits: every load rebuilds its set."""

    def __setitem__(self, key, value):
        pass


#: The lanes with the most compartment switches (TCP-Echo, about 37k
#: each) and one with many stack depths and micro-emulations.
MEMO_LANES = [("TCP-Echo", "ACES2"), ("TCP-Echo", "ACES3"),
              ("Animation", "ACES2")]


def _aces_run(name, strategy, backend, memo=None):
    """One quick-profile ACES lane to halt: (observables, runtime)."""
    app = build_app(name, "quick")
    image = aces_artifacts(name, strategy, "quick").image
    machine = prepare_machine(image, setup=app.setup, backend=backend)
    runtime = default_hooks(machine, image)
    if memo is not None:
        runtime._region_sets = memo
    interp = Interpreter(machine, image, runtime,
                         max_instructions=app.max_instructions)
    code = interp.run()
    app.verify_run(machine, code)
    return {
        "halt": code,
        "cycles": machine.cycles,
        "stats": machine.stats.as_dict(),
        "switches": runtime.switch_count,
        "micro_emulations": runtime.micro_emulations,
        "regions": machine.enforcement.snapshot(),
    }, runtime


class TestRegionSetMemo:
    @pytest.mark.parametrize("backend", KNOWN_BACKENDS)
    @pytest.mark.parametrize("name,strategy", MEMO_LANES)
    def test_memo_is_transparent(self, name, strategy, backend):
        """Memoised region sets give the run a memo that never hits
        gives, down to the regions loaded at halt."""
        memoised, runtime = _aces_run(name, strategy, backend)
        rebuilt, _ = _aces_run(name, strategy, backend, memo=NeverStores())
        assert memoised == rebuilt
        assert len(runtime._region_sets) < memoised["switches"]

    def test_mutating_a_loaded_list_never_reaches_the_memo(self, board):
        """Each load hands the backend a fresh list: a backend that
        empties every list after loading it still gets full sets."""
        artifacts = build_aces(build_mini_module(), board, "ACES2")
        machine = prepare_machine(artifacts.image)
        runtime = default_hooks(machine, artifacts.image)
        load = machine.enforcement.load_configuration
        handed = []

        def load_then_clear(regions):
            load(regions)
            handed.append(list(regions))
            regions.clear()

        machine.enforcement.load_configuration = load_then_clear
        assert Interpreter(machine, artifacts.image, runtime).run() \
            == MINI_HALT_CODE
        assert len(handed) == 1 + 2 * runtime.switch_count
        assert len(runtime._region_sets) < len(handed)
        assert all(handed)
        assert all(runtime._region_sets.values())
