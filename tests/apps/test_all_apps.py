"""Integration tests: every workload runs correctly under every build.

Each application's ``check`` asserts device-level evidence (UART
transcript, LCD frames, USB disk contents, echoed TCP frames, CRC), so
a pass means the firmware actually did its job under enforcement.
"""

import pytest

from repro import build_opec, build_vanilla, run_image
from repro.baselines import build_aces
from repro.eval.workloads import build_app
from repro.obs.events import BEGIN, OP_SWITCH
from repro.obs.recorder import FlightRecorder

QUICK_APPS = ("PinLock", "FatFs-uSD", "Camera", "CoreMark")
SLOW_APPS = ("Animation", "LCD-uSD", "TCP-Echo")


@pytest.mark.parametrize("name", QUICK_APPS + SLOW_APPS)
def test_vanilla_run(name):
    app = build_app(name, profile="quick")
    image = build_vanilla(app.module, app.board)
    result = run_image(image, setup=app.setup,
                       max_instructions=app.max_instructions)
    app.verify_run(result.machine, result.halt_code)


def _simulated(result) -> tuple:
    """Everything a run simulates, down to the SRAM bytes."""
    machine = result.machine
    snapshot = machine.metrics.snapshot()
    return (result.halt_code, machine.cycles, machine.stats.as_dict(),
            snapshot["histograms"]["monitor.switch_cycles"],
            snapshot["counters"]["monitor.sync_bytes_copied"],
            bytes(machine.sram.data))


# Every app on the ambient backend (mpu by default), plus PinLock on the
# other two: all of PinLock's switches run under an armed SysTick.
OPEC_RUNS = [pytest.param(name, None, id=name)
             for name in QUICK_APPS + SLOW_APPS] + [
    pytest.param("PinLock", backend, id=f"PinLock-{backend}")
    for backend in ("pmp", "overlay")]


@pytest.mark.parametrize("name, backend", OPEC_RUNS)
def test_opec_run_matches_vanilla(name, backend):
    app = build_app(name, profile="quick")
    vanilla = run_image(build_vanilla(app.module, app.board),
                        setup=app.setup,
                        max_instructions=app.max_instructions)
    artifacts = build_opec(app.module, app.board, app.specs)
    opec = run_image(artifacts.image, setup=app.setup,
                     max_instructions=app.max_instructions, backend=backend)
    app.verify_run(opec.machine, opec.halt_code)
    assert opec.halt_code == vanilla.halt_code
    # Isolation really was on.
    assert opec.machine.enforcement.enabled
    assert not opec.machine.base_privilege
    assert opec.hooks.switch_count > 0
    # A flight recorder only observes: the monitor runs the same switch
    # code with spans around its phases, and the spans charge nothing.
    recorder = FlightRecorder()
    traced = run_image(artifacts.image, setup=app.setup,
                       max_instructions=app.max_instructions,
                       backend=backend, recorder=recorder)
    switches = [event for event in recorder.events()
                if event.kind == OP_SWITCH and event.ph == BEGIN]
    assert recorder.dropped == 0
    assert len(switches) == opec.hooks.switch_count
    assert _simulated(traced) == _simulated(opec)


@pytest.mark.parametrize("name", ("PinLock", "FatFs-uSD"))
@pytest.mark.parametrize("strategy", ("ACES1", "ACES2", "ACES3"))
def test_aces_run_matches_vanilla(name, strategy):
    app = build_app(name, profile="quick")
    vanilla = run_image(build_vanilla(app.module, app.board),
                        setup=app.setup,
                        max_instructions=app.max_instructions)
    artifacts = build_aces(app.module, app.board, strategy)
    result = run_image(artifacts.image, setup=app.setup,
                       max_instructions=app.max_instructions)
    app.verify_run(result.machine, result.halt_code)
    assert result.halt_code == vanilla.halt_code


@pytest.mark.parametrize("name, expected_ops", [
    ("PinLock", 6), ("Animation", 8), ("FatFs-uSD", 10), ("LCD-uSD", 11),
    ("TCP-Echo", 9), ("Camera", 9), ("CoreMark", 9),
])
def test_operation_counts_match_table1(name, expected_ops):
    app = build_app(name, profile="quick")
    artifacts = build_opec(app.module, app.board, app.specs)
    assert len(artifacts.operations) == expected_ops


@pytest.mark.parametrize("name", QUICK_APPS)
def test_opec_runtime_overhead_is_small(name):
    app = build_app(name, profile="quick")
    vanilla = run_image(build_vanilla(app.module, app.board),
                        setup=app.setup,
                        max_instructions=app.max_instructions)
    artifacts = build_opec(app.module, app.board, app.specs)
    opec = run_image(artifacts.image, setup=app.setup,
                     max_instructions=app.max_instructions)
    overhead = opec.cycles / vanilla.cycles - 1.0
    assert overhead < 0.10, f"{name} overhead {overhead:.1%}"
