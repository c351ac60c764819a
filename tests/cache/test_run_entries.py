"""Stored runs and module digests.

A stored :class:`~repro.pipeline.RunResult` keeps SRAM page-sparse
and flash and the SD-card image as compact as the machine holds them,
and must rehydrate a machine identical to the fresh run's.  A module
is digested once per module object, which holds only because building
and running leave its printed form alone.
"""

import hashlib
import pickle
import tracemalloc

import pytest

from repro import cache
from repro.cache.digest import _module_memo
from repro.cache.store import ArtifactStore
from repro.campaign.engine import CampaignConfig, _build_images
from repro.campaign.generator import generate_firmware
from repro.eval import workloads
from repro.hw.peripherals import SDCard
from repro.ir import print_module
from repro.pipeline import build_vanilla, run_image

ENTRY_LIMIT = 200 * 1024


def _printed_digest(module) -> str:
    return hashlib.sha256(print_module(module).encode()).hexdigest()


def _state(result) -> tuple:
    machine = result.machine
    cards = [bytes(device.image)
             for _name, device in sorted(machine.devices.items())
             if isinstance(device, SDCard)]
    return (result.halt_code, result.cycles, machine.stats.as_dict(),
            bytes(machine.flash.data), bytes(machine.sram.data), cards)


@pytest.mark.parametrize("kind", ["vanilla", "opec"])
@pytest.mark.parametrize("name", workloads.APP_NAMES)
def test_stored_run_equals_fresh_run(name, kind, tmp_path):
    app = workloads.build_app(name, profile="quick")
    digest = cache.module_digest(app.module)
    if kind == "vanilla":
        image = build_vanilla(app.module, app.board)
    else:
        image = workloads.opec_artifacts(name, profile="quick").image
    fresh = run_image(image, setup=app.setup,
                      max_instructions=app.max_instructions, backend="mpu")
    # Building and running left the printed module alone.
    assert _printed_digest(app.module) == digest
    # Flash, SRAM and the SD card are mostly zero pages.
    assert len(pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)) \
        < ENTRY_LIMIT
    store = ArtifactStore(root=tmp_path / "store")
    store.put("ab" * 32, fresh)
    stored = store.get("ab" * 32)
    assert stored is not fresh
    assert _state(stored) == _state(fresh)
    app.verify_run(stored.machine, stored.halt_code)


def test_rehydrated_sd_card_entry_holds_only_written_bytes():
    """Flash keeps its programmed extent and the card its disk image
    plus the blocks the firmware wrote, so a rehydrated Animation run
    costs its SRAM and its IR, not a megabyte of flash zeros and two
    of card zeros."""
    app = workloads.build_app("Animation", profile="quick")
    image = build_vanilla(app.module, app.board)
    blob = pickle.dumps(
        run_image(image, setup=app.setup,
                  max_instructions=app.max_instructions, backend="mpu"),
        protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    tracemalloc.start()
    try:
        stored = pickle.loads(blob)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    app.verify_run(stored.machine, stored.halt_code)
    assert allocated < 2 * 1024 * 1024


def test_generated_firmware_keeps_its_digest():
    firmware = generate_firmware(2026, 0)
    digest = cache.module_digest(firmware.module)
    config = CampaignConfig(seed=2026, firmwares=1)
    for image in _build_images(config, firmware).values():
        run_image(image, setup=firmware.base_setup(),
                  max_instructions=firmware.max_instructions)
    assert _printed_digest(firmware.module) == digest
    assert cache.module_digest(firmware.module) == digest


def test_clear_caches_drops_the_digest_memo():
    app = workloads.build_app("PinLock", profile="quick")
    cache.module_digest(app.module)
    assert app.module in _module_memo
    workloads.clear_caches()
    assert len(_module_memo) == 0
