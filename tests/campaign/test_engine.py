"""Differential-campaign engine tests: classification, attack
containment, and the byte-identity contract across job counts and
hash seeds."""

from __future__ import annotations

import dataclasses
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignConfig,
    generate_firmware,
    render_report,
    report_rows,
    resolve_attack,
    run_campaign,
)
from repro.campaign.attacks import attack_setup
from repro.campaign.engine import evaluate_firmware
from repro.campaign.generator import INSTRUCTION_BUDGET
from repro.hw import Machine
from repro.interp.batch import BatchRunner
from repro.pipeline import build_opec, build_vanilla

REPO = Path(__file__).resolve().parents[2]

SMALL = CampaignConfig(seed=2026, firmwares=2,
                       attacks=("global", "icall"),
                       backends=("mpu",), jobs=1)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown attack"):
        CampaignConfig(attacks=("frobnicate",)).validate()
    with pytest.raises(ValueError, match="unknown flavour"):
        CampaignConfig(flavours=("debug",)).validate()
    with pytest.raises(ValueError, match="at least one"):
        CampaignConfig(firmwares=0).validate()


def test_vanilla_succumbs_opec_blocks():
    """The core differential on one firmware, all four attacks:
    vanilla lets every payload land, OPEC aborts every one."""
    firmware = generate_firmware(2026, 0)
    vanilla = build_vanilla(firmware.module, firmware.board)
    opec = build_opec(firmware.module, firmware.board,
                      firmware.specs).image
    for kind in ("global", "stack", "peripheral", "icall"):
        runner = BatchRunner()
        for name, image in (("vanilla", vanilla), ("opec", opec)):
            plan = resolve_attack(kind, firmware, image)
            runner.add(image, name=name,
                       setup=attack_setup(firmware, plan),
                       max_instructions=INSTRUCTION_BUDGET,
                       backend="mpu")
        result = runner.run()
        by_name = {lane.name: lane for lane in result.lanes}
        # Vanilla halts normally and the payload landed.
        vanilla_lane = by_name["vanilla"]
        assert vanilla_lane.error is None, (kind, vanilla_lane.error)
        plan = resolve_attack(kind, firmware, vanilla)
        evidence = vanilla_lane.machine.read_direct(
            plan.evidence_address, 4)
        assert evidence == plan.evidence_value, kind
        # OPEC dies on a security abort before the payload matters.
        assert by_name["opec"].error is not None, kind


def test_evaluate_firmware_report_shape():
    report = evaluate_firmware(SMALL, 0)
    assert report.index == 0
    assert set(report.baseline) == {("vanilla", "mpu"), ("opec", "mpu"),
                                    ("aces", "mpu")}
    assert len(report.cells) == 6  # 2 attacks x 3 flavours x 1 backend
    for (_kind, flavour, _backend), outcome in report.cells.items():
        if flavour == "vanilla":
            assert outcome.outcome == "succeeded"
        if flavour == "opec":
            assert outcome.outcome == "blocked"
    # Baselines halt normally everywhere, with switch stats for the
    # protected flavours (ACES reports via its hooks counter).
    for (flavour, _backend), outcome in report.baseline.items():
        assert outcome.outcome == "ok"
        if flavour in ("opec", "aces"):
            assert outcome.switches > 0
            assert outcome.switch_cycles > 0


def test_lane_machines_freed_by_reference_counting(monkeypatch,
                                                   no_artifact_store):
    """``evaluate_firmware`` classifies each lane as it finishes, and
    reference counting alone frees the lane's machine (its SRAM, about
    200 KB) before the next lane's is built: no device back-link or
    recorded traceback keeps one in a cycle until the next full
    collection."""
    machines = []
    alive_at_build = []
    init = Machine.__init__

    def tracking_init(machine, *args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in machines))
        init(machine, *args, **kwargs)
        machines.append(weakref.ref(machine))

    monkeypatch.setattr(Machine, "__init__", tracking_init)
    config = dataclasses.replace(SMALL, backends=("mpu", "pmp", "overlay"))
    gc.collect()
    gc.disable()
    try:
        report = evaluate_firmware(config, 0)
        alive = [ref for ref in machines if ref() is not None]
    finally:
        gc.enable()
    assert len(machines) == 27  # 3 flavours x 3 backends x 3 lanes
    assert max(alive_at_build) <= 1
    assert alive == []
    # Blocked lanes are the ones that recorded a terminal fault.
    assert any(cell.outcome == "blocked" for cell in report.cells.values())


def test_report_verdicts_pass():
    result = run_campaign(SMALL)
    text = render_report(result)
    assert "-> PASS (OPEC strictly more)" in text
    assert "-> PASS (OPEC strictly lower)" in text
    rows = report_rows(result)
    assert rows[0][0] == "record"
    # 2 firmwares x 3 flavours x 1 backend x (1 baseline + 2 attacks)
    lane_rows = [r for r in rows[1:] if r[0] in ("baseline", "cell")]
    assert len(lane_rows) == 18


def test_warm_campaign_starts_no_worker(tmp_path, monkeypatch, request):
    """A warm store serves every firmware report in this process, each
    in its own envelope; the cold envelopes carry their lookup miss."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    config = dataclasses.replace(SMALL, jobs=2)
    cold = run_campaign(config)
    request.getfixturevalue("no_workers_or_simulation")
    warm = run_campaign(config)
    assert render_report(warm) == render_report(cold)
    assert report_rows(warm) == report_rows(cold)
    assert [(env.worker, env.label) for env in warm.telemetry] == \
        [(env.worker, env.label) for env in cold.telemetry]
    assert [(env.cache_counters["hits"], env.cache_counters.get("misses"))
            for env in warm.telemetry] == [(1, None)] * config.firmwares
    assert all(env.cache_counters["misses"] >= 1
               and env.cache_counters["stores"] >= 1
               for env in cold.telemetry)


def test_store_off_campaign_generates_each_firmware_once(monkeypatch):
    """With the store off the caller looks nothing up: each firmware is
    generated once, by its evaluation."""
    from repro.campaign import engine

    monkeypatch.setenv("REPRO_CACHE", "off")
    generated = []
    generate = engine.generate_firmware

    def counting(seed, index):
        generated.append(index)
        return generate(seed, index)

    monkeypatch.setattr(engine, "generate_firmware", counting)
    run_campaign(SMALL)
    assert generated == list(range(SMALL.firmwares))


def _campaign_text(jobs: int, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["REPRO_JOBS"] = str(jobs)
    env["PYTHONPATH"] = str(REPO / "src")
    script = (
        "from repro.campaign import CampaignConfig, run_campaign, "
        "render_report, report_rows\n"
        "cfg = CampaignConfig(seed=31, firmwares=2, "
        "attacks=('global','icall'), backends=('mpu','overlay'))\n"
        "res = run_campaign(cfg)\n"
        "print(render_report(res))\n"
        "for row in report_rows(res):\n"
        "    print('\\t'.join(str(c) for c in row))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO,
                          env=env, check=True, capture_output=True,
                          text=True)
    return proc.stdout


def test_report_identical_across_jobs_and_hash_seeds():
    """Same seed ⇒ byte-identical report: serial vs 4 workers, and
    different PYTHONHASHSEED values."""
    serial = _campaign_text(jobs=1, hashseed="0")
    fanned = _campaign_text(jobs=4, hashseed="1")
    assert serial == fanned
    assert "Differential security campaign" in serial
