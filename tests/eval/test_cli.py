"""Tests for the command-line front end."""

import os

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "PinLock" in out
    assert "CoreMark" in out


def test_build_prints_partition(capsys):
    assert main(["build", "PinLock"]) == 0
    out = capsys.readouterr().out
    assert "6 operations" in out
    assert "Unlock_Task" in out


def test_build_writes_policy(tmp_path, capsys):
    path = tmp_path / "p.json"
    assert main(["build", "PinLock", "--policy", str(path)]) == 0
    assert path.exists()
    assert "opec-policy-v1" in path.read_text()


def test_run_opec(capsys):
    assert main(["run", "PinLock", "--build", "opec"]) == 0
    out = capsys.readouterr().out
    assert "overhead" in out
    assert "svc=" in out


def test_run_vanilla(capsys):
    assert main(["run", "PinLock", "--build", "vanilla"]) == 0
    out = capsys.readouterr().out
    assert "halt=" in out


def test_backend_flag_does_not_mutate_environ(capsys, monkeypatch):
    """Regression: ``--backend`` must travel as a call parameter, not
    by exporting ``REPRO_BACKEND`` — a library caller invoking the
    command twice with different backends must not leak the first
    choice into ambient state."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    before = dict(os.environ)
    assert main(["run", "PinLock", "--build", "opec",
                 "--backend", "pmp"]) == 0
    assert "REPRO_BACKEND" not in os.environ
    assert dict(os.environ) == before
    out = capsys.readouterr().out
    assert "halt=" in out


def test_backend_flag_changes_cycles(capsys):
    """The explicit parameter must actually reach the simulator: the
    PMP substrate prices switches differently from the MPU."""
    assert main(["run", "PinLock", "--build", "opec",
                 "--backend", "mpu"]) == 0
    mpu_out = capsys.readouterr().out
    assert main(["run", "PinLock", "--build", "opec",
                 "--backend", "pmp"]) == 0
    pmp_out = capsys.readouterr().out
    mpu_cycles = int(mpu_out.split("cycles=")[1].split()[0])
    pmp_cycles = int(pmp_out.split("cycles=")[1].split()[0])
    assert mpu_cycles != pmp_cycles


def test_campaign_command(capsys, tmp_path):
    base = tmp_path / "camp"
    assert main(["campaign", "--seed", "11", "--firmwares", "1",
                 "--attacks", "global", "--backends", "mpu",
                 "--jobs", "1", "--output", str(base)]) == 0
    out = capsys.readouterr().out
    assert "Differential security campaign" in out
    assert "verdicts" in out
    report = (tmp_path / "camp.txt").read_text()
    assert "seed 11" in report
    rows = (tmp_path / "camp.tsv").read_text().splitlines()
    assert rows[0].startswith("record\tfirmware\tattack")
    assert any(line.startswith("cell\t") for line in rows)


def test_campaign_prints_telemetry_footer(capsys, monkeypatch):
    """The campaign command surfaces the aggregated compile/cache
    telemetry below the report — stdout only, so the report files on
    disk stay byte-identical to the pre-telemetry format."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_BLOCKCOMPILE", "on")
    assert main(["campaign", "--seed", "11", "--firmwares", "1",
                 "--attacks", "global", "--backends", "mpu",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "worker telemetry" in out
    assert "blockcompile." in out


def test_trace_buf_rejected_loudly():
    with pytest.raises(ValueError, match="invalid ring capacity"):
        main(["trace", "PinLock", "--buf", "0"])
    with pytest.raises(ValueError, match="--buf"):
        main(["trace", "PinLock", "--buf", "-8"])


def test_fleet_command(capsys, tmp_path, monkeypatch):
    # An empty store, so worker 1 simulates every lane.
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    base = tmp_path / "fleet"
    assert main(["fleet", "PinLock", "--jobs", "1", "--backends", "mpu",
                 "--output", str(base)]) == 0
    out = capsys.readouterr().out
    assert "PinLock:opec:mpu" in out
    assert "host domain" in out
    trace = (tmp_path / "fleet.json").read_text()
    assert trace.startswith("{")
    dashboard = (tmp_path / "fleet.txt").read_text()
    assert "worker1" in dashboard


def test_fleet_knobs_rejected_loudly():
    with pytest.raises(ValueError, match="invalid worker count"):
        main(["fleet", "PinLock", "--jobs", "0"])
    with pytest.raises(ValueError, match="invalid ring capacity"):
        main(["fleet", "PinLock", "--jobs", "1", "--buf", "-5"])


def test_bench_lanes_default():
    args = build_parser().parse_args(["bench", "batch", "PinLock"])
    assert args.lanes == 8


def test_bench_lanes_explicit():
    args = build_parser().parse_args(
        ["bench", "batch", "PinLock", "--lanes", "5"])
    assert args.lanes == 5


@pytest.mark.parametrize("raw", ["0", "-2", "many", "2.5"])
def test_bench_lanes_rejected_loudly(capsys, raw):
    """Anything but a positive integer stops at the parser instead of
    running a different number of lanes."""
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "batch", "PinLock", "--lanes", raw])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--lanes" in err and "not a positive integer" in err


def test_eval_table3(capsys):
    assert main(["eval", "table3"]) == 0
    out = capsys.readouterr().out
    assert "#Icall" in out


def test_dump_module(capsys, tmp_path):
    path = tmp_path / "pinlock.oir"
    assert main(["dump", "PinLock", "--output", str(path)]) == 0
    text = path.read_text()
    assert "define void @Unlock_Task()" in text
    # The dump parses back into a verifiable module.
    from repro.ir import parse_module, verify_module

    verify_module(parse_module(text))


def test_dump_single_function(capsys):
    assert main(["dump", "PinLock", "--function", "do_unlock"]) == 0
    out = capsys.readouterr().out
    assert "@do_unlock" in out


def test_profile_command(capsys):
    assert main(["profile", "PinLock", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "Cycle profile" in out
    assert "UART_Read_Byte" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
