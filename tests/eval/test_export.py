"""Tests for the results exporter."""

import os
import subprocess
import sys
from pathlib import Path

from repro.eval.export import export_all
from repro.eval.tracing import record_app_trace
from repro.obs import chrome_trace, event_tsv
from repro.obs.fleet import sim_dashboard_section, sim_trace_section

REPO = Path(__file__).resolve().parents[2]


def test_export_writes_text_and_tsv(tmp_path):
    written = export_all(str(tmp_path))
    names = {p.split("/")[-1] for p in written}
    for target in ("table1", "table2", "table3",
                   "figure9", "figure10", "figure11"):
        assert f"{target}.txt" in names
        assert f"{target}.tsv" in names
    tsv = (tmp_path / "figure9.tsv").read_text().splitlines()
    assert tsv[0].split("\t") == ["app", "runtime_pct", "flash_pct",
                                  "sram_pct"]
    assert any(line.startswith("PinLock") for line in tsv)
    table1_txt = (tmp_path / "table1.txt").read_text()
    assert "#OPs" in table1_txt
    assert "campaign_smoke.txt" in names
    assert "campaign_smoke.tsv" in names
    campaign_txt = (tmp_path / "campaign_smoke.txt").read_text()
    assert "PASS (OPEC strictly more)" in campaign_txt
    assert "PASS (OPEC strictly lower)" in campaign_txt


def _sim_bytes(directory: Path) -> dict[str, str]:
    """Every exported file, the fleet files cut to their sim sections."""
    files = {path.name: path.read_text() for path in directory.iterdir()}
    files["fleet_pinlock.json"] = sim_trace_section(
        files["fleet_pinlock.json"])
    files["fleet_pinlock.txt"] = sim_dashboard_section(
        files["fleet_pinlock.txt"])
    return files


def test_warm_export_starts_no_worker_and_simulates_nothing(
        tmp_path, monkeypatch, request):
    monkeypatch.setenv("REPRO_JOBS", "2")
    export_all(str(tmp_path / "first"))
    request.getfixturevalue("no_workers_or_simulation")
    export_all(str(tmp_path / "warm"))
    assert _sim_bytes(tmp_path / "warm") == _sim_bytes(tmp_path / "first")


def test_export_trace_files_are_the_traced_pinlock_run(tmp_path):
    """The PinLock trace files come from the fleet's OPEC lane; they
    must be what a lone traced run renders."""
    export_all(str(tmp_path))
    recorder, result = record_app_trace("PinLock", "opec")
    assert (tmp_path / "trace_pinlock.json").read_text() == \
        chrome_trace(recorder)
    assert (tmp_path / "trace_pinlock.tsv").read_text() == \
        event_tsv(recorder)
    assert (tmp_path / "metrics_pinlock.txt").read_text() == \
        result.machine.metrics.render(
            f"PinLock [opec] — halt={result.halt_code} "
            f"cycles={result.cycles}") + "\n"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, check=True)


def test_package_import_leaves_entry_points_unimported():
    """``python -m repro.eval.<module>`` runs the module once only
    when importing the package has not already imported it."""
    proc = _python("-c", "import sys, repro.eval\n"
                         "print(' '.join(sys.modules))")
    loaded = set(proc.stdout.split())
    for module in ("export", "table1", "table2", "table3", "figure9",
                   "figure10", "figure11", "profiler"):
        assert f"repro.eval.{module}" not in loaded
    assert "repro.eval.workloads" in loaded


def test_entry_point_runs_without_runpy_warning():
    proc = _python("-W", "error::RuntimeWarning", "-m", "repro.eval.table3")
    assert proc.stdout.startswith("Table 3")
    assert "RuntimeWarning" not in proc.stderr
