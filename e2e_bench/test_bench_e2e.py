"""Checks of the end-to-end benchmark harness itself.

Run from the repository root with ``pytest e2e_bench/test_bench_e2e.py``.
None of these runs a workload; they cover the layer map, the metric
names against ``BENCHMARK.json``, the ``--compare`` verdicts, the
export op check, and the refusal to run outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_e2e  # noqa: E402
import layers  # noqa: E402

SPEC = bench_e2e.load_spec()
REPRO = bench_e2e.SRC / "repro"


def _names(section: str) -> set[str]:
    return {entry["name"] for entry in SPEC[section]}


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = sorted(path.relative_to(REPRO).as_posix()
                     for path in REPRO.rglob("*.py"))
    assert modules
    ambiguous = {module: layers.repro_layer(module) for module in modules
                 if len(layers.repro_layer(module)) != 1}
    assert ambiguous == {}
    stale = [entry for entries in layers.LAYER_PATHS.values()
             for entry in entries
             if not any(module == entry or (entry.endswith("/")
                        and module.startswith(entry)) for module in modules)]
    assert stale == []


def test_layer_map_charges_generated_and_pool_code():
    layer_of = layers.LayerMap(str(REPRO))
    assert layer_of(str(REPRO / "interp" / "tracefuse.py")) == \
        "interp.codegen"
    assert layer_of("<block @main:entry>") == "interp"
    assert layer_of("/usr/lib/python3/concurrent/futures/process.py") == \
        "pool"
    assert layer_of("/usr/lib/python3/json/decoder.py") == "other"


def test_sampler_attributes_the_whole_interval():
    sampler = layers.LayerSampler(layers.LayerMap(str(REPRO)))
    with sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert sampler.wall_s >= 0.2
    assert abs(sum(sampler.self_s.values()) - sampler.wall_s) < 1e-6


def _sample(wall: float, trace=None) -> bench_e2e.Sample:
    return bench_e2e.Sample(wall_s=wall, cpu_s=wall * 1.5, peak_rss_mb=100.0,
                            attempted=4, failed=0, trace=trace)


def test_emitted_metric_names_match_benchmark_json():
    set_doc = {"rounds": 2, "setup_s": [0.6, 0.7], "workloads": {
        workload: {"wall_s": [1.0, 1.1], "cpu_s": [1.5, 1.6],
                   "peak_rss_mb": [100.0, 101.0], "attempted": 8,
                   "failed": 0}
        for workload in bench_e2e.WORKLOADS}}
    e2e = json.loads(bench_e2e.result_line(SPEC, "end_to_end", {
        "paper_io": (bench_e2e.e2e_metrics(set_doc, "paper_io"), 8, 0)}))
    assert set(e2e["metrics"]) == _names("end_to_end")
    assert (e2e["correct"], e2e["attempted"], e2e["failed"]) == (True, 8, 0)

    traced_metrics = layers.layer_metrics(
        layers.LayerSampler(layers.LayerMap(str(REPRO))), layers.Probes(),
        {"hits": 3, "misses": 1})
    trace = bench_e2e.trace_report(
        _sample(2.2, {"metrics": traced_metrics, "wall_s": 2.0}),
        _sample(2.0), _sample(1.2), jobs=2)
    per_layer = json.loads(bench_e2e.result_line(SPEC, "per_layer", {
        "campaign": (trace["metrics"], trace["attempted"],
                     trace["failed"])}))
    assert set(per_layer["metrics"]) == _names("per_layer")
    assert per_layer["metrics"]["cache.hit_ratio"]["value"] == 0.75
    assert per_layer["metrics"]["trace_overhead"]["value"] == 1.1
    assert per_layer["metrics"]["pool.utilisation"]["value"] == 0.75
    assert per_layer["attempted"] == 12


def test_compare_verdicts():
    base = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert bench_e2e.verdict(base, list(base), 0.1) == "within bound"
    assert bench_e2e.verdict(base, [v * 1.2 for v in base], 0.1) == "worse"
    assert bench_e2e.verdict(base, [v * 0.8 for v in base], 0.1) == "better"
    # Slightly slower but inside the bound is not a regression.
    assert bench_e2e.verdict(base, [v * 1.05 for v in base], 0.1) == \
        "within bound"
    # The runs overlap, but 24 of 25 pairs favour the new runs and the
    # medians differ by more than the base runs' own spread.
    assert bench_e2e.verdict(base, [9.5, 9.6, 9.7, 9.4, 9.95], 0.1) == \
        "better"
    assert bench_e2e.verdict(base, [9.8, 9.9, 10.0, 9.85, 9.95], 0.1) == \
        "within bound"
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0]
    assert bench_e2e.verdict(noisy, [9.0, 12.5, 10.5, 8.5, 11.5], 0.1) == \
        "unresolved"
    # A wide spread is still resolved when every new run beats every
    # base run.
    assert bench_e2e.verdict(noisy, [5.0, 7.0, 6.0, 5.5, 6.5], 0.1) == \
        "better"
    # "higher is better" flips the direction.
    assert bench_e2e.verdict(base, [v * 1.2 for v in base], 0.1,
                             better="higher") == "better"


def test_compare_rows_cover_each_workload_metric_and_fail_ratio():
    def report(scale: float, failed: int) -> dict:
        return {"rounds": {"sets": [{
            "rounds": 3, "setup_s": [0.6, 0.61, 0.62],
            "workloads": {"paper_io": {
                "wall_s": [16.0 * scale, 16.1 * scale, 16.2 * scale],
                "cpu_s": [16.0, 16.1, 16.2],
                "peak_rss_mb": [36.0, 36.0, 36.1],
                "attempted": 12, "failed": failed}}}]}}

    rows = bench_e2e.compare(SPEC, report(1.0, 0), report(1.3, 1))
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in rows}
    assert verdicts == {
        ("setup", "setup_s"): "within bound",
        ("paper_io", "wall_s"): "worse",
        ("paper_io", "cpu_s"): "within bound",
        ("paper_io", "peak_rss_mb"): "within bound",
        ("paper_io", "fail_ratio"): "worse",
    }


def test_tampered_results_file_counts_as_exactly_one_failed_op(tmp_path):
    fresh = tmp_path / "out"
    shutil.copytree(bench_e2e.RESULTS, fresh)
    expected = bench_e2e.committed_rows()
    count = len(expected)
    assert bench_e2e.check_export(fresh, expected) == (count, 0)
    # Table 3's host wall-clock column is masked: not a wrong output.
    lines = (fresh / "table3.tsv").read_text().splitlines()
    fields = lines[1].split("\t")
    fields[3] = "999.999"
    lines[1] = "\t".join(fields)
    (fresh / "table3.tsv").write_text("\n".join(lines) + "\n")
    assert bench_e2e.check_export(fresh, expected) == (count, 0)
    table1 = fresh / "table1.tsv"
    table1.write_text(table1.read_text().replace("\t", "\t1", 1))
    assert bench_e2e.check_export(fresh, expected) == (count, 1)
    (fresh / "figure9.txt").unlink()
    assert bench_e2e.check_export(fresh, expected) == (count, 2)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(bench_e2e.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/bench_e2e.py", "--workload",
         "paper_io", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
