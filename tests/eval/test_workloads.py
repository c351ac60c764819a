"""Tests for workload profiles and build/run caching."""

import dataclasses
import os

import pytest

from repro.eval import backends, workloads
from repro.hw.backend import KNOWN_BACKENDS
from repro.interp import blockcompile


def test_profiles_change_workload_scale():
    quick = workloads.build_app("PinLock", profile="quick")
    paper = workloads.build_app("PinLock", profile="paper")
    assert quick.module is not paper.module
    # Same structure, different stop conditions (rounds compiled into
    # main's loop bound).
    assert len(quick.specs) == len(paper.specs)


def test_builds_are_cached_per_profile():
    a = workloads.build_app("PinLock", profile="quick")
    b = workloads.build_app("PinLock", profile="quick")
    assert a is b
    artifacts_a = workloads.opec_artifacts("PinLock", profile="quick")
    artifacts_b = workloads.opec_artifacts("PinLock", profile="quick")
    assert artifacts_a is artifacts_b


def test_artifacts_are_internally_consistent():
    """With the content-addressed store, a warm build's objects are
    fresh copies rather than the app's own module — but every object
    *inside* one artifact bundle must reference the same module."""
    artifacts = workloads.opec_artifacts("PinLock", profile="quick")
    assert artifacts.image.module is artifacts.module
    for op in artifacts.operations:
        for func in op.functions:
            assert artifacts.module.functions[func.name] is func
    aces = workloads.aces_artifacts("PinLock", "ACES2", profile="quick")
    assert aces.image.module is aces.module
    for compartment in aces.compartments:
        for func in compartment.functions:
            assert aces.module.functions[func.name] is func


def test_build_app_rejects_unknown_profile(monkeypatch):
    with pytest.raises(ValueError, match="unknown workload profile"):
        workloads.build_app("PinLock", profile="fast")
    monkeypatch.setenv("REPRO_PROFILE", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        workloads.build_app("CoreMark")


def test_run_cache_returns_same_result():
    first = workloads.run_build("PinLock", "vanilla", profile="quick")
    second = workloads.run_build("PinLock", "vanilla", profile="quick")
    assert first is second


def test_clear_caches_resets():
    workloads.build_app("PinLock", profile="quick")
    workloads.clear_caches()
    rebuilt = workloads.build_app("PinLock", profile="quick")
    assert rebuilt is workloads.build_app("PinLock", profile="quick")


def test_active_profile_env(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "paper")
    assert workloads.active_profile() == "paper"
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    assert workloads.active_profile() == "quick"


def test_repro_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert workloads.repro_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "")
    assert workloads.repro_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert workloads.repro_jobs() == 4
    cpus = os.cpu_count() or 1
    for spelling in ("0", "auto", "AUTO"):
        monkeypatch.setenv("REPRO_JOBS", spelling)
        assert workloads.repro_jobs() == cpus


@pytest.mark.parametrize("raw", ["bogus", "-3", "2.5", "four"])
def test_repro_jobs_typo_raises(monkeypatch, raw):
    """A typo must not silently serialise every fan-out."""
    monkeypatch.setenv("REPRO_JOBS", raw)
    with pytest.raises(ValueError, match=r"invalid worker count .*REPRO_JOBS"):
        workloads.repro_jobs()


def _profile_seen(name):
    return name, os.environ.get("REPRO_PROFILE")


def test_map_apps_workers_see_the_parent_profile(monkeypatch):
    """Pool workers inherit the parent's environment as it is when
    ``map_apps`` runs; nothing re-exports the profile to them."""
    monkeypatch.setenv("REPRO_PROFILE", "paper")
    results = workloads.map_apps(_profile_seen, ["PinLock", "CoreMark"],
                                 jobs=2)
    assert [seen for seen, _envelope in results] == \
        [("PinLock", "paper"), ("CoreMark", "paper")]


def test_app_row_task_simulates_each_run_once(monkeypatch):
    """Store off, one app's row task simulates every distinct
    ``(kind, backend)`` run its cells and rows ask for exactly once."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    workloads.clear_caches()
    simulated = []
    run_image = workloads.run_image

    def counting_run_image(image, **kwargs):
        simulated.append((getattr(image, "strategy", image.kind),
                          kwargs["backend"]))
        return run_image(image, **kwargs)

    monkeypatch.setattr(workloads, "run_image", counting_run_image)
    try:
        workloads._compute_app_rows("PinLock", "mpu")
    finally:
        workloads.clear_caches()
    assert sorted(simulated) == sorted({
        *(("opec", backend) for backend in KNOWN_BACKENDS),
        *((kind, "mpu") for kind in workloads._run_kinds("PinLock")),
    })


def test_compute_all_rows_sections_and_order():
    rows = workloads.compute_all_rows(jobs=1)
    assert set(rows) == {"table1", "figure9", "table2", "figure10",
                         "figure11", "table3", "backends", "cache",
                         "compile", "telemetry"}
    assert set(rows["cache"]) == {"hits", "misses", "stores", "corrupt",
                                  "bytes_read", "bytes_written"}
    # Envelope protocol: conductor first, then one per app in order.
    envelopes = rows["telemetry"]
    assert [env.label for env in envelopes] == \
        ["conductor", *workloads.APP_NAMES]
    assert [env.worker for env in envelopes] == \
        list(range(len(workloads.APP_NAMES) + 1))
    assert [r.app for r in rows["table1"]] == \
        [*workloads.APP_NAMES, "Average"]
    assert [r.app for r in rows["table3"]] == list(workloads.APP_NAMES)
    assert [(r.app, r.backend) for r in rows["backends"]] == [
        *((app, backend) for app in workloads.APP_NAMES
          for backend in KNOWN_BACKENDS),
        *(("Average", backend) for backend in KNOWN_BACKENDS)]
    # Each app task drops its runs once its rows exist.
    assert not [key for key in workloads._run_cache
                if key[0] in workloads.APP_NAMES]


def test_compute_all_rows_aggregates_compile_metrics(monkeypatch):
    """Interpreter compile metrics used to die with each worker's
    interpreters; ``compute_all_rows`` must fold them into the merged
    output.  Cache off so the runs actually execute (and compile);
    compilation pinned on so the counters are nonzero even when the CI
    matrix runs the suite with the tiers disabled."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_BLOCKCOMPILE", "on")
    monkeypatch.setenv("REPRO_TRACEFUSE", "on")
    workloads.clear_caches()
    # Empty the per-process code memos so the run compiles sources too.
    blockcompile._block_code.cache_clear()
    blockcompile._source_code.cache_clear()
    try:
        rows = workloads.compute_all_rows(jobs=1)
        compile_totals = rows["compile"]
        assert compile_totals.get("blockcompile.blocks_compiled", 0) > 0
        assert compile_totals.get("blockcompile.block_entries", 0) > 0
        assert compile_totals["blockcompile.source_chars"] > \
            compile_totals["blockcompile.sources_compiled"] > 0
        assert list(compile_totals) == sorted(compile_totals)
    finally:
        workloads.clear_caches()


def test_compute_all_rows_parallel_merge_identical(tmp_path, monkeypatch):
    """The REPRO_JOBS fan-out contract: a process-pool evaluation must
    merge into exactly the rows the serial path computes (row
    dataclasses compare by value, floats included).  Each call gets
    its own empty store, so the pool computes its rows instead of
    reading the row entries the serial call wrote."""
    def cold_rows(jobs, store):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / store))
        workloads.clear_caches()
        rows = workloads.compute_all_rows(jobs=jobs)
        # Every app task missed its row entry and stored what it
        # computed.
        assert all(envelope.cache_counters["stores"] > 0
                   for envelope in rows["telemetry"][1:])
        return rows

    serial = cold_rows(1, "serial")
    parallel = cold_rows(2, "parallel")
    # Cache traffic, compile activity, and the telemetry envelopes
    # legitimately differ between the two paths (they count work per
    # process), and so does Table 3's analysis wall-clock, a host
    # measurement; every other *table* cell must merge identically.
    for rows in (serial, parallel):
        for diagnostic in ("cache", "compile", "telemetry"):
            rows.pop(diagnostic)
        rows["table3"] = [dataclasses.replace(row, solve_time_s=0.0)
                          for row in rows["table3"]]
    assert serial == parallel
    # The row tasks' backend cells are the stand-alone matrix.
    matrix = backends.compute_matrix(jobs=1)
    assert serial["backends"] == matrix
    assert parallel["backends"] == matrix
    assert not [key for key in workloads._run_cache
                if key[0] in workloads.APP_NAMES]
