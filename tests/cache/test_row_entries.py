"""Row entries: each application's finished §6 rows as one store entry.

A warm ``compute_all_rows`` reads one row entry per application and
builds, simulates and decodes nothing else.  A corrupt or missing row
entry falls back to the run entries (or to simulation) and yields the
same rows.  Every test works on a private copy of one store that a
cold serial ``compute_all_rows`` filled.
"""

import shutil

import pytest

from repro import cache
from repro.apps import pinlock
from repro.cache.store import ArtifactStore
from repro.eval import figure11, workloads
from repro.hw.backend import active_backend
from repro.ir import I32
from repro.pipeline import RunResult

DIAGNOSTICS = ("cache", "compile", "telemetry")


def _tables(rows: dict) -> dict:
    return {key: value for key, value in rows.items()
            if key not in DIAGNOSTICS}


def _row_paths(store: ArtifactStore) -> list:
    profile = workloads.active_profile()
    return [store.path_for(workloads._rows_digest(
                workloads.build_app(name, profile), name, profile,
                active_backend()))
            for name in workloads.APP_NAMES]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """(store root, rows) of one cold serial ``compute_all_rows``."""
    root = tmp_path_factory.mktemp("row-entries") / "store"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE", str(root))
        workloads.clear_caches()
        cache.reset_store_state()
        try:
            rows = workloads.compute_all_rows(jobs=1)
        finally:
            workloads.clear_caches()
            cache.reset_store_state()
    return root, rows


@pytest.fixture
def store(cold, tmp_path, monkeypatch):
    """A private copy of the cold store, every in-process memo reset,
    so the next ``compute_all_rows`` starts from the disk alone."""
    root, _rows = cold
    shutil.copytree(root, tmp_path / "store")
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    workloads.clear_caches()
    cache.reset_store_state()
    yield cache.active_store()
    workloads.clear_caches()
    cache.reset_store_state()


@pytest.fixture
def spies(monkeypatch):
    """Counts simulations and builds, and records the type of every
    object the store decodes."""
    seen = {"run_image": 0, "trace_tasks": 0, "build": 0, "decoded": []}

    def counting(key, fn):
        def spy(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(workloads, "run_image",
                        counting("run_image", workloads.run_image))
    monkeypatch.setattr(figure11, "trace_tasks",
                        counting("trace_tasks", figure11.trace_tasks))
    for name in ("build_opec", "build_vanilla", "build_aces"):
        monkeypatch.setattr(workloads, name,
                            counting("build", getattr(workloads, name)))
    decode = ArtifactStore._decode

    def recording_decode(raw):
        obj = decode(raw)
        seen["decoded"].append(type(obj))
        return obj

    monkeypatch.setattr(ArtifactStore, "_decode",
                        staticmethod(recording_decode))
    return seen


def test_warm_rows_read_one_entry_per_app(cold, store, spies):
    _root, cold_rows = cold
    warm = workloads.compute_all_rows(jobs=1)
    assert _tables(warm) == _tables(cold_rows)
    assert (spies["run_image"], spies["trace_tasks"], spies["build"]) \
        == (0, 0, 0)
    assert spies["decoded"] == [dict] * len(workloads.APP_NAMES)
    counters = warm["cache"]
    assert (counters["hits"], counters["misses"], counters["stores"]) \
        == (len(workloads.APP_NAMES), 0, 0)
    assert all(path.is_file() for path in _row_paths(store))


def test_warm_rows_at_two_jobs_start_no_worker(cold, store,
                                               no_workers_or_simulation):
    _root, cold_rows = cold
    warm = workloads.compute_all_rows(jobs=2)
    assert _tables(warm) == _tables(cold_rows)
    assert [envelope.label for envelope in warm["telemetry"]] == \
        ["conductor", *workloads.APP_NAMES]
    # Each app's envelope carries its own row-entry hit.
    assert [envelope.cache_counters.get("hits")
            for envelope in warm["telemetry"][1:]] == \
        [1] * len(workloads.APP_NAMES)
    assert (warm["cache"]["hits"], warm["cache"]["misses"]) == \
        (len(workloads.APP_NAMES), 0)


def test_one_missing_row_entry_is_computed_in_process(
        cold, store, spies, monkeypatch):
    """With one row entry gone, the caller computes that app itself:
    no pool starts for a single miss."""
    import concurrent.futures

    _root, cold_rows = cold

    def forbidden(*args, **kwargs):
        raise AssertionError("started a worker pool for one miss")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    _row_paths(store)[-1].unlink()
    again = workloads.compute_all_rows(jobs=2)
    assert _tables(again) == _tables(cold_rows)
    assert spies["run_image"] == 0            # rows from the run entries
    assert again["cache"]["stores"] == 1
    *served, computed = again["telemetry"][1:]
    assert [envelope.cache_counters for envelope in served] == \
        [{"hits": 1, "bytes_read": envelope.cache_counters["bytes_read"]}
         for envelope in served]
    # The miss's caller-side lookup is charged to its app's envelope.
    assert computed.cache_counters["misses"] >= 1
    assert computed.cache_counters["stores"] == 1


def test_corrupt_row_entry_is_recomputed(cold, store, spies):
    _root, cold_rows = cold
    path = _row_paths(store)[0]
    path.write_bytes(b"opec-cache-v1\n" + b"0" * 64 + b"\ngarbage")
    again = workloads.compute_all_rows(jobs=1)
    assert store.counters.corrupt == 1
    assert _tables(again) == _tables(cold_rows)
    # Recomputed from the first app's run entries, and stored again.
    assert RunResult in spies["decoded"]
    assert spies["run_image"] == 0
    assert path.is_file()
    assert again["cache"]["stores"] == 1


def test_rows_rebuilt_from_run_entries(cold, store, spies):
    """Without row entries the rows come from rehydrated runs, which
    must give the cold rows too; the run entries stay covered here
    since a warm export no longer reads them."""
    _root, cold_rows = cold
    for path in _row_paths(store):
        path.unlink()
    rebuilt = workloads.compute_all_rows(jobs=1)
    assert _tables(rebuilt) == _tables(cold_rows)
    assert (spies["run_image"], spies["trace_tasks"]) == (0, 0)
    assert spies["decoded"].count(RunResult) > 0
    assert rebuilt["cache"]["misses"] == len(workloads.APP_NAMES)
    assert rebuilt["cache"]["stores"] == len(workloads.APP_NAMES)


def test_rows_digest_covers_backend_profile_and_module():
    app = pinlock.build(rounds=5)
    digest = workloads._rows_digest(app, "PinLock", "quick", "mpu")
    assert workloads._rows_digest(app, "PinLock", "quick", "mpu") == digest
    assert workloads._rows_digest(app, "PinLock", "quick", "pmp") != digest
    assert workloads._rows_digest(app, "PinLock", "paper", "mpu") != digest
    assert workloads._run_digest(app, "PinLock", "opec", "quick",
                                 "mpu") != digest
    app.module.add_global("row_digest_probe", I32, 1)
    cache.clear_digest_memos()
    assert workloads._rows_digest(app, "PinLock", "quick", "mpu") != digest
