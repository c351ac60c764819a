"""Tests for fleet telemetry envelopes, trace fusion, and roll-up.

The load-bearing contract: the sim-domain serialization — fused trace
section and dashboard section — is byte-identical for any worker
count, while the host-domain sections are cleanly separable for
masking.
"""

import json
import pickle
import shutil

import pytest

from repro import cache
from repro.obs import fleet
from repro.obs.events import DOMAIN_HOST, FLEET_RUN
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, trace_capacity


@pytest.fixture(autouse=True)
def _fresh_collector():
    fleet.reset()
    yield
    fleet.reset()


class TestCapture:
    def test_capture_collects_recorded_simulations(self):
        token = fleet.begin_capture()
        metrics = MetricsRegistry()
        metrics.counter("machine.loads").value = 5
        compile_metrics = MetricsRegistry()
        compile_metrics.counter("blockcompile.blocks_compiled").value = 2
        fleet.record_simulation(metrics, compile_metrics)
        envelope = fleet.end_capture(token, worker=3, label="w3")
        assert envelope.worker == 3
        assert envelope.label == "w3"
        assert envelope.metrics.counters["machine.loads"].value == 5
        assert envelope.compile_counters == \
            {"blockcompile.blocks_compiled": 2}
        assert envelope.busy_us >= 0

    def test_captures_are_exclusive_when_nested(self, tmp_path,
                                                monkeypatch):
        """An inner capture's cache traffic must not be double-counted
        by the enclosing capture: summing a call's envelopes has to
        reproduce the plain process totals exactly once."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        from repro import cache

        store = cache.active_store()
        outer = fleet.begin_capture()
        store.get("0" * 64)                        # outer's own miss
        inner = fleet.begin_capture()
        store.get("1" * 64)                        # inner's miss
        store.get("2" * 64)
        inner_env = fleet.end_capture(inner, label="inner")
        outer_env = fleet.end_capture(outer, label="outer")
        assert inner_env.cache_counters.get("misses") == 2
        assert outer_env.cache_counters.get("misses") == 1

    def test_end_capture_restores_previous_collector(self):
        before = fleet.collector()
        token = fleet.begin_capture()
        assert fleet.collector() is not before
        fleet.end_capture(token)
        assert fleet.collector() is before

    def test_envelope_pickles(self):
        token = fleet.begin_capture()
        metrics = MetricsRegistry()
        metrics.histogram("h").observe(9)
        fleet.record_simulation(metrics)
        recorder = FlightRecorder(16)
        recorder.instant("k", "e", 5)
        envelope = fleet.end_capture(
            token, worker=1, label="w",
            lanes=[fleet.LaneTelemetry(name="a:opec:mpu", backend="mpu",
                                       events=recorder.events())])
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.label == "w"
        assert clone.metrics.histograms["h"].count == 1
        assert clone.lanes[0].events[0].name == "e"


class TestValidateJobs:
    def test_rejects_non_positive(self):
        for bad in (0, -2, "0", "nope", None):
            with pytest.raises(ValueError,
                               match="invalid worker count"):
                fleet.validate_jobs(bad)

    def test_accepts_positive(self):
        assert fleet.validate_jobs(3) == 3
        assert fleet.validate_jobs("2", "--jobs") == 2


class TestWallSpan:
    def test_emits_begin_end_pair_with_wall_ts(self):
        recorder = FlightRecorder(8)
        with fleet.wall_span(recorder, FLEET_RUN, "x", lanes=2):
            pass
        events = recorder.events()
        assert [e.ph for e in events] == ["B", "E"]
        assert all(e.domain == DOMAIN_HOST for e in events)
        assert events[1].ts >= events[0].ts
        assert events[0].args == {"lanes": 2}

    def test_none_recorder_is_a_noop(self):
        with fleet.wall_span(None, FLEET_RUN, "x"):
            pass


class TestLaneSpecs:
    def test_pinlock_grid(self):
        specs = fleet.fleet_lane_specs("PinLock", "quick", ("mpu", "pmp"))
        assert len(specs) == 10                    # 5 kinds x 2 backends
        assert ("PinLock", "vanilla", "mpu") in specs
        assert ("PinLock", "ACES3", "pmp") in specs

    def test_unknown_target_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown fleet target"):
            fleet.fleet_lane_specs("NoSuchApp", "quick", ("mpu",))


class TestRunFleet:
    """End-to-end fleet runs (inline worker: jobs=1)."""

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        """Against an empty store, so every lane simulates in worker 1."""
        fleet.reset()
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CACHE",
                         str(tmp_path_factory.mktemp("fleet") / "store"))
            return fleet.run_fleet("PinLock", jobs=1, profile="quick",
                                   backends=("mpu",))

    def test_lane_grid_and_outcomes(self, result):
        lanes = result.lanes
        assert [lane.name for lane in lanes] == sorted(
            f"PinLock:{kind}:mpu"
            for kind in ("vanilla", "opec", "ACES1", "ACES2", "ACES3"))
        assert all(not lane.faulted for lane in lanes)
        assert all(lane.cycles > 0 for lane in lanes)
        assert all(lane.events for lane in lanes)

    def test_fused_trace_loads_and_has_sim_pid(self, result):
        document = json.loads(fleet.fuse_trace(result))
        pids = {entry.get("pid") for entry in document["traceEvents"]}
        assert 0 in pids                           # sim domain
        assert 2 in pids                           # worker 1's host pid
        tids = {entry["tid"] for entry in document["traceEvents"]
                if entry.get("pid") == 0 and entry.get("ph") != "M"}
        assert tids == set(range(1, len(result.lanes) + 1))

    def test_sim_trace_section_drops_host_pids(self, result):
        section = json.loads(fleet.sim_trace_section(
            fleet.fuse_trace(result)))
        assert {entry["pid"] for entry in section["traceEvents"]} == {0}
        assert all(key.startswith("sim_") for key in section["otherData"])

    def test_dashboard_has_marker_and_sections(self, result):
        dashboard = fleet.render_dashboard(result)
        assert fleet.HOST_SECTION_MARKER in dashboard
        sim = fleet.sim_dashboard_section(dashboard)
        assert "PinLock:opec:mpu" in sim
        assert "switch-cost histograms per backend" in sim
        assert fleet.HOST_SECTION_MARKER not in sim
        host = dashboard.split(fleet.HOST_SECTION_MARKER)[1]
        assert "worker1" in host

    def test_no_drop_warning_when_every_ring_kept_up(self, result):
        assert all(lane.dropped == 0 for lane in result.lanes)
        assert "warning:" not in fleet.render_dashboard(result)

    def test_tiny_ring_warns_of_dropped_events(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
        fleet.reset()
        tiny = fleet.run_fleet("PinLock", jobs=1, profile="quick",
                               backends=("mpu",), capacity=16)
        truncated = [lane for lane in tiny.lanes if lane.dropped]
        assert truncated
        lines = fleet.render_dashboard(tiny).splitlines()
        assert lines[2].startswith("lanes: ")
        assert lines[3] == (
            f"warning: {sum(lane.dropped for lane in truncated)} sim "
            f"events dropped in {len(truncated)} lanes (ring overflow); "
            f"those lanes' traces start mid-run")
        # The fused trace marks each cut: one ``trace.truncated``
        # instant at the lane's first kept event, with its drop count.
        trace = fleet.fuse_trace(tiny)
        document = json.loads(trace)
        tids = {entry["args"]["name"]: entry["tid"]
                for entry in document["traceEvents"]
                if entry.get("pid") == 0 and entry["ph"] == "M"
                and entry["name"] == "thread_name"}
        markers = [entry for entry in document["traceEvents"]
                   if entry["name"] == "trace.truncated"]
        assert sorted((entry["tid"], entry["ts"], entry["args"]["dropped"])
                      for entry in markers) == sorted(
            (tids[lane.name], lane.events[0].ts, lane.dropped)
            for lane in truncated)
        assert all(entry["pid"] == 0 and entry["ph"] == "i"
                   for entry in markers)
        # A lane served from the store renders the same marker.
        warm = fleet.run_fleet("PinLock", jobs=1, profile="quick",
                               backends=("mpu",), capacity=16)
        assert len(warm.parent.lanes) == len(tiny.lanes)
        assert fleet.sim_trace_section(fleet.fuse_trace(warm)) == \
            fleet.sim_trace_section(trace)

    def test_no_truncation_marker_when_nothing_dropped(self, result):
        assert "trace.truncated" not in fleet.fuse_trace(result)

    def test_no_trace_drops_lane_events_but_keeps_metrics(self):
        fleet.reset()
        result = fleet.run_fleet("PinLock", jobs=1, profile="quick",
                                 backends=("mpu",), trace=False)
        assert all(not lane.events for lane in result.lanes)
        assert any(lane.metrics.counters for lane in result.lanes)

    def test_worker_count_parity_of_sim_sections(self, result, tmp_path,
                                                 monkeypatch):
        """Same lanes split over two workers: sim serialization must
        be byte-identical, host domain must show both workers.  An
        empty store, so the two workers simulate every lane."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
        fleet.reset()
        two = fleet.run_fleet("PinLock", jobs=2, profile="quick",
                              backends=("mpu",))
        assert fleet.sim_trace_section(fleet.fuse_trace(two)) == \
            fleet.sim_trace_section(fleet.fuse_trace(result))
        assert fleet.sim_dashboard_section(fleet.render_dashboard(two)) \
            == fleet.sim_dashboard_section(fleet.render_dashboard(result))
        document = json.loads(fleet.fuse_trace(two))
        worker_pids = {entry.get("pid")
                       for entry in document["traceEvents"]} - {0, 1}
        assert len(worker_pids) >= 2


def test_inline_worker_leaves_the_environment_alone(monkeypatch, tmp_path):
    """With one worker the fleet runs in the caller's process: the
    profile must reach the builds as an argument, never through
    ``os.environ``.  An empty store, so every lane is built."""
    import os

    monkeypatch.setenv("REPRO_PROFILE", "paper")
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    seen = []
    lane_image = fleet._lane_image

    def recording(app_name, kind, profile):
        seen.append((os.environ.get("REPRO_PROFILE"), profile))
        return lane_image(app_name, kind, profile)

    monkeypatch.setattr(fleet, "_lane_image", recording)
    fleet.reset()
    result = fleet.run_fleet("PinLock", jobs=1, profile="quick",
                             backends=("mpu",), trace=False)
    assert result.profile == "quick"
    assert len(seen) == len(result.lanes) == 5
    assert set(seen) == {("paper", "quick")}
    assert os.environ["REPRO_PROFILE"] == "paper"


# -- store-served fan-outs ---------------------------------------------------


def _square(job):
    """A :func:`fleet.fan_out` worker: squares, stores under the digest."""
    number, digest = job
    token = fleet.begin_capture()
    if digest:
        cache.active_store().put(digest, number * number)
    return number * number, fleet.end_capture(token, label=str(number))


def _digest(number) -> str:
    return f"{number:064x}"


def _forbidden(*args, **kwargs):
    raise AssertionError("started a worker pool")


class TestFanOut:
    def test_hits_served_here_misses_run_and_stored(self, tmp_path,
                                                    monkeypatch):
        import concurrent.futures

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
        cache.active_store().put(_digest(3), 9)
        seen = []

        def worker(job):
            seen.append(job)
            return _square(job)

        results = fleet.fan_out(worker, [2, 3, 4], 1, digest_of=_digest)
        assert [value for value, _envelope in results] == [4, 9, 16]
        assert seen == [(2, _digest(2)), (4, _digest(4))]
        hit = results[1][1]
        assert hit.cache_counters["hits"] == 1
        # A miss's lookup window is folded into the worker's envelope.
        assert results[0][1].label == "2"
        assert results[0][1].cache_counters["misses"] == 1
        assert results[0][1].cache_counters["stores"] == 1
        # Everything is stored now: two jobs, yet no pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _forbidden)
        again = fleet.fan_out(_forbidden, [2, 3, 4], 2, digest_of=_digest)
        assert [value for value, _envelope in again] == [4, 9, 16]

    def test_store_off_looks_nothing_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert [(lookup.digest, lookup.entry, lookup.envelope)
                for lookup in fleet.lookup_entries(
                    [1, 2], _forbidden, capture=True)] == \
            [("", None, None)] * 2
        results = fleet.fan_out(_square, [5, 6], 1, digest_of=_forbidden)
        assert [value for value, _envelope in results] == [25, 36]

    def test_pool_results_keep_task_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
        results = fleet.fan_out(_square, [7, 8, 9], 2, digest_of=_digest,
                                chunked=True)
        assert [value for value, _envelope in results] == [49, 64, 81]
        assert all(envelope.cache_counters["stores"] == 1
                   for _value, envelope in results)


class TestLaneEntries:
    """Fleet lanes as store entries: a warm ``run_fleet`` serves every
    lane in the conductor and starts no worker."""

    SPECS = fleet.fleet_lane_specs("PinLock", "quick", ("mpu",))

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """(store root, result) of one cold two-worker run."""
        root = tmp_path_factory.mktemp("lane-entries") / "store"
        fleet.reset()
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CACHE", str(root))
            result = fleet.run_fleet("PinLock", jobs=2, profile="quick",
                                     backends=("mpu",))
        return root, result

    @pytest.fixture
    def store(self, cold, tmp_path, monkeypatch):
        """A private copy of the cold store."""
        root, _result = cold
        shutil.copytree(root, tmp_path / "store")
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
        return cache.active_store()

    def _paths(self, store):
        return [store.path_for(fleet._lane_digest(
                    spec, "quick", trace_capacity(), True))
                for spec in self.SPECS]

    @staticmethod
    def _sim(result):
        return (fleet.sim_trace_section(fleet.fuse_trace(result)),
                fleet.sim_dashboard_section(fleet.render_dashboard(result)))

    def test_cold_run_stores_one_entry_per_lane(self, cold, store):
        _root, result = cold
        assert all(path.is_file() for path in self._paths(store))
        assert not result.parent.lanes
        assert len(result.envelopes) == 2
        assert result.parent.cache_counters["misses"] >= len(self.SPECS)

    def test_warm_run_serves_every_lane_in_the_conductor(
            self, cold, store, no_workers_or_simulation):
        _root, cold_result = cold
        warm = fleet.run_fleet("PinLock", jobs=2, profile="quick",
                               backends=("mpu",))
        assert warm.envelopes == []
        assert len(warm.parent.lanes) == len(self.SPECS)
        assert self._sim(warm) == self._sim(cold_result)
        # Each entry is read once: N hits, no misses.
        counters = warm.parent.cache_counters
        assert (counters["hits"], counters.get("misses", 0)) == \
            (len(self.SPECS), 0)
        host = fleet.render_dashboard(warm).split(
            fleet.HOST_SECTION_MARKER)[1]
        conductor = next(line.split() for line in host.splitlines()
                         if line.startswith("conductor"))
        assert conductor[1] == str(len(self.SPECS))         # lanes
        assert conductor[4:6] == [str(len(self.SPECS)), "0"]  # hits, misses

    def test_corrupt_lane_entry_resimulates_only_that_lane(
            self, cold, store, monkeypatch):
        import concurrent.futures

        _root, cold_result = cold
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _forbidden)
        path = self._paths(store)[1]
        path.write_bytes(b"opec-cache-v1\n" + b"0" * 64 + b"\ngarbage")
        again = fleet.run_fleet("PinLock", jobs=2, profile="quick",
                                backends=("mpu",))
        assert store.counters.corrupt == 1
        app, kind, backend = self.SPECS[1]
        assert [lane.name for env in again.envelopes
                for lane in env.lanes] == [f"{app}:{kind}:{backend}"]
        assert len(again.parent.lanes) == len(self.SPECS) - 1
        assert self._sim(again) == self._sim(cold_result)
        assert path.is_file()                       # stored again


def test_lane_digests_differ_by_capacity_trace_backend_and_profile():
    spec = ("PinLock", "opec", "mpu")
    base = fleet._lane_digest(spec, "quick", 65536, True)
    assert fleet._lane_digest(spec, "quick", 65536, True) == base
    variants = {
        fleet._lane_digest(spec, "quick", 16, True),
        fleet._lane_digest(spec, "quick", 65536, False),
        fleet._lane_digest(("PinLock", "opec", "pmp"), "quick", 65536,
                           True),
        fleet._lane_digest(spec, "paper", 65536, True),
    }
    assert len(variants) == 4 and base not in variants
