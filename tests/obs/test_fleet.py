"""Tests for fleet telemetry envelopes, trace fusion, and roll-up.

The load-bearing contract: the sim-domain serialization — fused trace
section and dashboard section — is byte-identical for any worker
count, while the host-domain sections are cleanly separable for
masking.
"""

import json
import pickle

import pytest

from repro.obs import fleet
from repro.obs.events import DOMAIN_HOST, FLEET_RUN
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder


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
    def result(self):
        fleet.reset()
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

    def test_tiny_ring_warns_of_dropped_events(self):
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

    def test_no_trace_drops_lane_events_but_keeps_metrics(self):
        fleet.reset()
        result = fleet.run_fleet("PinLock", jobs=1, profile="quick",
                                 backends=("mpu",), trace=False)
        assert all(not lane.events for lane in result.lanes)
        assert any(lane.metrics.counters for lane in result.lanes)

    def test_worker_count_parity_of_sim_sections(self, result):
        """Same lanes split over two workers: sim serialization must
        be byte-identical, host domain must show both workers."""
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


def test_inline_worker_leaves_the_environment_alone(monkeypatch):
    """With one worker the fleet runs in the caller's process: the
    profile must reach the builds as an argument, never through
    ``os.environ``."""
    import os

    monkeypatch.setenv("REPRO_PROFILE", "paper")
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
