"""Fleet observability: telemetry envelopes, trace fusion, roll-ups.

Since the evaluation and campaign engines fan out over ``REPRO_JOBS``
worker processes, a single-process flight recorder or metrics registry
only ever sees one worker's slice of the work.  This module is the
cross-worker layer:

* **Worker telemetry envelopes.**  :func:`begin_capture` /
  :func:`end_capture` bracket a unit of work and produce a picklable
  :class:`WorkerTelemetry` snapshot — the simulated metrics and
  interpreter compile counters the work accumulated (via
  :func:`record_simulation`), the artifact-store traffic it caused,
  per-lane recorder rings, and the worker's host-side event stream.
  Envelopes ride the existing pool result protocol back to the parent
  (``eval/workloads.py`` and ``campaign/engine.py`` both return them).
  Captures nest: an inner capture's cache traffic is *excluded* from
  the enclosing one, so summing a call's envelopes never double-counts.

* **Trace fusion** (:func:`fuse_trace`).  One Chrome trace-event JSON
  document for the whole fleet: the **sim domain** on pid 0 with one
  tid per lane, assigned by sorted lane name so the serialization is
  byte-identical for any worker count; the **host domain** on one pid
  per worker (pid 1 = the conductor, pids 2+ = workers) carrying
  wall-clock ``fleet.*`` spans (dispatch, chunk, build, run) and the
  seq-stamped build/cache events, so scheduling and idle gaps are
  visible.  :func:`sim_trace_section` extracts the deterministic part
  for the determinism sweep.

* **Metrics roll-up** (:func:`render_dashboard`).  Counters summed and
  power-of-two histograms merged across lanes and workers
  (order-independent by :meth:`MetricsRegistry.merge` construction),
  rendered as a text dashboard: per-lane sim results and switch-cost
  histograms per backend above the :data:`HOST_SECTION_MARKER`, then
  per-worker utilisation, cache temperature, and compile activity
  below it.  :func:`sim_dashboard_section` truncates at the marker.

* **Store-served fan-outs** (:func:`lookup_entries`, :func:`fan_out`).
  The evaluation's row tasks, the campaign's firmware reports and the
  fleet's lanes are content-addressed store entries.  Each fan-out
  looks every entry up once, in the calling process, and starts a
  pool only for the misses (none for a single miss); with the store
  off it looks nothing up.  A fleet lane's entry is its sim-domain
  :class:`LaneTelemetry`, stored once ``verify_run`` has passed, so a
  warm ``run_fleet`` serves every lane in the conductor and simulates
  nothing; ``REPRO_CACHE=off`` gives a live run.

The ``repro fleet`` CLI verb drives :func:`run_fleet`; the committed
``results/fleet_pinlock.{json,txt}`` pin the sim sections in
``tools/check_determinism.py``.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .events import (
    DOMAIN_HOST,
    DOMAIN_SIM,
    Event,
    FLEET_BUILD,
    FLEET_CHUNK,
    FLEET_DISPATCH,
    FLEET_FIRMWARE,
    FLEET_RUN,
    INSTANT,
    TRACE_TRUNCATED,
)
from .metrics import MetricsRegistry
from .recorder import FlightRecorder, install, trace_capacity

#: Dashboard line separating the deterministic sim-domain section from
#: the host-domain diagnostics.  ``tools/check_determinism.py`` and the
#: CI fleet smoke both truncate here — keep the literal in sync.
HOST_SECTION_MARKER = \
    "-- host domain (wall clock; masked in determinism checks) --"


def validate_jobs(value, source: str = "--jobs") -> int:
    """Parse a worker count, failing loudly on non-positive values
    (the ``repro fleet`` counterpart of
    :func:`~repro.obs.recorder.validate_capacity`)."""
    try:
        jobs = int(value)
    except (TypeError, ValueError):
        jobs = 0
    if jobs <= 0:
        raise ValueError(
            f"invalid worker count {value!r} ({source}): "
            "expected a positive integer")
    return jobs


def _now_us() -> int:
    return time.time_ns() // 1000


@contextmanager
def wall_span(recorder: Optional[FlightRecorder], kind: str, name: str,
              **args):
    """A host-domain span timestamped with wall-clock microseconds.

    Unlike the seq-stamped host events, ``fleet.*`` spans exist to show
    where wall time went; fusion normalises the epoch timestamps to the
    earliest span so the absolute clock never reaches an export.
    """
    if recorder is None:
        yield
        return
    recorder.begin(kind, name, _now_us(), DOMAIN_HOST, args or None)
    try:
        yield
    finally:
        recorder.end(kind, name, _now_us(), DOMAIN_HOST)


# -- worker-side telemetry capture ---------------------------------------


class TelemetryCollector:
    """Accumulates the simulated work one capture window performs.

    Two registries, mirroring the split the interpreter keeps: machine
    metrics (simulated counters/histograms — deterministic per run) and
    compile metrics (codegen activity — varies with cache temperature).
    Store/memo hits contribute nothing: like the cache counters, these
    describe work the process actually performed.
    """

    __slots__ = ("metrics", "compile")

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.compile = MetricsRegistry()

    def record_simulation(self, machine_metrics=None,
                          compile_metrics=None) -> None:
        if machine_metrics is not None:
            self.metrics.merge(machine_metrics)
        if compile_metrics is not None:
            self.compile.merge(compile_metrics)


_collector = TelemetryCollector()


def collector() -> TelemetryCollector:
    """The ambient collector fresh simulations report into."""
    return _collector


def record_simulation(machine_metrics=None, compile_metrics=None) -> None:
    """Report one fresh simulation's registries to the ambient
    collector (module-level convenience for the run seams)."""
    _collector.record_simulation(machine_metrics, compile_metrics)


def reset() -> None:
    """Forget every collected metric and any open captures (tests)."""
    global _collector
    _collector = TelemetryCollector()
    _tokens.clear()


@dataclass
class LaneTelemetry:
    """One fleet lane's picklable outcome: identity, simulated result,
    sim-domain event ring, and the machine's metrics registry."""

    name: str
    backend: str
    halt_code: int = -1
    cycles: int = 0
    switches: int = 0
    faulted: bool = False
    detail: str = ""                      # fault class for faulted lanes
    dropped: int = 0                      # ring drops (sim events lost)
    events: list = field(default_factory=list)          # sim Event list
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


@dataclass
class WorkerTelemetry:
    """Everything one capture window observed, shaped for pickling."""

    worker: int = 0                       # 0 = conductor, 1.. = workers
    label: str = ""
    lanes: list = field(default_factory=list)           # [LaneTelemetry]
    host_events: list = field(default_factory=list)     # host Event list
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    compile_counters: dict = field(default_factory=dict)
    cache_counters: dict = field(default_factory=dict)
    busy_us: int = 0                      # capture-window wall time


@dataclass
class _CaptureToken:
    previous: TelemetryCollector
    cache_before: dict
    start_ns: int


_tokens: list[_CaptureToken] = []


def begin_capture() -> _CaptureToken:
    """Open a capture window: swap in a fresh ambient collector and
    snapshot the process-wide cache counters."""
    global _collector
    from ..cache import counters_snapshot

    token = _CaptureToken(previous=_collector,
                          cache_before=counters_snapshot(),
                          start_ns=time.time_ns())
    _collector = TelemetryCollector()
    _tokens.append(token)
    return token


def end_capture(token: _CaptureToken, *, worker: int = 0, label: str = "",
                lanes: Sequence[LaneTelemetry] = (),
                host_events: Sequence[Event] = ()) -> WorkerTelemetry:
    """Close a capture window and package it as an envelope.

    Captures are exclusive: the window's cache delta is folded into the
    *enclosing* window's baseline, so a parent capture around a set of
    child captures observes only the work no child claimed — summing a
    call's envelopes (children + parent) reproduces the plain totals
    exactly once.
    """
    global _collector
    from ..cache import counters_delta

    captured = _collector
    _collector = token.previous
    if _tokens and _tokens[-1] is token:
        _tokens.pop()
    delta = counters_delta(token.cache_before)
    if _tokens:
        enclosing = _tokens[-1]
        for key, value in delta.items():
            enclosing.cache_before[key] = \
                enclosing.cache_before.get(key, 0) + value
    return WorkerTelemetry(
        worker=worker,
        label=label,
        lanes=list(lanes),
        host_events=list(host_events),
        metrics=captured.metrics,
        compile_counters={name: cell.value for name, cell
                          in sorted(captured.compile.counters.items())
                          if cell.value},
        cache_counters={key: value for key, value in delta.items()
                        if value},
        busy_us=(time.time_ns() - token.start_ns) // 1000,
    )


# -- store-served fan-outs -----------------------------------------------


@dataclass
class StoreLookup:
    """One task's artifact-store lookup, made in the calling process."""

    digest: str = ""                      # "" while the store is off
    entry: object = None                  # the stored object; None = miss
    envelope: Optional[WorkerTelemetry] = None   # the lookup's window


def lookup_entries(tasks: Sequence, digest_of, *,
                   capture: bool = False) -> list[StoreLookup]:
    """Look each task's store entry up once, here, in task order.

    ``digest_of(task)`` names the entry.  With ``capture`` every
    lookup, its digest included, runs in its own capture window, so
    a hit's envelope carries its own cache traffic.  With the store
    off nothing is computed or read: every lookup is an empty miss.
    The three store-served fan-outs (the evaluation's row tasks, the
    campaign's firmware reports, ``repro fleet``'s lanes) all look
    their entries up here, so a warm run serves every hit without
    starting a worker.
    """
    from ..cache import active_store

    store = active_store()
    if store is None:
        return [StoreLookup() for _ in tasks]
    lookups = []
    for task in tasks:
        token = begin_capture() if capture else None
        digest = digest_of(task)
        entry = store.get(digest)
        lookups.append(StoreLookup(
            digest, entry,
            end_capture(token) if token is not None else None))
    return lookups


def fan_out(worker, tasks: Sequence, jobs: int, *, digest_of=None,
            chunked: bool = False) -> list[tuple[object, WorkerTelemetry]]:
    """``(result, envelope)`` for each of ``tasks``, in order.

    With ``digest_of``, each task's store entry is first looked up by
    :func:`lookup_entries`; a hit is served as ``(entry, lookup
    envelope)`` and goes no further.  Every other task runs as
    ``worker((task, digest))``, a module-level pool entry point that
    computes the result in its own capture window and stores it under
    ``digest`` unless that is empty; the miss's lookup window is
    folded into that envelope.  The misses run serially in this
    process unless ``jobs`` > 1 and more than one task missed, then
    in a pool of ``min(jobs, misses)`` processes: one task at a time
    so an idle worker takes the next, or with ``chunked`` in
    contiguous chunks of ``ceil(misses / workers)`` tasks.
    """
    lookups = lookup_entries(tasks, digest_of, capture=True) \
        if digest_of is not None else [StoreLookup() for _ in tasks]
    results: list = [(lookup.entry, lookup.envelope)
                     if lookup.entry is not None else None
                     for lookup in lookups]
    misses = [position for position, lookup in enumerate(lookups)
              if lookup.entry is None]
    jobs_list = [(tasks[position], lookups[position].digest)
                 for position in misses]
    workers = min(jobs, len(jobs_list))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = -(-len(jobs_list) // workers) if chunked else 1
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(worker, jobs_list,
                                     chunksize=chunksize))
    else:
        computed = [worker(job) for job in jobs_list]
    for position, (result, envelope) in zip(misses, computed):
        earlier = lookups[position].envelope
        if earlier is not None:
            envelope.cache_counters = _sum_counters(
                [earlier.cache_counters, envelope.cache_counters])
            envelope.busy_us += earlier.busy_us
        results[position] = (result, envelope)
    return results


# -- fleet runs ----------------------------------------------------------


@dataclass
class FleetResult:
    """One ``run_fleet`` invocation's merged outcome."""

    target: str
    profile: str
    backends: tuple
    jobs: int
    trace: bool
    envelopes: list = field(default_factory=list)       # worker envelopes
    parent: WorkerTelemetry = field(default_factory=WorkerTelemetry)
    wall_s: float = 0.0

    @property
    def lanes(self) -> list:
        """Every lane, in canonical (name) order: those the conductor
        served from the store and those the workers simulated."""
        return sorted((lane for env in [self.parent, *self.envelopes]
                       for lane in env.lanes),
                      key=lambda lane: lane.name)


def fleet_lane_specs(target: str, profile: str,
                     backends: Sequence[str]) -> list[tuple[str, str, str]]:
    """The (app, kind, backend) lane grid for one eval target, in a
    fixed deterministic order.  ``target`` is one app name or ``all``.
    """
    from ..apps import ALL_APPS
    from ..eval.workloads import _run_kinds

    if target == "all":
        names = list(ALL_APPS)
    elif target in ALL_APPS:
        names = [target]
    else:
        raise ValueError(
            f"unknown fleet target {target!r}: expected an application "
            f"({', '.join(ALL_APPS)}), 'all', or 'campaign'")
    return [(name, kind, backend)
            for name in names
            for backend in backends
            for kind in _run_kinds(name)]


def _lane_switches(machine_metrics: MetricsRegistry, hooks) -> int:
    """Operation/compartment switch count for one lane (the monitor
    histogram, or the ACES runtime's entry counter)."""
    hist = machine_metrics.histograms.get("monitor.switch_cycles")
    if hist is not None and hist.count:
        return hist.count
    return getattr(hooks, "switch_count", 0) or 0


def _fleet_eval_worker(
        job: tuple[int, list, str, int, bool]) -> WorkerTelemetry:
    """Pool entry point: simulate one worker's slice of the lane grid.

    ``job`` carries the lanes the store lacks, each with its lane
    digest.  Every lane simulates under a dedicated recorder (a cached
    RunResult carries no event stream), as a batch-runner lane so
    flavours of the same module share compiled closures; builds are
    served by the artifact store as usual.  Each lane becomes its
    :class:`LaneTelemetry` as it finishes, which is stored under the
    lane's digest once ``verify_run`` has passed (a faulted lane is
    not stored), and its machine is released before the next lane's
    is built.  The sim-domain outcome of a lane is therefore cache-
    temperature- and worker-count-independent.  The profile travels
    in ``job`` and reaches every build explicitly; with one worker
    this runs in the caller's process, so it must not touch
    ``os.environ``.
    """
    worker, specs, profile, capacity, trace = job
    from ..cache import active_store
    from ..hw.exceptions import MachineError
    from ..interp.batch import BatchRunner, LaneFailure

    store = active_store()
    host = FlightRecorder(capacity)
    previous = install(host)
    token = begin_capture()
    lanes: list[LaneTelemetry] = []
    try:
        with wall_span(host, FLEET_CHUNK, f"worker{worker}",
                       lanes=len(specs)):
            runner = BatchRunner()
            # Per lane, in ``add`` order (the order lanes are handed
            # over); popped as each lane finishes, so its recorder goes
            # with its machine.
            pending = deque()
            for (app_name, kind, backend), digest in specs:
                lane_name = f"{app_name}:{kind}:{backend}"
                with wall_span(host, FLEET_BUILD, lane_name):
                    app, image = _lane_image(app_name, kind, profile)
                recorder = FlightRecorder(capacity)
                runner.add(image, name=lane_name, setup=app.setup,
                           max_instructions=app.max_instructions,
                           backend=backend, recorder=recorder)
                pending.append((app, recorder, backend, digest))

            def collect(lane) -> None:
                app, recorder, backend, digest = pending.popleft()
                telemetry = LaneTelemetry(
                    name=lane.name, backend=backend,
                    cycles=lane.machine.cycles,
                    switches=_lane_switches(lane.machine.metrics,
                                            lane.hooks),
                    dropped=recorder.dropped,
                    events=recorder.events(DOMAIN_SIM) if trace else [],
                    metrics=lane.machine.metrics,
                )
                if lane.error is not None:
                    original = lane.error.original \
                        if isinstance(lane.error, LaneFailure) \
                        else lane.error
                    if not isinstance(original, MachineError):
                        raise original
                    telemetry.faulted = True
                    telemetry.detail = type(original).__name__
                else:
                    telemetry.halt_code = lane.halt_code
                    app.verify_run(lane.machine, lane.halt_code)
                    if digest and store is not None:
                        store.put(digest, telemetry)
                collector().record_simulation(lane.machine.metrics)
                lanes.append(telemetry)
                lane.machine.release_devices()

            with wall_span(host, FLEET_RUN, f"worker{worker}",
                           lanes=len(specs)):
                result = runner.run(collect)
            collector().record_simulation(
                compile_metrics=result.compile_metrics)
    finally:
        install(previous)
        envelope = end_capture(token, worker=worker,
                               label=f"worker{worker}", lanes=lanes,
                               host_events=host.events())
    return envelope


def _lane_digest(spec: tuple[str, str, str], profile: str, capacity: int,
                 trace: bool) -> str:
    """The store key of one lane's telemetry: its run's digest, the
    ring capacity and the ``trace`` flag."""
    from ..cache import lane_digest
    from ..eval.workloads import _run_digest, build_app

    app_name, kind, backend = spec
    return lane_digest(
        _run_digest(build_app(app_name, profile), app_name, kind, profile,
                    backend),
        capacity=capacity, trace=trace)


def _lane_image(app_name: str, kind: str, profile: str):
    """Resolve one lane's application and built image (store-served)."""
    from ..eval.workloads import (
        aces_artifacts,
        build_app,
        opec_artifacts,
    )
    from ..pipeline import build_vanilla

    app = build_app(app_name, profile)
    if kind == "vanilla":
        return app, build_vanilla(app.module, app.board)
    if kind == "opec":
        return app, opec_artifacts(app_name, profile).image
    return app, aces_artifacts(app_name, kind, profile).image


def run_fleet(target: str, *, jobs: Optional[int] = None,
              profile: Optional[str] = None,
              backends: Optional[Sequence[str]] = None,
              capacity: Optional[int] = None,
              trace: bool = True,
              seed: int = 2026, firmwares: int = 4,
              attacks: Sequence[str] = ("global", "icall")) -> FleetResult:
    """Run an eval or campaign target across a worker fleet and return
    the merged telemetry.

    ``target`` is an application name, ``all``, or ``campaign``.  Eval
    targets expand to one lane per (app, build flavour, backend).  The
    conductor looks every lane's telemetry entry up in the artifact
    store first (:func:`lookup_entries`) and keeps the lanes it finds
    as its own; the rest are split round-robin over ``jobs`` workers
    (default ``REPRO_JOBS``), which simulate and store them, and no
    worker starts when the store holds every lane.  ``REPRO_CACHE=off``
    simulates every lane.  The campaign target drives
    :func:`repro.campaign.run_campaign` with telemetry capture on.
    The sim-domain content of the result — lane outcomes, per-lane
    event streams, merged sim metrics — is byte-stable for any job
    count and cache temperature; only the host-domain sections
    differ.
    """
    from ..eval.workloads import active_profile, repro_jobs

    jobs = repro_jobs() if jobs is None else validate_jobs(jobs)
    profile = profile or active_profile()
    capacity = trace_capacity() if capacity is None else capacity
    start = time.perf_counter()
    parent_recorder = FlightRecorder(capacity)
    previous = install(parent_recorder)
    token = begin_capture()
    served: list[LaneTelemetry] = []
    try:
        if target == "campaign":
            backends = tuple(backends) if backends \
                else ("mpu", "pmp", "overlay")
            envelopes = _run_campaign_fleet(
                seed=seed, firmwares=firmwares, attacks=tuple(attacks),
                backends=backends, jobs=jobs, trace=trace)
        else:
            if not backends:
                from ..hw.backend import active_backend

                backends = (active_backend(),)
            backends = tuple(backends)
            specs = fleet_lane_specs(target, profile, backends)
            lookups = lookup_entries(
                specs, lambda spec: _lane_digest(spec, profile, capacity,
                                                 trace))
            served = [lookup.entry for lookup in lookups
                      if lookup.entry is not None]
            envelopes = _dispatch_eval_workers(
                [(spec, lookup.digest)
                 for spec, lookup in zip(specs, lookups)
                 if lookup.entry is None],
                profile, capacity, trace, jobs, parent_recorder)
    finally:
        install(previous)
        parent = end_capture(token, worker=0, label="conductor",
                             lanes=served,
                             host_events=parent_recorder.events())
    wall_s = time.perf_counter() - start
    return FleetResult(target=target, profile=profile, backends=backends,
                       jobs=jobs, trace=trace, envelopes=envelopes,
                       parent=parent, wall_s=wall_s)


def _dispatch_eval_workers(specs, profile, capacity, trace, jobs,
                           parent_recorder) -> list[WorkerTelemetry]:
    """Fan the ``(spec, digest)`` lanes out over worker processes
    (round-robin slices, one long-lived job per worker) and collect
    their envelopes; none when there is no lane to simulate."""
    if not specs:
        return []
    workers = min(jobs, len(specs))
    slices = [(index + 1, specs[index::workers], profile, capacity, trace)
              for index in range(workers)]
    if workers == 1:
        with wall_span(parent_recorder, FLEET_DISPATCH, "worker1",
                       worker=1, lanes=len(specs)):
            return [_fleet_eval_worker(slices[0])]
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    envelopes: list[Optional[WorkerTelemetry]] = [None] * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {}
        begins = {}
        for job in slices:
            worker = job[0]
            begins[worker] = _now_us()
            pending[pool.submit(_fleet_eval_worker, job)] = \
                (worker, len(job[1]))
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                worker, lane_count = pending.pop(future)
                parent_recorder.begin(
                    FLEET_DISPATCH, f"worker{worker}", begins[worker],
                    DOMAIN_HOST, {"worker": worker, "lanes": lane_count})
                parent_recorder.end(FLEET_DISPATCH, f"worker{worker}",
                                    _now_us(), DOMAIN_HOST,
                                    {"worker": worker})
                envelopes[worker - 1] = future.result()
    return [env for env in envelopes if env is not None]


def _run_campaign_fleet(*, seed, firmwares, attacks, backends, jobs,
                        trace) -> list[WorkerTelemetry]:
    from ..campaign import CampaignConfig, run_campaign

    config = CampaignConfig(seed=seed, firmwares=firmwares,
                            attacks=attacks, backends=backends,
                            jobs=jobs, telemetry_trace=trace)
    return run_campaign(config).telemetry


# -- trace fusion --------------------------------------------------------

#: Host-domain tids inside each worker pid.
_HOST_WALL_TID = 0        # fleet.* wall-clock spans
_HOST_SEQ_TID = 1         # build/cache events (sequence-stamped)


def fuse_trace(result: FleetResult) -> str:
    """One multi-process Chrome trace-event JSON for the whole fleet.

    Sim domain: pid 0, one tid per lane in sorted-name order and DWT
    cycle timestamps — canonical and byte-stable for any worker count.
    A lane whose ring overflowed starts with a ``trace.truncated``
    instant at its first kept event, carrying its dropped count.
    Host domain: pid 1 for the conductor, pid ``1 + worker`` for each
    worker; ``fleet.*`` spans carry wall-clock microseconds normalised
    to the earliest span, seq-stamped build/cache events keep their
    sequence timestamps on a separate tid.
    """
    import json

    events: list[dict] = []
    metadata: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "sim (DWT cycles, canonical)"}},
    ]
    lanes = result.lanes
    sim_events = 0
    for tid, lane in enumerate(lanes, start=1):
        metadata.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": lane.name}})
        if lane.dropped and lane.events:
            events.append({"name": TRACE_TRUNCATED, "cat": TRACE_TRUNCATED,
                           "ph": INSTANT, "ts": lane.events[0].ts,
                           "pid": 0, "tid": tid, "s": "t",
                           "args": {"dropped": lane.dropped}})
        for event in lane.events:
            entry = {"name": event.name, "cat": event.kind,
                     "ph": event.ph, "ts": event.ts, "pid": 0,
                     "tid": tid}
            if event.ph == INSTANT:
                entry["s"] = "t"
            if event.args:
                entry["args"] = event.args
            events.append(entry)
            sim_events += 1

    sources = [result.parent] + sorted(result.envelopes,
                                       key=lambda env: env.worker)
    base_us = min(
        (event.ts for env in sources for event in env.host_events
         if event.kind.startswith("fleet.")), default=0)
    host_events = 0
    for env in sources:
        pid = 1 + env.worker
        label = env.label or (f"worker{env.worker}" if env.worker
                              else "conductor")
        metadata.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"host {label}"}})
        named_tids = {_HOST_WALL_TID: "wall clock (us)",
                      _HOST_SEQ_TID: "build/cache (seq)"}
        for event in env.host_events:
            if event.kind.startswith("fleet."):
                tid = _HOST_WALL_TID
                if event.kind == FLEET_DISPATCH and event.args:
                    tid = 1 + event.args.get("worker", 0)
                    named_tids[tid] = f"dispatch {event.name}"
                entry = {"name": event.name, "cat": event.kind,
                         "ph": event.ph, "ts": event.ts - base_us,
                         "pid": pid, "tid": tid}
            else:
                entry = {"name": event.name, "cat": event.kind,
                         "ph": event.ph, "ts": event.ts, "pid": pid,
                         "tid": _HOST_SEQ_TID}
            if event.ph == INSTANT:
                entry["s"] = "t"
            if event.args:
                entry["args"] = event.args
            events.append(entry)
            host_events += 1
        metadata.extend(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
            for tid, name in sorted(named_tids.items()))
    document = {
        "displayTimeUnit": "ns",
        "otherData": {
            "sim_clock": "dwt-cycles (pid 0)",
            "sim_lanes": len(lanes),
            "sim_events": sim_events,
            "host_clock": "wall-us / seq (pids >= 1)",
            "host_events": host_events,
            "workers": len(result.envelopes),
        },
        "traceEvents": metadata + events,
    }
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")) + "\n"


def sim_trace_section(trace_json: str) -> str:
    """The deterministic slice of a fused trace: pid-0 events plus the
    ``sim_*`` header fields, re-serialised canonically.  Byte-identical
    for any ``REPRO_JOBS`` / worker count / cache temperature."""
    import json

    document = json.loads(trace_json)
    sim = {
        "otherData": {key: value
                      for key, value in document["otherData"].items()
                      if key.startswith("sim_")},
        "traceEvents": [entry for entry in document["traceEvents"]
                        if entry.get("pid") == 0],
    }
    return json.dumps(sim, sort_keys=True, separators=(",", ":")) + "\n"


# -- dashboard -----------------------------------------------------------


def _sum_counters(dicts) -> dict:
    totals: dict[str, int] = {}
    for mapping in dicts:
        for key, value in mapping.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _counter_line(label: str, totals: dict) -> str:
    if not totals:
        return f"{label}: (none)"
    body = "  ".join(f"{key}={totals[key]}" for key in sorted(totals))
    return f"{label}: {body}"


def telemetry_summary(envelopes: Sequence[WorkerTelemetry]) -> str:
    """Aggregate cache/compile counters of a set of envelopes, as the
    two-line footer ``repro campaign`` prints (stdout only — never part
    of the byte-checked report files)."""
    lines = ["worker telemetry (host-side diagnostics; varies with "
             "cache temperature):"]
    lines.append("  " + _counter_line(
        "cache", _sum_counters(env.cache_counters for env in envelopes)))
    lines.append("  " + _counter_line(
        "compile",
        _sum_counters(env.compile_counters for env in envelopes)))
    return "\n".join(lines)


def render_dashboard(result: FleetResult) -> str:
    """The fleet text dashboard: deterministic sim-domain roll-up first
    (a warning line when any lane's ring overflowed, lane table, merged
    metrics, per-backend switch-cost histograms), then the
    :data:`HOST_SECTION_MARKER` line, then the host-domain diagnostics
    (per-worker utilisation, cache traffic, compile activity)."""
    from .metrics import _aligned

    lanes = result.lanes
    faulted = [lane for lane in lanes if lane.faulted]
    lines = [f"== fleet dashboard: {result.target} [{result.profile}] ==",
             f"backends: {','.join(result.backends)}",
             f"lanes: {len(lanes)}  faults: {len(faulted)}/{len(lanes)}"]
    truncated = [lane for lane in lanes if lane.dropped]
    if truncated:
        lines.append(
            f"warning: {sum(lane.dropped for lane in truncated)} sim "
            f"events dropped in {len(truncated)} lanes (ring overflow); "
            f"those lanes' traces start mid-run")
    if lanes:
        lines.append("")
        lines.extend(_aligned(
            ["lane", "backend", "outcome", "halt", "cycles", "switches",
             "sim-events", "dropped"],
            [(lane.name, lane.backend,
              f"fault:{lane.detail}" if lane.faulted else "halt",
              str(lane.halt_code), str(lane.cycles), str(lane.switches),
              str(len(lane.events)), str(lane.dropped))
             for lane in lanes]))
        merged = MetricsRegistry()
        for lane in lanes:
            merged.merge(lane.metrics)
        lines.append("")
        lines.append(merged.render(
            "fleet metrics (sim domain, merged across lanes)"))
        hist_rows = []
        for backend in result.backends:
            per_backend = MetricsRegistry()
            for lane in lanes:
                if lane.backend == backend:
                    per_backend.merge(lane.metrics)
            hist = per_backend.histograms.get("monitor.switch_cycles")
            if hist is None or not hist.count:
                hist_rows.append((backend, "0", "0", "0", "0.0", "0"))
            else:
                hist_rows.append((backend, str(hist.count),
                                  str(hist.total), str(hist.min or 0),
                                  f"{hist.mean:.1f}", str(hist.max)))
        lines.append("")
        lines.append("switch-cost histograms per backend")
        lines.extend(_aligned(
            ["backend", "switches", "cycles", "min", "mean", "max"],
            hist_rows))
    else:
        lines.append("")
        lines.append("no sim lanes (campaign fleet: metrics roll-up only)")
    lines.append("")
    lines.append(HOST_SECTION_MARKER)
    lines.append(f"jobs: {result.jobs}  workers: {len(result.envelopes)}  "
                 f"wall: {result.wall_s:.3f}s")
    wall_us = max(1, int(result.wall_s * 1_000_000))
    worker_rows = []
    for env in [result.parent] + sorted(result.envelopes,
                                        key=lambda env: env.worker):
        cache = env.cache_counters
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        looked = hits + misses
        hit_pct = f"{100 * hits / looked:.0f}%" if looked else "-"
        compiled = env.compile_counters.get(
            "blockcompile.blocks_compiled", 0)
        traces = env.compile_counters.get("tracefuse.traces_compiled", 0)
        worker_rows.append(
            (env.label or f"worker{env.worker}", str(len(env.lanes)),
             f"{env.busy_us / 1_000_000:.3f}",
             f"{min(100, 100 * env.busy_us // wall_us)}%",
             str(hits), str(misses), hit_pct, str(compiled), str(traces)))
    lines.extend(_aligned(
        ["worker", "lanes", "busy_s", "util", "cache-hits",
         "cache-misses", "hit-rate", "blocks-compiled", "traces-compiled"],
        worker_rows))
    all_envs = [result.parent, *result.envelopes]
    lines.append(_counter_line(
        "cache", _sum_counters(env.cache_counters for env in all_envs)))
    lines.append(_counter_line(
        "compile",
        _sum_counters(env.compile_counters for env in all_envs)))
    if not lanes:
        merged = MetricsRegistry()
        for env in all_envs:
            merged.merge(env.metrics)
        if merged.counters or merged.histograms:
            lines.append("")
            lines.append(merged.render(
                "work metrics (fresh simulations this run performed)"))
    return "\n".join(lines)


def sim_dashboard_section(dashboard: str) -> str:
    """Everything above the host marker — the deterministic part."""
    return dashboard.split(HOST_SECTION_MARKER)[0].rstrip("\n")


__all__ = [
    "FLEET_BUILD", "FLEET_CHUNK", "FLEET_DISPATCH", "FLEET_FIRMWARE",
    "FLEET_RUN", "HOST_SECTION_MARKER", "FleetResult", "LaneTelemetry",
    "StoreLookup", "TelemetryCollector", "WorkerTelemetry",
    "begin_capture", "collector", "end_capture", "fan_out",
    "fleet_lane_specs", "fuse_trace", "lookup_entries",
    "record_simulation", "render_dashboard", "reset", "run_fleet",
    "sim_dashboard_section", "sim_trace_section", "telemetry_summary",
    "validate_jobs", "wall_span",
]
