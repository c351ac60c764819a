"""Workload profiles and build/run caching for the evaluation harness.

Two profiles:

* ``paper`` — the paper's stop conditions (100 un/locks, 11 pictures,
  5 + 45 TCP packets, …); used by the benchmark suite;
* ``quick`` — scaled-down rounds for fast test runs.

Set ``REPRO_PROFILE=quick`` in the environment to downscale everything.
Builds and runs are memoised per process (several table/figure
generators share the same artifacts) *and* persisted in the
content-addressed artifact store (:mod:`repro.cache`), so repeated
evaluations — and every ``REPRO_JOBS`` worker — reuse whole-image
builds and completed simulation results across processes.  Set
``REPRO_CACHE=off`` to bypass the store.

:func:`map_apps` is the evaluation fan-out: one task per application,
run serially in-process or — with ``REPRO_JOBS`` > 1 — in a process
pool (:func:`repro.obs.fleet.fan_out`), results in the order of the
applications.  Both :func:`compute_all_rows` (every table/figure row
of §6 plus the backend matrix's cells) and
:func:`repro.eval.backends.compute_matrix` go through it, so the
rendered output is byte-identical either way.  The row task of
:func:`compute_all_rows` is content-addressed as a whole: this
process looks each application's *row entry* up first and serves a
hit itself, so a warm store starts no worker.  Only on a miss does
the task call :func:`run_build`, which loads a run from its run entry
or simulates it, on the same interpreter loop as every other run,
when a row or cell first asks for it.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Collection, Optional, Sequence

from .. import cache
from ..apps import ACES_APPS, ALL_APPS, Application
from ..obs import fleet
from ..apps import coremark, pinlock
from ..baselines import AcesArtifacts, build_aces
from ..hw.backend import active_backend
from ..pipeline import BuildArtifacts, RunResult, build_opec, build_vanilla, run_image

APP_NAMES = tuple(ALL_APPS)

#: The workload profiles the harness understands.  ``build_app``
#: validates against this set so an ``REPRO_PROFILE`` typo fails loudly
#: instead of silently handing PinLock/CoreMark the quick rounds.
KNOWN_PROFILES = ("paper", "quick")


def active_profile() -> str:
    return os.environ.get("REPRO_PROFILE", "paper")


def repro_jobs() -> int:
    """Evaluation fan-out width.  ``REPRO_JOBS`` unset/empty → serial;
    ``0`` or ``auto`` → one worker per CPU; a positive integer → that
    many workers.  Anything else raises, like every other ``REPRO_*``
    knob, instead of silently serialising a misconfigured run."""
    raw = os.environ.get("REPRO_JOBS", "").strip().lower()
    if not raw:
        return 1
    if raw in ("0", "auto"):
        return os.cpu_count() or 1
    return fleet.validate_jobs(raw, "REPRO_JOBS")


_app_cache: dict[tuple[str, str], Application] = {}
_opec_cache: dict[tuple[str, str], BuildArtifacts] = {}
_aces_cache: dict[tuple[str, str, str], AcesArtifacts] = {}
_run_cache: dict[tuple[str, str, str], RunResult] = {}

def clear_caches() -> None:
    """Reset every in-process memo the harness (and the analyses and
    digests underneath it) keeps, so tests that mutate modules cannot
    observe stale entries.  The on-disk artifact store is
    content-addressed — a mutated module simply digests differently —
    so it is *not* cleared here; use ``repro cache clear`` for that."""
    from ..analysis import clear_analysis_caches
    from . import figure11

    _app_cache.clear()
    _opec_cache.clear()
    _aces_cache.clear()
    _run_cache.clear()
    clear_analysis_caches()
    cache.clear_digest_memos()
    figure11._trace_cache.clear()


def build_app(name: str, profile: Optional[str] = None) -> Application:
    profile = profile or active_profile()
    if profile not in KNOWN_PROFILES:
        raise ValueError(
            f"unknown workload profile {profile!r} (REPRO_PROFILE): "
            f"expected one of {', '.join(KNOWN_PROFILES)}")
    key = (name, profile)
    if key not in _app_cache:
        if name == "PinLock":
            rounds = 100 if profile == "paper" else 5
            _app_cache[key] = pinlock.build(rounds=rounds)
        elif name == "CoreMark":
            iterations = 100 if profile == "paper" else 10
            _app_cache[key] = coremark.build(iterations=iterations)
        else:
            _app_cache[key] = ALL_APPS[name]()
    return _app_cache[key]


def opec_artifacts(name: str, profile: Optional[str] = None) -> BuildArtifacts:
    profile = profile or active_profile()
    key = (name, profile)
    if key not in _opec_cache:
        app = build_app(name, profile)
        _opec_cache[key] = build_opec(app.module, app.board, app.specs)
    return _opec_cache[key]


def aces_artifacts(name: str, strategy: str,
                   profile: Optional[str] = None) -> AcesArtifacts:
    profile = profile or active_profile()
    key = (name, strategy, profile)
    if key not in _aces_cache:
        app = build_app(name, profile)
        _aces_cache[key] = build_aces(app.module, app.board, strategy)
    return _aces_cache[key]


def _run_digest(app: Application, name: str, kind: str,
                profile: str, backend: str) -> str:
    """Content key for one simulated run of one build flavour."""
    if kind == "opec":
        flavour_key = cache.build_digest("opec", app.module, app.board,
                                         specs=app.specs)
    elif kind == "vanilla":
        flavour_key = cache.build_digest("vanilla", app.module, app.board)
    else:
        flavour_key = cache.build_digest(f"aces:{kind}", app.module,
                                         app.board)
    return cache.run_digest(flavour_key, name, profile,
                            max_instructions=app.max_instructions,
                            backend=backend)


def run_build(name: str, kind: str, profile: Optional[str] = None,
              backend: Optional[str] = None) -> RunResult:
    """Run one build flavour ("vanilla", "opec", "ACES1/2/3").

    Simulated runs are deterministic — same image, same host stimuli,
    same enforcement backend, same cycle count — so completed
    :class:`RunResult` objects are persisted in the artifact store
    alongside the builds.  A warm hit skips the simulation entirely;
    the application's ``verify_run`` checks are re-applied to the
    rehydrated machine either way.  ``backend`` defaults to the
    ambient ``REPRO_BACKEND``; it is part of both the in-process memo
    key and the store digest, so no backend ever observes another's
    cycles.
    """
    profile = profile or active_profile()
    backend = backend or active_backend()
    key = (name, kind, profile, backend)
    if key in _run_cache:
        return _run_cache[key]
    app = build_app(name, profile)
    store = cache.active_store()
    digest = ""
    if store is not None:
        digest = _run_digest(app, name, kind, profile, backend)
        cached = store.get(digest)
        if cached is not None:
            app.verify_run(cached.machine, cached.halt_code)
            _run_cache[key] = cached
            return cached
    if kind == "vanilla":
        image = build_vanilla(app.module, app.board)
    elif kind == "opec":
        image = opec_artifacts(name, profile).image
    else:
        image = aces_artifacts(name, kind, profile).image
    result = run_image(image, setup=app.setup,
                       max_instructions=app.max_instructions,
                       backend=backend)
    fleet.record_simulation(result.machine.metrics,
                            result.interpreter.compile_metrics)
    app.verify_run(result.machine, result.halt_code)
    if store is not None:
        store.put(digest, result)
    _run_cache[key] = result
    return result


# -- whole-evaluation fan-out ------------------------------------------


def _run_kinds(name: str) -> tuple[str, ...]:
    """Build flavours the §6 row computations simulate for one app,
    in the order the computations request them."""
    from ..baselines.aces.compartments import ALL_STRATEGIES

    kinds: tuple[str, ...] = ("vanilla", "opec")
    if name in ACES_APPS:
        kinds += tuple(ALL_STRATEGIES)
    return kinds


def _rows_digest(app: Application, name: str, profile: str,
                 backend: str) -> str:
    """Content key for one application's row task: its OPEC build key
    (pipeline fingerprint, module, board, specs) plus the inputs its
    runs share."""
    return cache.rows_digest(
        cache.build_digest("opec", app.module, app.board, specs=app.specs),
        name, profile, max_instructions=app.max_instructions,
        backend=backend)


def _compute_app_rows(name: str, backend: str) -> dict:
    """Every §6 row that concerns one application, under the ambient
    profile, plus its backend-matrix cells (``"backends"``).
    ``backend`` reaches the run-based rows (Figure 9, Table 2) as an
    explicit parameter; the remaining rows are static analyses with no
    enforcement substrate.

    Each run is simulated (or loaded from its run entry) by
    :func:`run_build` when a cell or row first asks for it, so every
    run the rows come from has passed the application's
    ``verify_run``.  Row objects are plain dataclasses of primitives,
    so they cross a process boundary and are stored whole as the
    app's *row entry* (see :func:`compute_all_rows`)."""
    from . import backends, figure9, figure10, figure11, table1, table2, table3

    profile = active_profile()
    # Cells first: the runs only they need leave before the rows load
    # theirs, so the task holds no more machines at once than its rows
    # alone would.
    cells = backends.app_cells(name, profile=profile)
    _drop_runs(name, keep={(name, kind, profile, backend)
                           for kind in _run_kinds(name)})
    rows: dict = {
        "table1": table1.compute_row(name),
        "figure9": figure9.compute_row(name, backend=backend),
        "table3": table3.compute_row(name),
        "backends": cells,
    }
    if name in ACES_APPS:
        rows["table2"] = table2.compute_rows(name, backend=backend)
        rows["figure10"] = figure10.compute_app(name)
        rows["figure11"] = figure11.compute_app(name)
    return rows


def _drop_runs(name: str, keep: Collection[tuple] = ()) -> None:
    """Forget one app's in-process runs but the ``keep`` memo keys.  A
    finished app's machines are the bulk of a worker's memory, and the
    store (when on) still serves them to any later request."""
    for key in [key for key in _run_cache
                if key[0] == name and key not in keep]:
        del _run_cache[key]


def _run_app_task(job: tuple[tuple[Callable[[str], object], str], str]
                  ) -> tuple[object, fleet.WorkerTelemetry]:
    """``task(name)`` inside a telemetry capture window, stored under
    ``digest`` unless that is empty; the app's runs are dropped once
    the task is done.  ``job`` is ``((task, name), digest)``.  A
    capture window, not process totals: the pool reuses its
    processes, so one worker computes several apps back to back.
    Also the process-pool entry point of :func:`repro.obs.fleet.
    fan_out`: ``task`` is a module-level function or a
    ``functools.partial`` of one, and a worker inherits the parent's
    environment as it is (profile, ``REPRO_CACHE`` and the rest), so
    workers share the parent's on-disk store and only the first
    process to need a build or run pays for it."""
    (task, name), digest = job
    token = fleet.begin_capture()
    try:
        result = task(name)
        if digest:
            cache.active_store().put(digest, result)
    finally:
        envelope = fleet.end_capture(token)
        _drop_runs(name)
    return result, envelope


def map_apps(task: Callable[[str], object], names: Sequence[str],
             jobs: Optional[int] = None, *, digest_of=None
             ) -> list[tuple[object, fleet.WorkerTelemetry]]:
    """``(task(name), telemetry envelope)`` for each of ``names``, in
    order, through :func:`repro.obs.fleet.fan_out`.  With ``jobs``
    (default: ``REPRO_JOBS``) > 1 the apps run in a process pool, one
    app per task so an idle worker takes the next app; otherwise
    serially in this process.  With ``digest_of(name)`` (and the store
    on) each app's result is first looked up in this process, and only
    the apps the store lacks are computed, then stored."""
    jobs = repro_jobs() if jobs is None else max(1, jobs)
    results = fleet.fan_out(
        _run_app_task, [(task, name) for name in names], jobs,
        digest_of=None if digest_of is None
        else lambda pair: digest_of(pair[1]))
    for name, (_result, envelope) in zip(names, results):
        envelope.label = name
    return results


def compute_all_rows(jobs: Optional[int] = None,
                     backend: Optional[str] = None) -> dict[str, list]:
    """All rows for Tables 1–3 and Figures 9–11, and the backend
    matrix (``"backends"``: every app's cells plus the per-backend
    ``Average`` rows, as :func:`repro.eval.backends.compute_matrix`
    returns them).

    Each application is one :func:`map_apps` task whose finished rows
    are one *row entry* in the artifact store.  This process looks
    every row entry up first: a hit is the app's rows, and nothing else
    is built, simulated or decoded for it.  Only the apps the store
    lacks are computed, each simulating the runs its rows and cells
    need when one first asks for it (unless the store holds that run),
    dropping them once its rows exist, and storing the rows.  With
    ``jobs`` (default: ``REPRO_JOBS``) > 1 and more than one app to
    compute, those run in a process pool; a warm store starts none.
    The per-app rows are merged in fixed ``APP_NAMES`` order, so the
    result — and everything rendered from it — is identical to the
    serial path.

    The returned mapping carries three extra, non-table keys.
    ``"cache"``: aggregate artifact-cache hit/miss/bytes counters
    summed over this call across every worker process.  ``"compile"``:
    aggregate interpreter compile-metric counters (blocks/traces
    compiled, cache loads, fallback steps, …) summed the same way —
    previously these died with each worker's interpreters.
    ``"telemetry"``: the full per-worker
    :class:`~repro.obs.fleet.WorkerTelemetry` envelopes (conductor
    first, then one per application in ``APP_NAMES`` order) the
    aggregates are summed from.  Renderers ignore all three; they are
    diagnostic (cache/compile activity depends on cache temperature
    and is *not* part of the determinism contract).
    """
    from . import backends, figure9, table1

    backend = backend or active_backend()
    profile = active_profile()
    outer = fleet.begin_capture()
    try:
        results = map_apps(
            functools.partial(_compute_app_rows, backend=backend),
            APP_NAMES, jobs,
            digest_of=lambda name: _rows_digest(
                build_app(name, profile), name, profile, backend))
    finally:
        conductor = fleet.end_capture(outer, label="conductor")
    per_app = {name: rows for name, (rows, _envelope)
               in zip(APP_NAMES, results)}
    envelopes = [envelope for _rows, envelope in results]
    for index, envelope in enumerate(envelopes):
        envelope.worker = index + 1
    telemetry = [conductor, *envelopes]
    counters = cache.CacheCounters()
    compile_totals: dict[str, int] = {}
    for envelope in telemetry:
        counters.merge(envelope.cache_counters)
        for metric, value in envelope.compile_counters.items():
            compile_totals[metric] = compile_totals.get(metric, 0) + value
    return {
        "table1": table1.finalize_rows(
            [per_app[name]["table1"] for name in APP_NAMES]),
        "figure9": figure9.finalize_rows(
            [per_app[name]["figure9"] for name in APP_NAMES]),
        "table2": [row for name in ACES_APPS
                   for row in per_app[name]["table2"]],
        "figure10": [per_app[name]["figure10"] for name in ACES_APPS],
        "figure11": [per_app[name]["figure11"] for name in ACES_APPS],
        "table3": [per_app[name]["table3"] for name in APP_NAMES],
        "backends": backends.finalize_rows(
            [cell for name in APP_NAMES
             for cell in per_app[name]["backends"]]),
        "cache": counters.as_dict(),
        "compile": {metric: compile_totals[metric]
                    for metric in sorted(compile_totals)},
        "telemetry": telemetry,
    }
