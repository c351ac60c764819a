"""Per-layer attribution for the end-to-end benchmark, measured from outside.

Nothing here is imported by ``src/repro``; the traced benchmark child
installs it around one workload:

* :class:`LayerSampler` is a wall-clock sampling profiler.  Every
  ``interval`` seconds a ``SIGALRM`` handler charges the wall time since
  the previous sample to the layer of the innermost Python frame of the
  main thread.  Time inside a C function (``compile``, zlib, a lock
  wait) lands on the Python frame that called it, because the handler
  runs when control is back in Python.  The charges partition the
  sampled interval, so the per-layer times sum to its wall-clock.
  Deterministic profiling (``cProfile``) is not used: its cost is per
  call, so it tripled the cold export and inflated the share of the
  interpreter, which makes the most calls.
* :class:`Probes` wraps the public entry points (builds, simulations,
  fleet telemetry) at every import site, times them inclusively, and
  harvests the counters their results already carry.

Layers are named after ``src/repro`` packages; :data:`LAYER_PATHS` maps
every module to exactly one of them.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import time
from collections import Counter

#: The layer of every module under ``src/repro``.  An entry ending in
#: ``/`` covers a package, any other entry one file.
LAYER_PATHS = {
    "interp": ("interp/__init__.py", "interp/batch.py", "interp/costs.py",
               "interp/hooks.py", "interp/interpreter.py"),
    "interp.codegen": ("interp/blockcompile.py", "interp/closurecache.py",
                       "interp/tracefuse.py"),
    "hw.memory": ("hw/__init__.py", "hw/board.py", "hw/exceptions.py",
                  "hw/machine.py", "hw/memory.py"),
    "hw.backend": ("hw/backend.py", "hw/mpu.py", "hw/overlay.py",
                   "hw/pmp.py"),
    "hw.peripherals": ("hw/peripherals/",),
    "runtime": ("runtime/",),
    "cache": ("cache/",),
    "obs": ("obs/",),
    "analysis": ("analysis/", "partition/"),
    "image": ("image/",),
    "ir": ("ir/",),
    "baselines": ("baselines/",),
    "other": ("__init__.py", "apps/", "campaign/", "cli.py", "eval/",
              "pipeline.py"),
}

#: Per-layer self-time metric of each layer.  ``pool`` is the main
#: thread's time in executor, thread and lock code: waiting on workers.
SELF_METRICS = {layer: f"{layer}.self_s" for layer in LAYER_PATHS}
SELF_METRICS["pool"] = "pool.wait_s"

# Standard-library code charged to a layer other than "other", matched
# on a substring of the code's file name.  Generated block and trace
# closures are compiled from strings named "<block @...>"/"<trace @...>".
_FOREIGN_LAYERS = (
    ("<block @", "interp"),
    ("<trace @", "interp"),
    ("/concurrent/futures/", "pool"),
    ("/multiprocessing/", "pool"),
    ("/threading.py", "pool"),
    ("/queue.py", "pool"),
    ("/selectors.py", "pool"),
    ("/pickle.py", "cache"),
    ("/copyreg.py", "cache"),
)


def repro_layer(relative: str) -> list[str]:
    """Every layer whose entries match ``relative``, a path under
    ``src/repro`` with ``/`` separators (exactly one for a mapped file)."""
    return [layer for layer, entries in LAYER_PATHS.items()
            for entry in entries
            if relative == entry
            or (entry.endswith("/") and relative.startswith(entry))]


class LayerMap:
    """Maps a code object's file name to its layer, memoised per file."""

    def __init__(self, repro_dir: str):
        self._prefix = os.path.join(repro_dir, "")
        self._memo: dict[str, str] = {}

    def __call__(self, filename: str) -> str:
        layer = self._memo.get(filename)
        if layer is None:
            layer = self._memo[filename] = self._resolve(filename)
        return layer

    def _resolve(self, filename: str) -> str:
        if filename.startswith(self._prefix):
            relative = filename[len(self._prefix):].replace(os.sep, "/")
            layers = repro_layer(relative)
            return layers[0] if layers else "other"
        for marker, layer in _FOREIGN_LAYERS:
            if marker in filename:
                return layer
        return "other"


class LayerSampler:
    """Wall-clock sampling profiler charging time to layers (see module
    docstring).  Use as a context manager around the measured call."""

    def __init__(self, layer_map: LayerMap, interval: float = 0.001):
        self.layer_map = layer_map
        self.interval = interval
        self.self_s = {layer: 0.0 for layer in SELF_METRICS}
        self.wall_s = 0.0
        self._last = 0.0

    def _sample(self, _signum, frame) -> None:
        now = time.perf_counter()
        layer = "other" if frame is None \
            else self.layer_map(frame.f_code.co_filename)
        self.self_s[layer] += now - self._last
        self._last = now

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        now = time.perf_counter()
        # The tail after the last sample (under one interval).
        self.self_s["other"] += now - self._last
        self.wall_s = now - self._start


def _switches(metrics, hooks) -> int:
    """Operation switches of one run: the OPEC monitor's histogram, or
    the ACES runtime's compartment-entry counter."""
    hist = metrics.histograms.get("monitor.switch_cycles")
    if hist is not None and hist.count:
        return hist.count
    return getattr(hooks, "switch_count", 0) or 0


class Probes:
    """Inclusive timers and counters around the public entry points.

    ``spans`` holds the wall time of the outermost call of each kind
    (a build nested in a build is not counted twice).  ``counters``
    sums what simulation results carry: interpreter compile metrics,
    executed instructions, MemManage faults, operation switches, and
    recorder drops.  They cover the simulations of the traced process
    only; lanes run by worker processes (the export's fleet step always
    uses two) show up as ``pool.wait_s`` instead.
    """

    SPANS = ("pipeline.build_s", "pipeline.simulate_s", "obs.fleet_s")

    def __init__(self):
        self.spans = {span: 0.0 for span in self.SPANS}
        self.counters: Counter = Counter()
        self._depth: Counter = Counter()

    def install(self) -> None:
        """Patch every entry point at every ``repro`` import site."""
        from repro import pipeline
        from repro.baselines import build_aces
        from repro.eval import tracing
        from repro.interp.batch import BatchRunner
        from repro.obs import fleet

        for original in (pipeline.build_opec, pipeline.build_vanilla,
                         build_aces):
            _replace(original, self._wrap("pipeline.build_s", original))
        _replace(pipeline.run_image, self._wrap(
            "pipeline.simulate_s", pipeline.run_image, self._harvest_run))
        _replace(tracing.trace_tasks, self._wrap(
            "pipeline.simulate_s", tracing.trace_tasks,
            lambda pair: self._harvest_run(pair[1])))
        BatchRunner.run = self._wrap("pipeline.simulate_s", BatchRunner.run,
                                     self._harvest_batch)
        for name in ("run_fleet", "begin_capture", "end_capture",
                     "record_simulation"):
            original = getattr(fleet, name)
            _replace(original, self._wrap("obs.fleet_s", original))

    def _wrap(self, span: str, fn, harvest=None):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if self._depth[span]:
                return fn(*args, **kwargs)
            self._depth[span] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[span] += time.perf_counter() - start
                self._depth[span] -= 1
            if harvest is not None:
                harvest(result)
            return result
        return probe

    def _harvest_lane(self, interpreter, machine, hooks) -> None:
        counters = self.counters
        counters["insts"] += interpreter.instructions_executed
        counters["memmanage_faults"] += machine.stats.memmanage_faults
        counters["switches"] += _switches(machine.metrics, hooks)
        if machine.recorder is not None:
            counters["events_dropped"] += machine.recorder.dropped

    def _harvest_compile(self, registry) -> None:
        for name, cell in registry.counters.items():
            self.counters[name] += cell.value

    def _harvest_run(self, result) -> None:
        self._harvest_lane(result.interpreter, result.machine, result.hooks)
        self._harvest_compile(result.interpreter.compile_metrics)

    def _harvest_batch(self, result) -> None:
        for lane in result.lanes:
            self._harvest_lane(lane.interpreter, lane.machine, lane.hooks)
        self._harvest_compile(result.compile_metrics)


def _replace(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro``
    module, so calls through any import site reach the probe."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def layer_metrics(sampler: LayerSampler, probes: Probes,
                  cache_delta: dict) -> dict[str, float]:
    """The traced child's share of the per-layer metrics (the parent
    adds ``pool.utilisation`` and ``trace_overhead``)."""
    counters = probes.counters
    cache = Counter(cache_delta)
    entries = counters["blockcompile.block_entries"]
    lookups = cache["hits"] + cache["misses"]
    metrics = {SELF_METRICS[layer]: seconds
               for layer, seconds in sampler.self_s.items()}
    metrics.update(probes.spans)
    metrics.update({
        "interp.block_entries": entries,
        "interp.insts": counters["insts"],
        "interp.fallback_steps": counters["blockcompile.fallback_steps"],
        "interp.codegen.blocks_compiled":
            counters["blockcompile.blocks_compiled"],
        "interp.codegen.closures_loaded":
            counters["closurecache.blocks_loaded"]
            + counters["closurecache.traces_loaded"],
        "interp.trace_entry_ratio":
            counters["tracefuse.trace_entries"] / entries if entries else 0.0,
        "hw.backend.memmanage_faults": counters["memmanage_faults"],
        "runtime.switches": counters["switches"],
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.bytes_read": cache["bytes_read"],
        "obs.events_dropped": counters["events_dropped"],
    })
    return metrics
