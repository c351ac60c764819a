"""Figure 11: ET (execution-time over-privilege) per task, for OPEC
and the three ACES strategies on the five shared applications (§6.4).

Tasks are the operation entries.  One traced run of the vanilla build
provides each task's executed-function set (the GDB single-stepping of
the paper); "needed" globals depend on the scheme:

* OPEC — the operation's resource dependency;
* ACES — the union of the dependencies of every compartment the task's
  executed functions belong to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import cache
from ..apps import ACES_APPS
from ..baselines.aces.compartments import ALL_STRATEGIES
from ..image.layout import build_vanilla_image
from ..ir.values import GlobalVariable
from .metrics import et_value
from .report import render_table
from .tracing import TaskTrace, trace_tasks
from .workloads import aces_artifacts, build_app, opec_artifacts


def _rebase_globals(variables: set[GlobalVariable],
                    module) -> set[GlobalVariable]:
    """The same (by name) global variables, as ``module``'s objects."""
    return {module.get_global(v.name) for v in variables}

# ET depends only on *which* functions each task executes — not on how
# many times the workload repeats them — so the figure runs entirely on
# the downscaled profile.  Resource sets are keyed by object identity
# *within* each build's artifacts; the trace records function names,
# and all cross-build joins below resolve names inside the build being
# analysed, so cache-rehydrated artifacts (fresh module copies) yield
# the same values as a cold in-process build.
PROFILE = "quick"

_trace_cache: dict[str, TaskTrace] = {}


def task_trace(name: str) -> TaskTrace:
    """The §6.4 executed-function trace of ``name``'s vanilla build.

    Memoised in-process and persisted in the artifact store: the trace
    is a pure function of the firmware, the stimuli, and the simulator,
    all of which the trace digest covers.  The traced run is checked
    with ``app.verify_run`` first, like every other run.
    """
    if name not in _trace_cache:
        app = build_app(name, profile=PROFILE)
        entries = [spec.entry for spec in app.specs]
        store = cache.active_store()
        digest = ""
        if store is not None:
            digest = cache.trace_digest(
                cache.build_digest("vanilla", app.module, app.board),
                name, PROFILE, entries,
                max_instructions=app.max_instructions)
            cached = store.get(digest)
            if cached is not None:
                _trace_cache[name] = cached
                return cached
        image = build_vanilla_image(app.module, app.board)
        trace, result = trace_tasks(image, entries, setup=app.setup,
                                    max_instructions=app.max_instructions)
        # A run that stopped early would give wrong ET values, cached
        # for every later export: check it like any other run.
        app.verify_run(result.machine, result.halt_code)
        if store is not None:
            store.put(digest, trace)
        _trace_cache[name] = trace
    return _trace_cache[name]


def _used_globals(name: str, task: str) -> set[GlobalVariable]:
    """Globals of the functions the task actually executed, resolved
    in the OPEC artifacts' module."""
    artifacts = opec_artifacts(name, profile=PROFILE)
    used: set[GlobalVariable] = set()
    for func in task_trace(name).functions_of(task, artifacts.module):
        used |= artifacts.resources.function_resources(func).globals_all
    return {v for v in used if not v.is_const}


@dataclass
class Figure11Data:
    app: str
    tasks: list[str] = field(default_factory=list)
    et: dict[str, list[float]] = field(default_factory=dict)


def compute_app(name: str) -> Figure11Data:
    app = build_app(name, profile=PROFILE)
    opec = opec_artifacts(name, profile=PROFILE)
    tasks = [spec.entry for spec in app.specs]
    data = Figure11Data(app=name, tasks=tasks)

    opec_values = []
    for task in tasks:
        operation = opec.policy.operation_by_entry(task)
        needed = {v for v in operation.resources.globals_all if not v.is_const}
        opec_values.append(et_value(_used_globals(name, task), needed))
    data.et["OPEC"] = opec_values

    for strategy in ALL_STRATEGIES:
        artifacts = aces_artifacts(name, strategy, profile=PROFILE)
        values = []
        for task in tasks:
            executed = task_trace(name).functions_of(task, artifacts.module)
            involved = {
                artifacts.image.compartment_for(f) for f in executed
            } - {None}
            needed: set[GlobalVariable] = set()
            for compartment in involved:
                needed |= {
                    v for v in compartment.resources.globals_all
                    if not v.is_const
                }
            # ET intersects by identity; the ACES compartments may be a
            # different module copy than the OPEC artifacts (cache
            # rehydration), so rebase "needed" into the OPEC module.
            needed = _rebase_globals(needed, opec.module)
            values.append(et_value(_used_globals(name, task), needed))
        data.et[strategy] = values
    return data


def compute_figure(apps: tuple[str, ...] = ACES_APPS) -> list[Figure11Data]:
    return [compute_app(name) for name in apps]


def render(data: list[Figure11Data]) -> str:
    blocks = []
    for entry in data:
        rows = []
        for policy in (*ALL_STRATEGIES, "OPEC"):
            rows.append(
                (policy, *(f"{v:.2f}" for v in entry.et[policy]))
            )
        blocks.append(render_table(
            ["Policy", *(f"T{i + 1}" for i in range(len(entry.tasks)))],
            rows,
            title=(f"Figure 11({entry.app}): ET per task "
                   f"(tasks: {', '.join(entry.tasks)})"),
        ))
    return "\n\n".join(blocks)


def main() -> None:
    print(render(compute_figure()))


if __name__ == "__main__":
    main()
