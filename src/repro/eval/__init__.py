"""Evaluation harness: every table and figure of §6.

Run any generator directly::

    python -m repro.eval.table1
    python -m repro.eval.figure9
    python -m repro.eval.table2
    python -m repro.eval.figure10
    python -m repro.eval.figure11
    python -m repro.eval.table3

or everything at once: ``python -m repro.eval.report_all``, or
``python -m repro.eval.export [dir]`` to write every result file.
Set ``REPRO_PROFILE=quick`` to downscale the workloads.

The package does not import those entry-point modules (nor the
cycle profiler) itself: ``python -m`` would otherwise find the module
it is about to run already imported and run it a second time.  Import
them by name (``from repro.eval import table1``).
"""

from . import metrics, report
from .tracing import TaskTrace, TaskTracer, trace_tasks
from .workloads import (
    APP_NAMES,
    aces_artifacts,
    build_app,
    clear_caches,
    opec_artifacts,
    run_build,
)

__all__ = [
    "metrics", "report",
    "TaskTrace", "TaskTracer", "trace_tasks",
    "APP_NAMES", "aces_artifacts", "build_app", "clear_caches",
    "opec_artifacts", "run_build",
]
