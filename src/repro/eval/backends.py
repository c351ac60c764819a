"""Comparative enforcement-backend matrix.

Runs every application's OPEC build once per enforcement backend
(ARMv7-M MPU, RISC-V PMP adapter, Complets-style permission overlay)
and reports, side by side:

* **runtime overhead** versus the unprotected vanilla baseline —
  vanilla cycles are backend-independent (enforcement is never turned
  on), so the baseline is pinned to the default MPU backend and every
  backend's overhead is measured against the *same* denominator;
* **switch cost** — how many operation switches happened (identical
  across backends: the policy, not the substrate, decides where
  switches go) and what each one cost on that substrate, from the
  monitor's ``monitor.switch_cycles`` histogram;
* **enforcement traffic** — MemManage faults taken and peripheral
  window swaps performed, which must agree across backends for the
  same firmware (a divergence means an arbitration bug, which is
  exactly what the differential property tests pin down);
* **over-privilege** — the mean per-operation PT ratio (Eq. 1).  PT is
  a property of the *policy*, not of the enforcement substrate, so
  equal columns are the expected result; the matrix makes that
  invariance (and the differing switch costs) visible.

Row order is fixed — apps in :data:`APP_NAMES` order, backends in
:data:`KNOWN_BACKENDS` order, per-backend ``Average`` rows last — so
the rendered report is byte-deterministic and safe to commit under
``results/``.  :func:`app_cells` computes one application's cells from
:func:`~repro.eval.workloads.run_build` runs; the export gets them from
each application's row task
(:func:`repro.eval.workloads.compute_all_rows`),
and :func:`compute_matrix` maps :func:`app_cells` over the applications
through the same fan-out, so with ``REPRO_JOBS`` > 1 applications run
concurrently while the merged output stays identical to the serial
path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..hw.backend import KNOWN_BACKENDS
from .workloads import APP_NAMES, map_apps, run_build


@dataclass
class BackendRow:
    """One (application, backend) cell of the comparison matrix."""

    app: str
    backend: str
    cycles: int
    runtime_pct: float      # overhead vs the shared vanilla baseline
    switches: int           # operation switches (call direction)
    switch_cycles: int      # total cycles spent in switches
    switch_avg: float       # mean cycles per switch on this substrate
    memmanage_faults: int
    region_swaps: int       # peripheral-window MPU/overlay swaps
    pt_avg: float           # mean per-operation PT ratio (Eq. 1)


def compute_cell(name: str, backend: str,
                 profile: Optional[str] = None) -> BackendRow:
    """One app under one backend, with the shared MPU-vanilla baseline."""
    from . import figure10

    result = run_build(name, "opec", profile=profile, backend=backend)
    baseline = run_build(name, "vanilla", profile=profile, backend="mpu")
    hist = result.machine.metrics.histogram("monitor.switch_cycles")
    stats = result.machine.stats
    pt = figure10.opec_pt_values(name)
    return BackendRow(
        app=name,
        backend=backend,
        cycles=result.cycles,
        runtime_pct=(result.cycles / baseline.cycles - 1) * 100.0,
        switches=hist.count,
        switch_cycles=hist.total,
        switch_avg=hist.mean,
        memmanage_faults=stats.memmanage_faults,
        region_swaps=stats.peripheral_region_switches,
        pt_avg=sum(pt) / len(pt) if pt else 1.0,
    )


def app_cells(name: str, backends: Sequence[str] = KNOWN_BACKENDS,
              profile: Optional[str] = None) -> list[BackendRow]:
    """One app's cells, in ``backends`` order."""
    return [compute_cell(name, backend, profile) for backend in backends]


def finalize_rows(cells: list[BackendRow],
                  backends: Sequence[str] = KNOWN_BACKENDS
                  ) -> list[BackendRow]:
    """Append a per-backend ``Average`` row to the (app, backend)
    cells."""
    averages = []
    for backend in backends:
        column = [r for r in cells if r.backend == backend]
        if not column:
            continue
        n = len(column)
        averages.append(BackendRow(
            app="Average",
            backend=backend,
            cycles=sum(r.cycles for r in column),
            runtime_pct=sum(r.runtime_pct for r in column) / n,
            switches=sum(r.switches for r in column),
            switch_cycles=sum(r.switch_cycles for r in column),
            switch_avg=sum(r.switch_avg for r in column) / n,
            memmanage_faults=sum(r.memmanage_faults for r in column),
            region_swaps=sum(r.region_swaps for r in column),
            pt_avg=sum(r.pt_avg for r in column) / n,
        ))
    return [*cells, *averages]


def compute_matrix(apps: Sequence[str] = APP_NAMES,
                   backends: Sequence[str] = KNOWN_BACKENDS,
                   jobs: Optional[int] = None) -> list[BackendRow]:
    """All (app, backend) cells plus per-backend ``Average`` rows, one
    :func:`app_cells` task per app (``jobs`` defaults to
    ``REPRO_JOBS``)."""
    task = functools.partial(app_cells, backends=tuple(backends))
    cells = [cell for app_rows, _envelope in map_apps(task, apps, jobs)
             for cell in app_rows]
    return finalize_rows(cells, backends)


# ``repro eval backends`` dispatches through the same
# compute_table/render shape as the table modules.
def compute_table(apps: Sequence[str] = APP_NAMES) -> list[BackendRow]:
    return compute_matrix(apps)


def render(rows: list[BackendRow]) -> str:
    lines = [
        "Enforcement-backend comparison — runtime overhead, switch "
        "cost, over-privilege",
        f"{'App':12s} {'Backend':8s} {'Cycles':>12s} {'Overhd%':>8s} "
        f"{'Switches':>8s} {'SwCycles':>10s} {'SwAvg':>8s} "
        f"{'Faults':>7s} {'Swaps':>6s} {'PT(avg)':>8s}",
    ]
    previous_app = None
    for row in rows:
        if previous_app is not None and row.app != previous_app:
            lines.append("")
        previous_app = row.app
        lines.append(
            f"{row.app:12s} {row.backend:8s} {row.cycles:>12d} "
            f"{row.runtime_pct:>8.3f} {row.switches:>8d} "
            f"{row.switch_cycles:>10d} {row.switch_avg:>8.1f} "
            f"{row.memmanage_faults:>7d} {row.region_swaps:>6d} "
            f"{row.pt_avg:>8.3f}")
    lines.append("")
    lines.append(
        "PT and enforcement traffic are policy properties — equal "
        "across backends by construction; switch cost is the "
        "substrate's (base + per-region) model.")
    return "\n".join(lines)
