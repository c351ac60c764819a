"""Export evaluation results to files (text report + TSV data series).

``python -m repro.eval.export [output_dir]`` regenerates every table
and figure and writes:

* ``<target>.txt`` — the rendered text (what the console prints);
* ``<target>.tsv`` — machine-readable rows for plotting elsewhere;
* ``backends.txt`` / ``backends.tsv`` — the comparative
  enforcement-backend matrix (MPU / PMP / overlay overheads, switch
  costs, over-privilege) from :mod:`repro.eval.backends`, whose cells
  each application's row task computes;
* ``trace_pinlock.json`` / ``trace_pinlock.tsv`` — the PinLock OPEC
  run's flight-recorder stream (Chrome trace-event JSON for Perfetto,
  plus one row per event), taken from the fleet step's
  ``PinLock:opec:<backend>`` lane — sim domain only, so the bytes are
  cache-temperature-independent and equal what
  :func:`repro.eval.tracing.record_app_trace` renders;
* ``metrics_pinlock.txt`` — the same run's metrics registry;
* ``campaign_smoke.txt`` / ``campaign_smoke.tsv`` — the differential
  security campaign over the committed smoke corpus
  (:data:`repro.campaign.SMOKE_CONFIG`): containment, over-privilege,
  and switch-cost report plus the flat per-lane rows;
* ``fleet_pinlock.json`` / ``fleet_pinlock.txt`` — the fused
  multi-process fleet trace and dashboard for PinLock across every
  enforcement backend under two workers
  (:func:`repro.obs.fleet.run_fleet`).  The sim-domain sections are
  byte-stable for any worker count or cache temperature; the
  host-domain sections carry wall clock and are masked by
  ``tools/check_determinism.py``.

The table, figure and backend rows come from one
:func:`repro.eval.workloads.compute_all_rows` call: one task per
application, whose finished rows are one row entry in the artifact
store; a missing entry is computed, simulating each run its rows and
cells need that the store lacks.  The campaign's firmware reports and
the fleet's lanes are store entries too.  All three fan-outs look
their entries up in this process and start a ``REPRO_JOBS`` pool only
for what is missing, so a warm export forks no worker and simulates
nothing.  ``REPRO_JOBS`` > 1 runs the missing tasks concurrently
while the written files stay bit-identical to a serial export.

The ``repro.eval`` package must not import this module: ``python -m``
would then run it twice.
"""

from __future__ import annotations

import os
import sys

from ..obs import chrome_trace, event_tsv
from . import backends, figure9, figure10, figure11, table1, table2, table3
from .workloads import compute_all_rows


def _tsv(rows: list[list[object]]) -> str:
    return "\n".join("\t".join(str(c) for c in row) for row in rows) + "\n"


def export_all(output_dir: str) -> list[str]:
    os.makedirs(output_dir, exist_ok=True)
    written: list[str] = []

    def save(name: str, text: str, rows: list[list[object]]) -> None:
        text_path = os.path.join(output_dir, f"{name}.txt")
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        tsv_path = os.path.join(output_dir, f"{name}.tsv")
        with open(tsv_path, "w", encoding="utf-8") as handle:
            handle.write(_tsv(rows))
        written.extend([text_path, tsv_path])

    def write_all(files: list[tuple[str, str]]) -> None:
        for name, text in files:
            path = os.path.join(output_dir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            written.append(path)

    all_rows = compute_all_rows()

    t1 = all_rows["table1"]
    save("table1", table1.render(t1), [
        ["app", "ops", "avg_funcs", "pri_code", "pri_pct",
         "avg_gvars", "avg_gvars_pct"],
        *[[r.app, r.operations, f"{r.avg_functions:.2f}",
           r.privileged_code, f"{r.privileged_pct:.2f}",
           f"{r.avg_gvars:.2f}", f"{r.avg_gvars_pct:.2f}"] for r in t1],
    ])

    f9 = all_rows["figure9"]
    save("figure9", figure9.render(f9), [
        ["app", "runtime_pct", "flash_pct", "sram_pct"],
        *[[r.app, f"{r.runtime_pct:.4f}", f"{r.flash_pct:.3f}",
           f"{r.sram_pct:.3f}"] for r in f9],
    ])

    t2 = all_rows["table2"]
    save("table2", table2.render(t2), [
        ["app", "policy", "ro_x", "fo_pct", "so_pct", "pac_pct"],
        *[[r.app, r.policy, f"{r.runtime_ratio:.3f}",
           f"{r.flash_pct:.3f}", f"{r.sram_pct:.3f}",
           f"{r.privileged_app_pct:.2f}"] for r in t2],
    ])

    f10 = all_rows["figure10"]
    rows10: list[list[object]] = [["app", "policy",
                                   *(f"pt<={t}" for t in figure10.THRESHOLDS)]]
    for entry in f10:
        for policy in (*figure10.ALL_STRATEGIES, "OPEC"):
            rows10.append([entry.app, policy,
                           *(f"{v:.3f}" for v in entry.cumulative(policy))])
    save("figure10", figure10.render(f10), rows10)

    f11 = all_rows["figure11"]
    rows11: list[list[object]] = [["app", "policy", "task", "et"]]
    for entry in f11:
        for policy, values in entry.et.items():
            for task, value in zip(entry.tasks, values):
                rows11.append([entry.app, policy, task, f"{value:.3f}"])
    save("figure11", figure11.render(f11), rows11)

    t3 = all_rows["table3"]
    save("table3", table3.render(t3), [
        ["app", "icalls", "svf", "time_s", "type", "avg", "max"],
        *[[r.app, r.icalls, r.svf_resolved, f"{r.solve_time_s:.3f}",
           r.type_resolved, f"{r.avg_targets:.2f}", r.max_targets]
          for r in t3],
    ])

    # Comparative enforcement-backend matrix: every app's OPEC build
    # under MPU / PMP / overlay.  Each app's row task above computed
    # its cells from the same batch as its table and figure rows.
    bk = all_rows["backends"]
    save("backends", backends.render(bk), [
        ["app", "backend", "cycles", "runtime_pct", "switches",
         "switch_cycles", "switch_avg", "memmanage_faults",
         "region_swaps", "pt_avg"],
        *[[r.app, r.backend, r.cycles, f"{r.runtime_pct:.4f}",
           r.switches, r.switch_cycles, f"{r.switch_avg:.2f}",
           r.memmanage_faults, r.region_swaps, f"{r.pt_avg:.4f}"]
          for r in bk],
    ])

    # Fleet observability: PinLock lanes across every backend, fanned
    # out over two workers for the lanes the store lacks.  Only the sim
    # sections join the determinism sweep (the host sections are wall
    # clock).
    from ..hw.backend import active_backend
    from ..obs import fleet as fleet_obs

    fleet_result = fleet_obs.run_fleet(
        "PinLock", jobs=2, backends=("mpu", "pmp", "overlay"))

    # Flight-recorder exports: the fleet's PinLock OPEC lane on the
    # ambient backend, recorded by the same ring a lone traced run
    # would use.  Sim-domain only, so the bytes do not depend on cache
    # temperature.
    lane_name = f"PinLock:opec:{active_backend()}"
    lane = next(lane for lane in fleet_result.lanes
                if lane.name == lane_name)
    write_all([
        ("trace_pinlock.json",
         chrome_trace(lane.events, dropped=lane.dropped)),
        ("trace_pinlock.tsv", event_tsv(lane.events)),
        ("metrics_pinlock.txt", lane.metrics.render(
            f"PinLock [opec] — halt={lane.halt_code} "
            f"cycles={lane.cycles}") + "\n"),
    ])

    # Differential security campaign over the smoke corpus.  Fans out
    # over the same REPRO_JOBS pool; the report is byte-identical at
    # any job count, so it joins the determinism sweep unmasked.
    from ..campaign import (SMOKE_CONFIG, render_report, report_rows,
                            run_campaign)

    campaign = run_campaign(SMOKE_CONFIG)
    save("campaign_smoke", render_report(campaign),
         report_rows(campaign))

    write_all([
        ("fleet_pinlock.json", fleet_obs.fuse_trace(fleet_result)),
        ("fleet_pinlock.txt",
         fleet_obs.render_dashboard(fleet_result) + "\n"),
    ])
    return written


def main() -> None:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "results"
    for path in export_all(output_dir):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
