"""Differential campaign executor.

One campaign = one seed.  For each corpus member the engine builds all
requested flavours (vanilla / OPEC / ACES — served by the
content-addressed artifact store like every other build), resolves
each attack against each concrete image, and drives one
:class:`~repro.interp.batch.BatchRunner` fleet per firmware: a
baseline lane plus one lane per attack, for every (flavour, backend)
pair, all sharing the flavour images and their compiled blocks.

Firmwares fan out over ``REPRO_JOBS`` worker processes through
:func:`repro.obs.fleet.fan_out`, like :func:`repro.eval.workloads.
compute_all_rows`; the per-firmware reports are merged in corpus
index order, and each finished :class:`FirmwareReport` is itself
persisted in the artifact store, so re-running a campaign with a warm
store replays no simulation and starts no worker: the caller serves
every report from its entry.  Either way the merged
:class:`CampaignResult` — and the report rendered from it — is
byte-identical: same seed, same bytes, regardless of job count, cache
temperature, or ``PYTHONHASHSEED``.

Outcome classification per attack lane:

* **blocked**   — the run died on a simulated fault / security abort
  (the enforcement substrate contained the attack);
* **succeeded** — the run halted normally and the attack's evidence
  cell holds the planted value;
* **survived**  — the run halted normally but the payload left no
  trace (injected stimulus was absorbed);
* **error**     — the lane died on a host-side defect
  (:class:`~repro.interp.batch.LaneFailure`), kept from killing
  sibling lanes by the batch runner's fault isolation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .. import cache
from ..baselines import build_aces
from ..eval.metrics import pt_value
from ..interp.batch import BatchRunner, LaneFailure
from ..obs import fleet
from ..obs.events import FLEET_FIRMWARE
from ..obs.recorder import FlightRecorder, active_recorder, install, \
    trace_capacity
from ..pipeline import build_opec, build_vanilla
from .attacks import ATTACK_KINDS, attack_setup, resolve_attack
from .generator import GeneratedFirmware, generate_firmware

#: Build flavours a campaign can run, in report order.
KNOWN_FLAVOURS = ("vanilla", "opec", "aces")


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign's full parameterisation (a pure-primitive frozen
    dataclass: picklable for the process pool, hashable for the report
    cache digest)."""

    seed: int = 2026
    firmwares: int = 8
    attacks: tuple[str, ...] = ATTACK_KINDS
    flavours: tuple[str, ...] = KNOWN_FLAVOURS
    backends: tuple[str, ...] = ("mpu", "pmp", "overlay")
    # ACES2 (filename, no compartment-merge optimisation) keeps one
    # compartment per source file; the merge optimisation of ACES1
    # collapses these small generated firmwares into 2–3 compartments
    # whose region groups degenerate to accessor-pure sets (PT = 0),
    # hiding exactly the over-privilege the campaign measures.
    aces_strategy: str = "ACES2"
    jobs: Optional[int] = None          # None → REPRO_JOBS
    # Install a host-side flight recorder in every worker so the
    # telemetry envelopes carry ``fleet.firmware`` wall-clock spans
    # (``repro fleet campaign`` turns this on).  Not part of the
    # report digest: tracing never changes a simulated outcome.
    telemetry_trace: bool = False

    def validate(self) -> None:
        if self.firmwares < 1:
            raise ValueError("campaign needs at least one firmware")
        for kind in self.attacks:
            if kind not in ATTACK_KINDS:
                raise ValueError(
                    f"unknown attack kind {kind!r}: expected one of "
                    f"{', '.join(ATTACK_KINDS)}")
        for flavour in self.flavours:
            if flavour not in KNOWN_FLAVOURS:
                raise ValueError(
                    f"unknown flavour {flavour!r}: expected one of "
                    f"{', '.join(KNOWN_FLAVOURS)}")


#: The committed-results configuration: small enough for CI, large
#: enough that the containment differential is unambiguous.
SMOKE_CONFIG = CampaignConfig(seed=2026, firmwares=8,
                              attacks=("global", "icall"))


@dataclass
class LaneOutcome:
    """One (attack, flavour, backend) lane's classified result."""

    outcome: str                 # succeeded | blocked | survived | error | ok
    detail: str = ""             # fault class, for blocked/error lanes
    halt_code: int = -1
    cycles: int = 0
    switches: int = 0
    switch_cycles: int = 0


@dataclass
class FirmwareReport:
    """Everything the corpus report needs about one firmware — plain
    primitives only, so it crosses process and cache boundaries."""

    name: str
    index: int
    tasks: int
    victim: str
    # baseline (attack-free) and attack lanes, keyed by primitives:
    # baseline[(flavour, backend)]; cells[(attack, flavour, backend)].
    baseline: dict[tuple[str, str], LaneOutcome] = field(default_factory=dict)
    cells: dict[tuple[str, str, str], LaneOutcome] = field(
        default_factory=dict)
    # Per-domain partition-time over-privilege values per flavour.
    pt: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class CampaignResult:
    config: CampaignConfig
    reports: list[FirmwareReport]
    # One WorkerTelemetry envelope per firmware evaluation (corpus
    # index order), aggregated by ``repro campaign``'s footer and
    # ``repro fleet campaign``.  Diagnostic: cache/compile content
    # varies with cache temperature; never rendered into the report.
    telemetry: list = field(default_factory=list)


def _classify(lane, plan) -> LaneOutcome:
    """Map one finished batch lane to its reported outcome."""
    if lane.error is not None:
        kind = "error" if isinstance(lane.error, LaneFailure) else "blocked"
        return LaneOutcome(outcome=kind,
                           detail=type(lane.error).__name__,
                           cycles=lane.cycles)
    hist = lane.machine.metrics.histogram("monitor.switch_cycles")
    switches, switch_cycles = hist.count, hist.total
    if switches == 0:
        # The ACES runtime counts compartment entries on the hooks
        # object instead of the monitor histogram; it charges the
        # backend's base cost once on entry and once on return.
        entries = getattr(lane.hooks, "switch_count", 0)
        if entries:
            switches = entries
            switch_cycles = (2 * entries
                             * lane.machine.enforcement.switch_base_cost)
    outcome = "ok"
    if plan is not None:
        evidence = lane.machine.read_direct(plan.evidence_address, 4)
        outcome = ("succeeded" if evidence == plan.evidence_value
                   else "survived")
    return LaneOutcome(outcome=outcome, halt_code=lane.halt_code,
                       cycles=lane.cycles, switches=switches,
                       switch_cycles=switch_cycles)


def _build_images(config: CampaignConfig,
                  firmware: GeneratedFirmware) -> dict[str, object]:
    images: dict[str, object] = {}
    for flavour in config.flavours:
        if flavour == "vanilla":
            images[flavour] = build_vanilla(firmware.module, firmware.board)
        elif flavour == "opec":
            images[flavour] = build_opec(firmware.module, firmware.board,
                                         firmware.specs).image
        else:
            images[flavour] = build_aces(firmware.module, firmware.board,
                                         config.aces_strategy).image
    return images


def _pt_values(config: CampaignConfig, firmware: GeneratedFirmware,
               images: dict[str, object]) -> dict[str, list[float]]:
    """Equation-1 over-privilege per protection domain, per flavour.

    OPEC domains are operations over their shadowed sections (PT = 0
    by construction); ACES domains are compartments over their merged
    region assignment; the vanilla "domain" per task is the entire
    writable data segment — everything is accessible to everyone.
    """
    values: dict[str, list[float]] = {}
    opec = images.get("opec")
    if opec is not None:
        policy = opec.policy
        values["opec"] = [
            pt_value(
                {v for v in policy.section_vars(op) if not v.is_const},
                {v for v in op.resources.globals_all if not v.is_const},
            )
            for op in policy.operations
        ]
        all_writable = {v for v in firmware.module.iter_globals()
                        if not v.is_const}
        if "vanilla" in config.flavours:
            values["vanilla"] = [
                pt_value(
                    all_writable,
                    {v for v in op.resources.globals_all
                     if not v.is_const},
                )
                for op in policy.operations
            ]
    aces = images.get("aces")
    if aces is not None:
        values["aces"] = [
            pt_value(
                {v for v in aces.assignment.accessible_vars(compartment)
                 if not v.is_const},
                {v for v in compartment.resources.globals_all
                 if not v.is_const},
            )
            for compartment in aces.compartments
        ]
    return values


def evaluate_firmware(config: CampaignConfig, index: int) -> FirmwareReport:
    """Generate, build, attack, and classify one corpus member.  The
    report store is :func:`run_campaign`'s business: this always
    evaluates."""
    firmware = generate_firmware(config.seed, index)
    with fleet.wall_span(active_recorder(), FLEET_FIRMWARE,
                         firmware.name, index=index):
        images = _build_images(config, firmware)
        plans = {
            (kind, flavour): resolve_attack(kind, firmware,
                                            images[flavour])
            for flavour in config.flavours
            for kind in config.attacks
        }

        report = FirmwareReport(
            name=firmware.name, index=index, tasks=len(firmware.tasks),
            victim=firmware.victim, pt=_pt_values(config, firmware, images),
        )
        runner = BatchRunner()
        lane_plans = []
        for flavour in config.flavours:
            image = images[flavour]
            for backend in config.backends:
                runner.add(
                    image,
                    name=f"{firmware.name}:{flavour}:{backend}:baseline",
                    setup=firmware.base_setup(),
                    max_instructions=firmware.max_instructions,
                    backend=backend,
                )
                lane_plans.append((None, flavour, backend, None))
                for kind in config.attacks:
                    plan = plans[(kind, flavour)]
                    runner.add(
                        image,
                        name=f"{firmware.name}:{flavour}:{backend}:{kind}",
                        setup=attack_setup(firmware, plan),
                        max_instructions=firmware.max_instructions,
                        backend=backend,
                    )
                    lane_plans.append((kind, flavour, backend, plan))
        # The runner hands lanes over in ``add`` order.
        pending = iter(lane_plans)

        def classify(lane) -> None:
            kind, flavour, backend, plan = next(pending)
            fleet.record_simulation(lane.machine.metrics)
            outcome = _classify(lane, plan)
            if kind is None:
                report.baseline[(flavour, backend)] = outcome
            else:
                report.cells[(kind, flavour, backend)] = outcome
            # Classified: the lane's machine is garbage from here on.
            lane.machine.release_devices()

        result = runner.run(classify)

    fleet.record_simulation(compile_metrics=result.compile_metrics)
    return report


def _report_digest(config: CampaignConfig, index: int) -> str:
    """Content key for one firmware's finished report: the firmware's
    structural digest plus every config axis that shapes the lanes.
    The store itself is scoped by the pipeline fingerprint, so source
    changes invalidate these entries like any build."""
    firmware = generate_firmware(config.seed, index)
    key = hashlib.sha256()
    key.update(b"campaign-report-v1\n")
    key.update(repr((config.seed, firmware.index, config.attacks,
                     config.flavours, config.backends,
                     config.aces_strategy)).encode())
    key.update(cache.module_digest(firmware.module).encode())
    return key.hexdigest()


def _firmware_worker(
        job: tuple[tuple[CampaignConfig, int], str],
) -> tuple[FirmwareReport, fleet.WorkerTelemetry]:
    """Process-pool entry point of :func:`repro.obs.fleet.fan_out`:
    ``job`` is ``((config, index), digest)``, and the report is stored
    under ``digest`` unless that is empty.  No environment pinning:
    every parameter the lanes depend on travels inside ``config``, and
    the artifact store location is inherited.  Each firmware evaluates
    inside its own telemetry capture window, so the returned envelope
    carries exactly that firmware's cache traffic, compile activity,
    simulated metrics, and — under ``config.telemetry_trace`` — its
    ``fleet.firmware`` wall-clock span."""
    (config, index), digest = job
    recorder = FlightRecorder(trace_capacity()) \
        if config.telemetry_trace else None
    previous = install(recorder) if recorder is not None else None
    token = fleet.begin_capture()
    try:
        report = evaluate_firmware(config, index)
        if digest:
            cache.active_store().put(digest, report)
    finally:
        if recorder is not None:
            install(previous)
        envelope = fleet.end_capture(
            token,
            host_events=recorder.events() if recorder is not None else ())
    return report, envelope


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run the whole corpus, fanned out over ``REPRO_JOBS`` workers.

    Each finished :class:`FirmwareReport` is one entry in the artifact
    store.  This process looks every report up first and serves the
    hits itself; only the firmwares the store lacks are evaluated, in
    a pool when more than one is missing (contiguous chunks, not one
    task per firmware, keep each worker on one long-lived slice: the
    per-process build memos and the warm closure cache amortise across
    the chunk).  With the store off nothing is looked up or generated
    here before the pool starts."""
    from ..eval.workloads import repro_jobs

    config.validate()
    jobs = repro_jobs() if config.jobs is None else max(1, config.jobs)
    pairs = fleet.fan_out(
        _firmware_worker,
        [(config, index) for index in range(config.firmwares)], jobs,
        digest_of=lambda task: _report_digest(*task), chunked=True)
    reports = [report for report, _ in pairs]
    telemetry = []
    for position, (report, envelope) in enumerate(pairs):
        envelope.worker = position + 1
        envelope.label = report.name
        telemetry.append(envelope)
    return CampaignResult(config=config, reports=reports,
                          telemetry=telemetry)


__all__ = [
    "KNOWN_FLAVOURS",
    "SMOKE_CONFIG",
    "CampaignConfig",
    "CampaignResult",
    "FirmwareReport",
    "LaneOutcome",
    "evaluate_firmware",
    "run_campaign",
]
