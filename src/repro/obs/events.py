"""Typed event taxonomy for the deterministic flight recorder.

Every observable the monitor, interpreter, machine, or build pipeline
emits is one of the kinds below.  Kinds are dotted strings so exporters
can group by prefix (``op.*`` — operation switching, ``fault.*`` —
exception handling, ``build.*``/``cache.*`` — host-side compilation).

Events live in one of two *domains*:

* ``sim`` — produced by the simulated machine and timestamped with the
  DWT cycle counter.  Simulated execution is deterministic, so a sim
  event stream is byte-identical across runs, hash seeds, and cache
  temperatures; it is the stream the determinism check compares.
* ``host`` — produced by the build pipeline and the artifact cache on
  the host.  Host events are timestamped with the recorder's sequence
  counter (never wall clock) but their *content* legitimately varies
  with cache temperature (hit vs. miss), so they are excluded from the
  deterministic exports by default.
"""

from __future__ import annotations

from typing import Optional

# -- phase markers (Chrome trace-event ``ph`` values) --------------------

BEGIN = "B"
END = "E"
INSTANT = "i"

# -- domains -------------------------------------------------------------

DOMAIN_SIM = "sim"
DOMAIN_HOST = "host"

# -- simulated-machine event kinds ---------------------------------------

#: Operation switch on entry-function call (§5.3); spans the whole
#: monitor sequence.  Nested inside: the four phase spans below.
OP_SWITCH = "op.switch"
#: Operation switch on entry-function return (§5.3).
OP_RETURN = "op.return"
#: Range-checking the exiting operation's shadows (§5.2).
OP_SANITISE = "op.sanitise"
#: Shared-global shadow write-back/refresh + relocation table +
#: pointer redirection (Figure 7).
OP_SYNC = "op.sync"
#: Stack-argument relocation / copy-back (Figure 8).
OP_STACK = "op.stack"
#: MPU reconfiguration for the entered operation.
OP_MPU = "op.mpu"

#: An explicit ``svc`` instruction executed by firmware.
SVC = "svc"
#: SVC entry for an instrumented operation call (the §4.4 stub).
SVC_ENTER = "svc.enter"
#: SVC return on the exit side of an instrumented call.
SVC_RETURN = "svc.return"

#: Interrupt dispatch: spans handler entry to exception return.
IRQ = "irq"

#: MemManage handling (MPU-region virtualisation round, §5.2).
FAULT_MEMMANAGE = "fault.memmanage"
#: BusFault-driven core-peripheral (PPB) load/store emulation (§5.2).
PPB_EMULATE = "ppb.emulate"
#: Round-robin eviction: one reserved MPU region remapped onto the
#: faulting peripheral window piece.
REGION_EVICT = "mpu.region_evict"

#: Firmware executed ``halt``.
HALT = "run.halt"
#: A terminal fault escaped the run (crash-context marker).
CRASH = "run.crash"
#: Fused fleet trace only: the lane's ring overflowed, so its kept
#: events start here, mid-run; ``args.dropped`` counts the lost ones.
TRACE_TRUNCATED = "trace.truncated"

# -- host-side event kinds -----------------------------------------------

#: One compiler stage of ``build_opec``/``build_vanilla``.
BUILD_STAGE = "build.stage"
#: Artifact-cache traffic.
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_STORE = "cache.store"

# -- fleet host-side event kinds (wall-clock microsecond spans) ----------
#
# Unlike the seq-stamped host kinds above, ``fleet.*`` spans carry real
# wall-clock timestamps (epoch microseconds, normalised to the earliest
# span at fusion time): they exist precisely to show scheduling and
# idle gaps, which sequence numbers cannot.  They never enter the
# deterministic exports — the fleet fuser keeps them on host-domain
# pids that the determinism masking drops.

#: One worker process's whole assigned slice of fleet lanes.
FLEET_CHUNK = "fleet.chunk"
#: Image acquisition for one lane (cache lookup + build on miss).
FLEET_BUILD = "fleet.build"
#: One lane's fresh simulation under its dedicated recorder.
FLEET_RUN = "fleet.run"
#: Parent-side pool dispatch of one worker (submit → result).
FLEET_DISPATCH = "fleet.dispatch"
#: Campaign: one firmware's full differential evaluation.
FLEET_FIRMWARE = "fleet.firmware"


class Event:
    """One recorded event.

    ``ts`` is the DWT cycle count for sim-domain events and the
    recorder sequence number for host-domain events — never wall clock.
    """

    __slots__ = ("seq", "ts", "ph", "kind", "name", "domain", "args")

    def __init__(self, seq: int, ts: int, ph: str, kind: str, name: str,
                 domain: str = DOMAIN_SIM,
                 args: Optional[dict] = None):
        self.seq = seq
        self.ts = ts
        self.ph = ph
        self.kind = kind
        self.name = name
        self.domain = domain
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Event #{self.seq} {self.ph} {self.kind} {self.name!r} "
                f"ts={self.ts} {self.domain}>")
