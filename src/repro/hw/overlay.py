"""Permission-overlay enforcement backend (Complets-style, PAPERS.md).

Arm's Permission Overlay Extension (POE) — and Intel MPK before it —
decouple *which* memory a domain may touch from *how fast* the domain
boundary is crossed: page/region permissions are tagged with an
overlay index once, and switching domains is a single overlay-select
register write instead of a run of MPU region-register pairs.
Complets builds thread-level compartments for Cortex-M on exactly this
primitive.

:class:`OverlayProtection` models that substrate for OPEC:

* ``load_configuration`` *compiles* the backend-neutral
  :class:`~repro.hw.mpu.MPURegion` set into one flat permission table —
  disjoint address intervals, each carrying the resolved
  (privileged, unprivileged) access pair of the highest-priority
  claiming region.  This is the overlay-tagging step; in hardware it
  happens once per operation at image-load time, so the modelled
  *switch* cost is a single register write plus a barrier;
* ``allows`` arbitrates by binary search over the interval table —
  semantically identical to the MPU's highest-region-wins scan
  (including sub-region fall-through and ``PRIVDEFENA``), which the
  differential property suite pins across all backends;
* verdicts are memoised under the same word-granular key as the other
  backends and dropped on every configuration epoch;
* the lowering itself is a pure function of the region set, so each
  distinct set is compiled once per process (:func:`_overlay_table`);
  a load that hits the memo still starts a new epoch.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Optional

from .backend import EnforcementBackend
from .mpu import (
    ACCESS_NONE,
    ACCESS_READWRITE,
    LOWERING_MEMO_SIZE,
    MPURegion,
    NUM_REGIONS,
)


def compile_regions_to_overlay(
    regions: list[Optional[MPURegion]],
) -> tuple[list[int], list[Optional[tuple[str, str]]]]:
    """Flatten a prioritised region set into a disjoint interval table.

    Returns parallel lists: sorted interval start addresses and, for
    each interval, the winning region's ``(priv, unpriv)`` access pair
    — or ``None`` where no enabled region (sub-region) claims the
    interval, i.e. the default-map fall-through.

    Every region edge is a sub-region edge (base + i·size/8), so
    within one interval the winning region — and therefore the verdict
    — is constant; probing the interval start decides the whole span.
    """
    live = [r for r in regions if r is not None and r.enabled]
    edges: set[int] = {0}
    for region in live:
        sub = region.subregion_size
        edges.update(region.base + i * sub for i in range(9))
    starts = sorted(edges)
    perms: list[Optional[tuple[str, str]]] = []
    for start in starts:
        winner: Optional[MPURegion] = None
        for region in live:
            if region.matches(start) and (
                    winner is None or region.number > winner.number):
                winner = region
        perms.append(None if winner is None
                     else (winner.priv, winner.unpriv))
    return starts, perms


@lru_cache(maxsize=LOWERING_MEMO_SIZE)
def _overlay_table(
    regions: tuple[Optional[MPURegion], ...],
) -> tuple[tuple[int, ...], tuple[Optional[tuple[str, str]], ...]]:
    """The interval table of one region set, shared read-only by every
    overlay instance that loads an equal set."""
    starts, perms = compile_regions_to_overlay(regions)
    return tuple(starts), tuple(perms)


class OverlayProtection(EnforcementBackend):
    """A POE/MPK-style permission-overlay backend.

    Same policy language and arbitration semantics as the MPU; a
    different lowering (flat interval table instead of prioritised
    region registers) and a much cheaper switch-cost model.
    """

    # Cost model: switching overlays is one POR-style register write
    # plus a context-synchronising barrier; a fault-driven remap
    # re-tags one window's intervals.
    name = "overlay"
    switch_base_cost = 16
    region_switch_cost = 12

    def __init__(self):
        self.enabled = False
        self.privdefena = True
        self.regions: list[Optional[MPURegion]] = [None] * NUM_REGIONS
        self.epoch = 0
        self._decisions: dict = {}
        self._recompile()

    def invalidate(self) -> None:
        """Start a new configuration epoch, dropping cached verdicts."""
        self.epoch += 1
        self._decisions = {}

    # -- configuration -----------------------------------------------------

    def set_region(self, region: MPURegion) -> None:
        self.regions[region.number] = region
        self._recompile()

    def clear_region(self, number: int) -> None:
        self.regions[number] = None
        self._recompile()

    def get_region(self, number: int) -> Optional[MPURegion]:
        return self.regions[number]

    def load_configuration(self, regions: list[MPURegion]) -> None:
        self.regions = [None] * NUM_REGIONS
        for region in regions:
            self.regions[region.number] = region
        self._recompile()

    # -- arbitration ----------------------------------------------------

    def allows(self, address: int, size: int, privileged: bool,
               write: bool) -> bool:
        if not self.enabled:
            return True
        key = (address >> 2, (address + size - 1) >> 2, privileged, write,
               self.privdefena)
        verdict = self._decisions.get(key)
        if verdict is None:
            verdict = self._arbitrate(address, size, privileged, write)
            self._decisions[key] = verdict
        return verdict

    def fast_allows(self):
        """Epoch-scoped arbitration closure (base-class contract).

        ``_recompile`` replaces the interval table and invalidates, so
        the captured memo and table are epoch-safe; ``enabled`` and
        ``privdefena`` are read live.
        """
        def fast(address, size, privileged, write, _self=self,
                 _decisions=self._decisions, _arbitrate=self._arbitrate):
            if not _self.enabled:
                return True
            key = (address >> 2, (address + size - 1) >> 2, privileged,
                   write, _self.privdefena)
            verdict = _decisions.get(key)
            if verdict is None:
                verdict = _arbitrate(address, size, privileged, write)
                _decisions[key] = verdict
            return verdict

        return fast

    def _arbitrate(self, address: int, size: int, privileged: bool,
                   write: bool) -> bool:
        starts, perms = self._starts, self._perms
        last = address + size - 1
        for probe in (address, last) if last != address else (address,):
            pair = perms[bisect_right(starts, probe) - 1]
            if pair is None:
                if privileged and self.privdefena:
                    continue
                return False
            access = pair[0] if privileged else pair[1]
            if access == ACCESS_NONE:
                return False
            if write and access != ACCESS_READWRITE:
                return False
        return True

    # -- context capsule ------------------------------------------------

    def snapshot(self) -> list[Optional[MPURegion]]:
        return list(self.regions)

    def restore(self, snapshot: list[Optional[MPURegion]]) -> None:
        self.regions = list(snapshot)
        self._recompile()

    # -- internals ------------------------------------------------------

    def _recompile(self) -> None:
        self._starts, self._perms = _overlay_table(tuple(self.regions))
        self.invalidate()


def use_overlay(machine) -> OverlayProtection:
    """Swap a machine's enforcement for the overlay backend."""
    overlay = OverlayProtection()
    machine.enforcement = overlay
    return overlay
