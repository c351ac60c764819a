"""ARMv7-M Memory Protection Unit model.

Implements the MPU semantics the whole OPEC design hinges on (§2.2):

* eight regions, each with a power-of-two size (minimum 32 bytes) and a
  base address aligned to that size;
* when regions overlap, the **highest-numbered** enabled region decides
  the access permission;
* each region splits into eight equal sub-regions that can be disabled
  individually; a disabled sub-region falls through to lower-numbered
  regions (this is what OPEC's stack protection exploits, §5.2);
* with ``PRIVDEFENA`` set, privileged code falls back to the default
  memory map when no region matches; unprivileged code faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .backend import EnforcementBackend

ACCESS_NONE = "NA"
ACCESS_READ = "RO"
ACCESS_READWRITE = "RW"

MIN_REGION_SIZE = 32
NUM_REGIONS = 8
NUM_SUBREGIONS = 8

#: Distinct region sets whose lowering the PMP and overlay backends
#: each keep memoised per process (least recently used evicted first).
LOWERING_MEMO_SIZE = 1024


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def region_size_for(length: int) -> int:
    """Smallest legal MPU region size covering ``length`` bytes."""
    size = MIN_REGION_SIZE
    while size < length:
        size <<= 1
    return size


def align_base(address: int, size: int) -> int:
    """Round ``address`` down to a legal base for a region of ``size``."""
    return address & ~(size - 1)


@dataclass(frozen=True)
class MPURegion:
    """One MPU region descriptor.

    ``priv`` / ``unpriv`` are the access permissions at each privilege
    level, one of ``"NA"``, ``"RO"``, ``"RW"``.  ``subregion_disable``
    is an 8-bit mask; bit *i* set disables sub-region *i* (lowest
    addresses first, matching the SRD field).

    Immutable and hashable: a region set (a tuple of descriptors) is
    the key of the monitor's and the backends' lowering memos.
    """

    number: int
    base: int
    size: int
    priv: str = ACCESS_READWRITE
    unpriv: str = ACCESS_NONE
    executable: bool = False
    subregion_disable: int = 0
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.number < NUM_REGIONS:
            raise ValueError(f"region number {self.number} out of range")
        if not is_power_of_two(self.size) or self.size < MIN_REGION_SIZE:
            raise ValueError(f"illegal region size {self.size}")
        if self.base % self.size != 0:
            raise ValueError(
                f"base 0x{self.base:08X} not aligned to size 0x{self.size:X}"
            )
        if self.priv not in (ACCESS_NONE, ACCESS_READ, ACCESS_READWRITE):
            raise ValueError(f"bad priv access {self.priv!r}")
        if self.unpriv not in (ACCESS_NONE, ACCESS_READ, ACCESS_READWRITE):
            raise ValueError(f"bad unpriv access {self.unpriv!r}")
        if not 0 <= self.subregion_disable < 256:
            raise ValueError("subregion_disable must be an 8-bit mask")

    @property
    def subregion_size(self) -> int:
        return self.size // NUM_SUBREGIONS

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def subregion_of(self, address: int) -> int:
        return (address - self.base) // self.subregion_size

    def matches(self, address: int) -> bool:
        """True if this region claims ``address`` (sub-region enabled)."""
        if not self.enabled or not self.contains(address):
            return False
        return not (self.subregion_disable >> self.subregion_of(address)) & 1

    def permits(self, privileged: bool, write: bool) -> bool:
        access = self.priv if privileged else self.unpriv
        if access == ACCESS_NONE:
            return False
        if write and access != ACCESS_READWRITE:
            return False
        return True


@dataclass
class MPU(EnforcementBackend):
    """The MPU: eight region slots plus the control register bits.

    Arbitration results are memoised in a decision cache.  Region
    boundaries (base, end, every sub-region edge) all fall on multiples
    of four bytes — the minimum region size is 32 and sub-regions are
    an eighth of a power-of-two size — so the verdict for a probe byte
    is constant across its aligned 4-byte word.  A decision is
    therefore cached under ``(first-word, last-word, privileged,
    write, privdefena)`` and stays valid until the region
    configuration changes:
    ``set_region`` / ``clear_region`` / ``load_configuration`` /
    ``restore`` start a new configuration epoch and drop the cache.
    ``privileged`` is part of the key, so privilege changes need no
    invalidation; ``enabled`` is re-checked on every call before the
    cache is consulted.
    """

    # EnforcementBackend identity + cost model.  A full reconfiguration
    # is eight RBAR/RASR register pairs plus the SVC path around them;
    # a fault-driven remap rewrites one pair inside the MemManage
    # handler.  These are the exact constants the monitor charged
    # before the interface existed (interp.costs.SWITCH_BASE_COST /
    # REGION_SWITCH_COST), so MPU-backend results stay bit-identical.
    name = "mpu"
    switch_base_cost = 60
    region_switch_cost = 40

    enabled: bool = False
    privdefena: bool = True
    regions: list[Optional[MPURegion]] = field(
        default_factory=lambda: [None] * NUM_REGIONS
    )
    epoch: int = field(default=0, repr=False, compare=False)
    _decisions: dict = field(default_factory=dict, repr=False, compare=False)

    def invalidate(self) -> None:
        """Start a new region-configuration epoch, dropping the cache."""
        self.epoch += 1
        self._decisions = {}

    def set_region(self, region: MPURegion) -> None:
        self.regions[region.number] = region
        self.invalidate()

    def clear_region(self, number: int) -> None:
        self.regions[number] = None
        self.invalidate()

    def get_region(self, number: int) -> Optional[MPURegion]:
        return self.regions[number]

    def load_configuration(self, regions: list[MPURegion]) -> None:
        """Replace the full region set (operation switch, §5.3)."""
        self.regions = [None] * NUM_REGIONS
        for region in regions:
            self.regions[region.number] = region
        self.invalidate()

    def matching_region(self, address: int) -> Optional[MPURegion]:
        """Highest-numbered enabled region claiming ``address``."""
        for region in reversed(self.regions):
            if region is not None and region.matches(address):
                return region
        return None

    def allows(self, address: int, size: int, privileged: bool,
               write: bool) -> bool:
        """Check an access of ``size`` bytes starting at ``address``.

        Both the first and last byte are checked so accesses straddling
        a sub-region or region boundary are confined correctly.
        """
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

        Captures this epoch's verdict memo and the arbitrator directly;
        ``invalidate`` *replaces* ``_decisions``, so the captured dict
        can never serve a later epoch.  ``enabled`` and ``privdefena``
        flip without an epoch bump and are read live.
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
        """The uncached §2.2 arbitration (first and last probe byte)."""
        last = address + size - 1
        for probe in (address, last) if last != address else (address,):
            region = self.matching_region(probe)
            if region is None:
                if privileged and self.privdefena:
                    continue
                return False
            if not region.permits(privileged, write):
                return False
        return True

    def snapshot(self) -> list[Optional[MPURegion]]:
        """Copy of the current region set (saved in operation context)."""
        return list(self.regions)

    def restore(self, snapshot: list[Optional[MPURegion]]) -> None:
        self.regions = list(snapshot)
        self.invalidate()
