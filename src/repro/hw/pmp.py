"""RISC-V Physical Memory Protection (PMP) backend (§7).

The paper lists RISC-V PMP as the porting target for OPEC beyond the
ARM MPU: "the target hardware platform is required to have a memory
protection unit, which has enough regions enforcing the physical
memory permissions similar to the ARM MPU, e.g., RISC-V PMP".

PMP differs from the MPU in exactly the ways that matter to OPEC:

* 16 entries instead of 8 regions;
* NAPOT (naturally aligned power-of-two) matching, no sub-regions;
* the **lowest-numbered** matching entry decides (the MPU's is the
  highest);
* M-mode (the monitor) bypasses entries unless they are locked —
  playing the role of ``PRIVDEFENA``.

:class:`PmpProtection` adapts OPEC's MPU-oriented region sets onto PMP
entries — sub-region masks become runs of NAPOT entries, region
priority becomes entry order — so :class:`repro.runtime.monitor.OpecMonitor`
runs unmodified on a PMP machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .backend import EnforcementBackend
from .mpu import ACCESS_READ, ACCESS_READWRITE, LOWERING_MEMO_SIZE, MPURegion

NUM_PMP_ENTRIES = 16
MIN_GRAIN = 4  # NA4: the architectural minimum


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PMPEntry:
    """One NAPOT-mode PMP entry."""

    base: int
    size: int
    readable: bool = False
    writable: bool = False
    executable: bool = False
    locked: bool = False

    def __post_init__(self) -> None:
        if not is_power_of_two(self.size) or self.size < MIN_GRAIN:
            raise ValueError(f"illegal NAPOT size {self.size}")
        if self.base % self.size != 0:
            raise ValueError(
                f"base 0x{self.base:08X} not naturally aligned to "
                f"0x{self.size:X}"
            )

    def matches(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    def permits(self, write: bool) -> bool:
        return self.writable if write else self.readable


@dataclass
class PMP:
    """The PMP unit: 16 prioritised entries."""

    entries: list[Optional[PMPEntry]] = field(
        default_factory=lambda: [None] * NUM_PMP_ENTRIES
    )
    enabled: bool = False

    def set_entry(self, index: int, entry: PMPEntry) -> None:
        if not 0 <= index < NUM_PMP_ENTRIES:
            raise ValueError(f"PMP entry index {index} out of range")
        self.entries[index] = entry

    def first_match(self, address: int) -> Optional[PMPEntry]:
        """Lowest-numbered matching entry — PMP priority order."""
        for entry in self.entries:
            if entry is not None and entry.matches(address):
                return entry
        return None

    def allows(self, address: int, size: int, privileged: bool,
               write: bool, privdefena: bool = True) -> bool:
        """Arbitrate first and last probe byte against the entry list.

        ``privdefena`` plays ``mstatus``'s default-map role for the
        adapter: with it clear, M-mode accesses that match no entry are
        denied, mirroring the MPU's ``PRIVDEFENA=0`` behaviour.
        """
        if not self.enabled:
            return True
        last = address + size - 1
        for probe in (address, last) if last != address else (address,):
            entry = self.first_match(probe)
            if entry is None:
                # No match: M-mode succeeds only on the default map.
                if privileged and privdefena:
                    continue
                return False
            if privileged and not entry.locked:
                continue  # M-mode bypasses unlocked entries
            if not entry.permits(write):
                return False
        return True


def napot_cover(base: int, length: int) -> list[tuple[int, int]]:
    """Exactly cover an aligned range with NAPOT (base, size) pieces.

    ``base`` and ``length`` must be multiples of the minimum grain;
    greedy largest-aligned-chunk decomposition is exact for such
    ranges.
    """
    if base % MIN_GRAIN or length % MIN_GRAIN or length <= 0:
        raise ValueError("range not representable at PMP granularity")
    pieces: list[tuple[int, int]] = []
    cursor = base
    remaining = length
    while remaining > 0:
        size = MIN_GRAIN
        while (size << 1) <= remaining and cursor % (size << 1) == 0:
            size <<= 1
        pieces.append((cursor, size))
        cursor += size
        remaining -= size
    return pieces


def _entry_permissions(region: MPURegion) -> tuple[bool, bool]:
    if region.unpriv == ACCESS_READWRITE:
        return True, True
    if region.unpriv == ACCESS_READ:
        return True, False
    return False, False


def compile_regions_to_pmp(
    regions: list[Optional[MPURegion]],
) -> list[PMPEntry]:
    """Translate an MPU region set into an equivalent PMP entry list.

    MPU priority is highest-number-wins; PMP is lowest-index-wins, so
    regions are emitted in descending number order.  Sub-region disable
    masks have no PMP analogue: each region is decomposed into its
    enabled sub-region runs, each covered exactly by NAPOT pieces.

    Disabled regions never reach the entry list: ``MPURegion.matches``
    ignores them, so compiling them would grant accesses the MPU
    arbitrates to lower-numbered regions (or denies outright).
    """
    entries: list[PMPEntry] = []
    for region in sorted(
        (r for r in regions if r is not None and r.enabled),
        key=lambda r: r.number, reverse=True,
    ):
        readable, writable = _entry_permissions(region)
        sub = region.subregion_size
        run_start: Optional[int] = None
        for i in range(9):
            enabled = i < 8 and not (region.subregion_disable >> i) & 1
            if enabled and run_start is None:
                run_start = region.base + i * sub
            elif not enabled and run_start is not None:
                run_end = region.base + i * sub
                for base, size in napot_cover(run_start, run_end - run_start):
                    entries.append(PMPEntry(
                        base=base, size=size,
                        readable=readable, writable=writable,
                        executable=region.executable,
                    ))
                run_start = None
    if len(entries) > NUM_PMP_ENTRIES:
        raise ValueError(
            f"region set needs {len(entries)} PMP entries "
            f"(> {NUM_PMP_ENTRIES})"
        )
    return entries


@lru_cache(maxsize=LOWERING_MEMO_SIZE)
def _pmp_entries(
    regions: tuple[Optional[MPURegion], ...],
) -> tuple[PMPEntry, ...]:
    """The NAPOT entries of one region set, compiled once per process.
    A set over the entry budget raises on every load: ``lru_cache``
    never stores an exception."""
    return tuple(compile_regions_to_pmp(regions))


class PmpProtection(EnforcementBackend):
    """The PMP :class:`~repro.hw.backend.EnforcementBackend` (§7 port).

    Consumes the same :class:`MPURegion` policy language as the MPU —
    ``set_region`` / ``clear_region`` / ``load_configuration`` /
    ``allows`` / ``snapshot`` / ``restore`` — while enforcing through
    compiled PMP entries, so the monitor runs unchanged.

    Arbitration verdicts are memoised exactly like the MPU's: every
    PMP entry boundary is NAPOT-aligned (≥ 4 bytes), so a verdict is
    constant across an aligned 4-byte word and is cached under
    ``(first-word, last-word, privileged, write, privdefena)`` until
    the next configuration epoch.  Without this cache every PMP run
    re-scanned up to 16 entries per access — structurally slower than
    the MPU backend for reasons that have nothing to do with the
    modelled hardware.
    """

    # Cost model: a full reconfiguration writes up to 16 pmpaddr CSRs
    # plus the four packed pmpcfg CSRs (the MPU writes 8 RBAR/RASR
    # pairs), so switches are dearer; a fault-driven remap recompiles
    # one region's NAPOT run into its entries.
    name = "pmp"
    switch_base_cost = 84
    region_switch_cost = 52

    def __init__(self):
        self.enabled = False
        self.privdefena = True  # M-mode default map == unlocked bypass
        self.regions: list[Optional[MPURegion]] = [None] * 8
        self.pmp = PMP()
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
        self.regions = [None] * 8
        for region in regions:
            self.regions[region.number] = region
        self._recompile()

    def allows(self, address: int, size: int, privileged: bool,
               write: bool) -> bool:
        if not self.enabled:
            return True
        privdefena = self.privdefena
        key = (address >> 2, (address + size - 1) >> 2, privileged, write,
               privdefena)
        verdict = self._decisions.get(key)
        if verdict is None:
            verdict = self.pmp.allows(address, size, privileged, write,
                                      privdefena)
            self._decisions[key] = verdict
        return verdict

    def fast_allows(self):
        """Epoch-scoped arbitration closure (base-class contract).

        ``_recompile`` both rebuilds ``self.pmp`` and calls
        ``invalidate``, so capturing the entry scanner alongside the
        verdict memo is epoch-safe; ``enabled``/``privdefena`` are
        read live (they flip without an epoch bump).
        """
        def fast(address, size, privileged, write, _self=self,
                 _decisions=self._decisions, _scan=self.pmp.allows):
            if not _self.enabled:
                return True
            privdefena = _self.privdefena
            key = (address >> 2, (address + size - 1) >> 2, privileged,
                   write, privdefena)
            verdict = _decisions.get(key)
            if verdict is None:
                verdict = _scan(address, size, privileged, write,
                                privdefena)
                _decisions[key] = verdict
            return verdict

        return fast

    def snapshot(self) -> list[Optional[MPURegion]]:
        return list(self.regions)

    def restore(self, snapshot: list[Optional[MPURegion]]) -> None:
        self.regions = list(snapshot)
        self._recompile()

    # -- internals ---------------------------------------------------------------

    def _recompile(self) -> None:
        entries = _pmp_entries(tuple(self.regions))
        self.pmp = PMP(enabled=True)
        for index, entry in enumerate(entries):
            self.pmp.set_entry(index, entry)
        self.invalidate()


def use_pmp(machine) -> PmpProtection:
    """Swap a machine's MPU for the PMP backend (RISC-V port demo)."""
    pmp = PmpProtection()
    machine.enforcement = pmp
    return pmp
