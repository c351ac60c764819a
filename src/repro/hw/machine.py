"""The simulated machine: memories + MPU + privilege + cycle counter.

Every load/store the interpreter performs goes through
:meth:`Machine.load` / :meth:`Machine.store`, which apply the exact
checks the hardware would (§2):

1. PPB addresses are privileged-only — unprivileged access raises
   :class:`BusFault` (the hook OPEC uses for core-peripheral emulation);
2. the MPU arbitrates everything else — a denial raises
   :class:`MemManageFault` (the hook for peripheral-region
   virtualisation);
3. the access then reaches flash / SRAM / a device model.

The DWT-style cycle counter is advanced by the interpreter per
instruction and by the monitor for its own (privileged) work, so
runtime-overhead numbers (Figure 9) are deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..obs.metrics import Counter, MetricsRegistry
from .backend import BackendSpec, DEFAULT_BACKEND, create_backend
from .board import Board, PPB_BASE as _PPB_BASE, PPB_END as _PPB_END
from .exceptions import BusFault, MemManageFault
from .memory import FlashRegion, MemoryMap, MMIODevice, MMIORegion, RamRegion

# ARMv7-M exception number of the SysTick interrupt.
SYSTICK_IRQ = 15


class MachineStats:
    """Counters exposed to the evaluation harness.

    Historically a plain dataclass of ints; the values now live in the
    machine's :class:`~repro.obs.metrics.MetricsRegistry` (under
    ``machine.<field>``) and this class is the compatibility shim: the
    old attribute reads and ``stats.field += 1`` writes keep working,
    and ``as_dict()`` replaces ``dataclasses.asdict``.  Hot paths hold
    the underlying :class:`Counter` cells directly.
    """

    FIELDS = (
        "loads",
        "stores",
        "memmanage_faults",
        "bus_faults",
        "svc_calls",
        "peripheral_region_switches",
        "emulated_core_accesses",
        "micro_emulated_accesses",
    )

    __slots__ = ("registry", "_counters")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = MetricsRegistry() if registry is None else registry
        self._counters = {field: self.registry.counter(f"machine.{field}")
                          for field in self.FIELDS}

    def counter(self, field: str) -> Counter:
        """The underlying registry cell for ``field`` (hot-path refs)."""
        return self._counters[field]

    def as_dict(self) -> dict[str, int]:
        return {field: self._counters[field].value for field in self.FIELDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={self._counters[f].value}"
                          for f in self.FIELDS)
        return f"MachineStats({inner})"


def _stat_property(field: str) -> property:
    def _get(self: MachineStats) -> int:
        return self._counters[field].value

    def _set(self: MachineStats, value: int) -> None:
        self._counters[field].value = value

    return property(_get, _set)


for _field in MachineStats.FIELDS:
    setattr(MachineStats, _field, _stat_property(_field))
del _field


class _PrivilegedMode:
    """The context manager :meth:`Machine.privileged_mode` returns:
    privileged on entry, back at ``base_privilege`` on exit, also when
    the block raises (the exception propagates).  The switch and fault
    paths enter it per switch and per handled fault, so it is a plain
    class rather than a ``contextlib`` generator."""

    __slots__ = ("machine",)

    def __init__(self, machine: "Machine"):
        self.machine = machine

    def __enter__(self) -> None:
        self.machine.privileged = True

    def __exit__(self, *exc_info) -> None:
        machine = self.machine
        machine.privileged = machine.base_privilege


class Machine:
    """One simulated microcontroller.

    ``backend`` selects the memory-isolation substrate — a registry
    name (``"mpu"`` / ``"pmp"`` / ``"overlay"``) or a ready
    :class:`~repro.hw.backend.EnforcementBackend` instance.  It lives
    in ``machine.enforcement``, the one name every caller uses.
    """

    def __init__(self, board: Board, backend: BackendSpec = DEFAULT_BACKEND):
        self.board = board
        self.memory = MemoryMap()
        self.flash = FlashRegion("flash", board.flash_base, board.flash_size)
        self.sram = RamRegion("sram", board.sram_base, board.sram_size)
        self.memory.map(self.flash)
        self.memory.map(self.sram)
        self.enforcement = create_backend(backend)
        self.privileged = True
        self.base_privilege = True
        self.cycles = 0
        # A deque: the interpreter delivers from the left once per
        # instruction boundary, devices latch on the right.
        self.pending_irqs: deque[int] = deque()
        self._systick_armed = False
        self._systick_period = 0
        self._systick_next = 0
        self.metrics = MetricsRegistry()
        self.stats = MachineStats(self.metrics)
        # Flight recorder, or None (the default): emit seams check
        # identity, so disabled tracing costs nothing on hot paths.
        self.recorder = None
        # Hot-path counter cells — load/store fire per instruction.
        self._n_loads = self.stats.counter("loads")
        self._n_stores = self.stats.counter("stores")
        self._n_bus_faults = self.stats.counter("bus_faults")
        self._n_memmanage = self.stats.counter("memmanage_faults")
        # Epoch-scoped arbitration fast path: the block compiler's
        # inlined accesses call ``_fp_allows`` after validating that
        # ``(_fp_backend, _fp_epoch)`` still matches the live backend
        # (see ``_refresh_fast_path``).
        self._fp_backend = None
        self._fp_epoch = -1
        self._fp_allows = None
        self.devices: dict[str, MMIODevice] = {}
        # Core PPB peripherals exist on every ARMv7-M part.
        from .peripherals.core import DWT, SCB, SysTick

        self.attach_device("DWT", DWT())
        self.attach_device("SysTick", SysTick())
        self.attach_device("SCB", SCB())

    # -- device attachment -------------------------------------------

    def attach_device(self, peripheral_name: str, device: MMIODevice) -> MMIODevice:
        """Map a device model at its board-defined window."""
        peripheral = self.board.peripheral(peripheral_name)
        self.memory.map(
            MMIORegion(peripheral.name, peripheral.base, peripheral.size, device)
        )
        self.devices[peripheral_name] = device
        setattr(device, "machine", self)
        return device

    def device(self, name: str) -> MMIODevice:
        return self.devices[name]

    def release_devices(self) -> None:
        """Drop every device's back-link to this finished machine.

        ``attach_device`` makes each device and the machine refer to
        each other; breaking that cycle lets reference counting free
        the machine (and its flash and SRAM) as soon as its owner
        drops it.  The machine must not run again afterwards.
        """
        for device in self.devices.values():
            device.machine = None

    # -- privilege ----------------------------------------------------
    #
    # `privileged` is the effective level; `base_privilege` is the
    # thread level execution returns to after an exception handler.  A
    # handler may change `base_privilege` (ACES' compartment lifting);
    # OPEC never does.

    def drop_privilege(self) -> None:
        """Enter unprivileged execution (monitor init, §5.1)."""
        self.base_privilege = False
        self.privileged = False

    def set_base_privilege(self, privileged: bool) -> None:
        """Set the thread privilege level execution resumes at."""
        self.base_privilege = privileged

    def privileged_mode(self) -> "_PrivilegedMode":
        """Run a block at the privileged level (exception entry)."""
        return _PrivilegedMode(self)

    # -- cycle accounting and interrupt timing ---------------------------

    def consume(self, cycles: int) -> None:
        self.cycles += cycles
        if self._systick_armed and self.cycles >= self._systick_next:
            self._systick_fire()

    def _systick_fire(self) -> None:
        """Pend a SysTick and re-arm past the current time.

        Shared by :meth:`consume` and the block compiler's inlined
        cycle charging, so coalescing behaves identically: a long
        stall produces one tick, not an interrupt storm.
        """
        self.pending_irqs.append(SYSTICK_IRQ)
        period = self._systick_period
        self._systick_next += (
            (self.cycles - self._systick_next) // period + 1
        ) * period

    # -- interrupts ------------------------------------------------------

    def raise_irq(self, number: int) -> None:
        """Device-side: latch an interrupt for the CPU."""
        self.pending_irqs.append(number)

    def arm_systick(self, reload: int) -> None:
        """SysTick device hook: periodic tick every ``reload+1`` cycles."""
        self._systick_period = max(reload + 1, 32)
        self._systick_next = self.cycles + self._systick_period
        self._systick_armed = True

    def disarm_systick(self) -> None:
        self._systick_armed = False

    # -- checked accesses ------------------------------------------------

    def _refresh_fast_path(self):
        """(Re)bind the epoch-scoped arbitration fast path.

        Called whenever a compiled access finds the cached
        ``(_fp_backend, _fp_epoch)`` token stale — after a
        configuration epoch bump, a backend swap, or on first use.
        Returns the fresh callable so callers can use it in place.
        """
        enforcement = self.enforcement
        fast = enforcement.fast_allows()
        self._fp_backend = enforcement
        self._fp_epoch = enforcement.epoch
        self._fp_allows = fast
        return fast

    def load(self, address: int, size: int) -> int:
        """A data read issued by executing code (MPU/PPB-checked)."""
        self._n_loads.value += 1
        privileged = self.privileged
        if not privileged and _PPB_BASE <= address < _PPB_END:
            self._n_bus_faults.value += 1
            raise BusFault(address, size, False, value=0, is_ppb=True)
        if not self.enforcement.allows(address, size, privileged, False):
            self._n_memmanage.value += 1
            raise MemManageFault(address, size, False, value=0)
        return self.memory.read(address, size)

    def store(self, address: int, size: int, value: int) -> None:
        """A data write issued by executing code (MPU/PPB-checked)."""
        self._n_stores.value += 1
        privileged = self.privileged
        if not privileged and _PPB_BASE <= address < _PPB_END:
            self._n_bus_faults.value += 1
            raise BusFault(address, size, True, value=value, is_ppb=True)
        if not self.enforcement.allows(address, size, privileged, True):
            self._n_memmanage.value += 1
            raise MemManageFault(address, size, True, value=value)
        self.memory.write(address, size, value)

    # -- unchecked accesses (privileged monitor / DMA / loader) ----------

    def read_direct(self, address: int, size: int) -> int:
        return self.memory.read(address, size)

    def write_direct(self, address: int, size: int, value: int) -> None:
        self.memory.write(address, size, value)

    def read_bytes(self, address: int, length: int) -> bytes:
        return self.memory.read_bytes(address, length)

    def write_bytes(self, address: int, blob: bytes) -> None:
        self.memory.write_bytes(address, blob)

    def program_flash(self, address: int, blob: bytes) -> None:
        """Burn the firmware image (loader path, not a runtime store)."""
        self.flash.program(address, blob)

    def __getstate__(self) -> dict:
        # The recorder is a live observation buffer, not machine state:
        # cached RunResults must not carry one run's event stream into
        # another's (it would also defeat cache-temperature determinism).
        state = dict(self.__dict__)
        state["recorder"] = None
        # The arbitration fast path is a closure (unpicklable) and is
        # epoch-scoped anyway: a rehydrated machine rebinds on demand.
        state["_fp_backend"] = None
        state["_fp_epoch"] = -1
        state["_fp_allows"] = None
        return state

    def __repr__(self) -> str:
        mode = "priv" if self.privileged else "unpriv"
        return f"<Machine {self.board.name} [{mode}] cycles={self.cycles}>"
