"""Physical memory map: flash, SRAM, and memory-mapped I/O.

The map mirrors Figure 2 of the paper: code in flash, data/stack in
SRAM, peripherals at fixed bus addresses, core peripherals on the
Private Peripheral Bus.  Accesses that hit no mapped range raise
:class:`HardFault` (the real bus would raise a fault too); MPU and
privilege checks happen one layer up, in :class:`repro.hw.machine.Machine`.
"""

from __future__ import annotations

from typing import Optional, Protocol

from .exceptions import HardFault

#: Granule of the sparse pickle form of a byte array.
PAGE_SIZE = 4096
_ZERO_PAGE = bytes(PAGE_SIZE)


def pack_pages(data: bytearray) -> tuple[int, dict[int, bytes]]:
    """``data`` as its length plus its non-zero ``PAGE_SIZE`` pages,
    keyed by page index (the last page may be short).

    SRAM is mostly zero, so this is the form a stored
    :class:`~repro.pipeline.RunResult` keeps it in (flash and SD-card
    images, already compact, pass through the same helpers);
    :func:`unpack_pages` restores an identical ``bytearray``.
    """
    pages = {}
    for start in range(0, len(data), PAGE_SIZE):
        page = data[start:start + PAGE_SIZE]
        if page != _ZERO_PAGE[:len(page)]:
            pages[start // PAGE_SIZE] = bytes(page)
    return len(data), pages


def unpack_pages(packed: tuple[int, dict[int, bytes]]) -> bytearray:
    """Inverse of :func:`pack_pages`."""
    length, pages = packed
    data = bytearray(length)
    for index, page in pages.items():
        start = index * PAGE_SIZE
        data[start:start + len(page)] = page
    return data


class MMIODevice(Protocol):
    """Interface of a memory-mapped device model.

    A device whose status reads depend on time alone may also offer
    ``next_change_cycle(offset) -> int | None``, the contract the
    interpreter's device-wait fast-forward relies on
    (``Interpreter._wait_skip``).
    """

    def mmio_read(self, offset: int, size: int) -> int: ...

    def mmio_write(self, offset: int, size: int, value: int) -> None: ...


class Region:
    """A contiguous mapped address range.

    Regions never move or resize, so ``end`` is a plain attribute
    rather than a property: the memory map reads it on every access.
    """

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.end = base + size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def read(self, address: int, size: int) -> int:
        raise NotImplementedError

    def write(self, address: int, size: int, value: int) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} 0x{self.base:08X}+0x{self.size:X}>"


class RamRegion(Region):
    """Plain byte-addressable RAM.

    Pickles its bytes page-sparse (:func:`pack_pages`): nothing else
    holds a reference to ``data`` between accesses, so the restored
    array need not share identity with anything.
    """

    def __init__(self, name: str, base: int, size: int):
        super().__init__(name, base, size)
        self.data = bytearray(size)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["data"] = pack_pages(self.data)
        return state

    def __setstate__(self, state: dict) -> None:
        state["data"] = unpack_pages(state["data"])
        self.__dict__.update(state)

    def read(self, address: int, size: int) -> int:
        off = address - self.base
        return int.from_bytes(self.data[off : off + size], "little")

    def write(self, address: int, size: int, value: int) -> None:
        off = address - self.base
        self.data[off : off + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
            size, "little"
        )

    def read_bytes(self, address: int, length: int) -> bytes:
        if address < self.base or address + length > self.end:
            # Slicing past the bytearray end would silently return
            # short data; bulk reads must stay within the region.
            raise HardFault(
                f"bulk read of 0x{length:X} bytes at 0x{address:08X} "
                f"leaves region {self.name}"
            )
        off = address - self.base
        return bytes(self.data[off : off + length])

    def write_bytes(self, address: int, blob: bytes) -> None:
        if address < self.base or address + len(blob) > self.end:
            # Slice assignment past the end would *grow* the backing
            # bytearray — memory the bus does not have.
            raise HardFault(
                f"bulk write of 0x{len(blob):X} bytes at 0x{address:08X} "
                f"leaves region {self.name}"
            )
        off = address - self.base
        self.data[off : off + len(blob)] = blob


class FlashRegion(RamRegion):
    """Flash: writable only through the programmer (image load).

    ``data`` holds only the programmed extent: the bytes from the base
    up to the end of the highest blob :meth:`program` burned.  Every
    other address in the region reads as erased zero.  An image burns
    only its read-only globals (code is never stored as bytes), so this
    is a few KiB where the whole region would be a megabyte.  A read
    needs no check for it: a slice past the extent comes back short,
    and ``int.from_bytes(..., "little")`` reads the missing high bytes
    as zero.
    """

    def __init__(self, name: str, base: int, size: int):
        Region.__init__(self, name, base, size)
        self.data = bytearray()

    def write(self, address: int, size: int, value: int) -> None:
        raise HardFault(f"write to flash at 0x{address:08X}")

    def read_bytes(self, address: int, length: int) -> bytes:
        blob = super().read_bytes(address, length)
        return blob + bytes(length - len(blob))

    def write_bytes(self, address: int, blob: bytes) -> None:
        raise HardFault(f"bulk write to flash at 0x{address:08X}")

    def program(self, address: int, blob: bytes) -> None:
        """Burn bytes into flash (used by the image loader only)."""
        if address < self.base or address + len(blob) > self.end:
            # Slice assignment would grow the array past the region, or
            # (below the base) write through negative indexes.
            raise HardFault(
                f"programming 0x{len(blob):X} bytes at 0x{address:08X} "
                f"leaves region {self.name}")
        off = address - self.base
        data = self.data
        if off > len(data):
            data.extend(bytes(off - len(data)))
        data[off : off + len(blob)] = blob


class MMIORegion(Region):
    """A device's register window."""

    def __init__(self, name: str, base: int, size: int, device: MMIODevice):
        super().__init__(name, base, size)
        self.device = device

    def read(self, address: int, size: int) -> int:
        return self.device.mmio_read(address - self.base, size)

    def write(self, address: int, size: int, value: int) -> None:
        self.device.mmio_write(address - self.base, size, value)


class MemoryMap:
    """The full physical address space of the simulated SoC."""

    def __init__(self):
        self.regions: list[Region] = []
        self._cache: Optional[Region] = None

    def map(self, region: Region) -> Region:
        for existing in self.regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {region.name} overlaps {existing.name}"
                )
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.base)
        self._cache = None
        return region

    def find(self, address: int) -> Optional[Region]:
        cached = self._cache
        if cached is not None and cached.contains(address):
            return cached
        for region in self.regions:
            if region.contains(address):
                self._cache = region
                return region
        return None

    def region_for(self, address: int) -> Region:
        region = self.find(address)
        if region is None:
            raise HardFault(f"access to unmapped address 0x{address:08X}")
        return region

    def read(self, address: int, size: int) -> int:
        # Last-region fast path: the common SRAM access skips the scan.
        region = self._cache
        if (region is None or address < region.base
                or address + size > region.end):
            region = self.region_for(address)
            if address + size > region.end:
                raise HardFault(
                    f"access crosses region end at 0x{address:08X}"
                )
        return region.read(address, size)

    def write(self, address: int, size: int, value: int) -> None:
        region = self._cache
        if (region is None or address < region.base
                or address + size > region.end):
            region = self.region_for(address)
            if address + size > region.end:
                raise HardFault(
                    f"access crosses region end at 0x{address:08X}"
                )
        region.write(address, size, value)

    def read_bytes(self, address: int, length: int) -> bytes:
        """Bulk read (DMA / monitor use); must stay within one region."""
        region = self.region_for(address)
        if address + length > region.end:
            raise HardFault(
                f"bulk read crosses region end at 0x{address:08X}"
                f"+0x{length:X}"
            )
        if isinstance(region, RamRegion):
            return region.read_bytes(address, length)
        return bytes(
            region.read(address + i, 1) for i in range(length)
        )

    def write_bytes(self, address: int, blob: bytes) -> None:
        """Bulk write (DMA / monitor use); must stay within one region."""
        region = self.region_for(address)
        if isinstance(region, FlashRegion):
            raise HardFault(f"bulk write to flash at 0x{address:08X}")
        if address + len(blob) > region.end:
            raise HardFault(
                f"bulk write crosses region end at 0x{address:08X}"
                f"+0x{len(blob):X}"
            )
        if isinstance(region, RamRegion):
            region.write_bytes(address, blob)
            return
        for i, byte in enumerate(blob):
            region.write(address + i, 1, byte)
