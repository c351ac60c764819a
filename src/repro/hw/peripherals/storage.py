"""Storage device models: SD card (SDIO) and a USB mass-storage port.

The SD card backs the Animation / FatFs-uSD / LCD-uSD workloads; the
USB flash disk receives the Camera app's captured photo (§6).  The
register protocol is a faithful-in-shape simplification of SDIO
single-block transfers: program ARG with the block number, issue
CMD17/CMD24, then stream 128 words through the FIFO.
"""

from __future__ import annotations

from collections import deque

from ..memory import pack_pages, unpack_pages

BLOCK_SIZE = 512
WORDS_PER_BLOCK = BLOCK_SIZE // 4


class SDCard:
    """SDIO controller + card with a byte-addressable block image.

    ``image`` holds only the disk image it was given plus the blocks
    CMD24 wrote: every byte past its end reads as zero, and a write
    past the end grows it to reach the block.  The card's capacity
    never changes: an image larger than the capacity is refused, and a
    write to a block at or past the capacity is dropped (a read there
    returns zero words), so ``image`` never exceeds
    ``capacity_blocks * BLOCK_SIZE`` bytes.  It pickles its image
    through :func:`~repro.hw.memory.pack_pages`, like
    :class:`~repro.hw.memory.RamRegion`.
    """

    POWER = 0x00
    ARG = 0x08
    CMD = 0x0C
    RESP1 = 0x14
    DCTRL = 0x2C
    STA = 0x34
    FIFO = 0x80

    CMD_READ_BLOCK = 17
    CMD_WRITE_BLOCK = 24

    STA_CMDREND = 1 << 6
    STA_DBCKEND = 1 << 10

    def __init__(self, image: bytes | bytearray = b"", capacity_blocks: int = 4096,
                 block_latency_cycles: int = 60_000):
        # Single-block SD access is hundreds of microseconds on real
        # cards; the latency is charged on command issue so both
        # baseline and OPEC builds wait identically (I/O-bound §6.3).
        self.machine = None
        self.block_latency_cycles = block_latency_cycles
        self.capacity_blocks = capacity_blocks
        if len(image) > capacity_blocks * BLOCK_SIZE:
            raise ValueError(
                f"SD image of {len(image)} bytes exceeds the card's "
                f"{capacity_blocks} blocks")
        self.image = bytearray(image)
        self.arg = 0
        self.power = 0
        self._fifo: deque[int] = deque()
        self._write_buffer: list[int] = []
        self._write_block = -1
        self.reads = 0
        self.writes = 0

    # -- host side ---------------------------------------------------

    def read_block_host(self, block: int) -> bytes:
        """Block ``block``'s bytes, zero past the end of the image."""
        start = block * BLOCK_SIZE
        blob = bytes(self.image[start : start + BLOCK_SIZE])
        return blob + bytes(BLOCK_SIZE - len(blob))

    # -- device side ---------------------------------------------------

    def _start_read(self, block: int) -> None:
        blob = self.read_block_host(block)
        self._fifo = deque(
            int.from_bytes(blob[i : i + 4], "little")
            for i in range(0, BLOCK_SIZE, 4)
        )
        self.reads += 1

    def _commit_write(self) -> None:
        block = self._write_block
        self._write_block = -1
        words = self._write_buffer
        self._write_buffer = []
        if block >= self.capacity_blocks:
            return
        start = block * BLOCK_SIZE
        image = self.image
        if start > len(image):
            image.extend(bytes(start - len(image)))
        image[start : start + BLOCK_SIZE] = b"".join(
            w.to_bytes(4, "little") for w in words)
        self.writes += 1

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == self.STA:
            return self.STA_CMDREND | self.STA_DBCKEND
        if offset == self.RESP1:
            return 0x900  # "ready for data" card status
        if offset == self.FIFO:
            return self._fifo.popleft() if self._fifo else 0
        if offset == self.ARG:
            return self.arg
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == self.ARG:
            self.arg = value
        elif offset == self.CMD:
            command = value & 0x3F
            if command == self.CMD_READ_BLOCK:
                if self.machine is not None:
                    self.machine.consume(self.block_latency_cycles)
                self._start_read(self.arg)
            elif command == self.CMD_WRITE_BLOCK:
                if self.machine is not None:
                    self.machine.consume(self.block_latency_cycles)
                self._write_block = self.arg
                self._write_buffer = []
        elif offset == self.FIFO:
            if self._write_block >= 0:
                self._write_buffer.append(value & 0xFFFFFFFF)
                if len(self._write_buffer) == WORDS_PER_BLOCK:
                    self._commit_write()
        elif offset == self.POWER:
            self.power = value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["image"] = pack_pages(self.image)
        return state

    def __setstate__(self, state: dict) -> None:
        state["image"] = unpack_pages(state["image"])
        self.__dict__.update(state)


class USBMassStorage:
    """USB-OTG port exposing a write-only mass-storage disk.

    Protocol: write BLK with the target block, stream 128 words into
    DATA; the block commits automatically.  The Camera app saves its
    photo here (§6); the host inspects ``disk`` afterwards.
    """

    CTRL = 0x00
    BLK = 0x04
    DATA = 0x08
    STA = 0x0C

    STA_READY = 1

    def __init__(self, block_latency_cycles: int = 150_000):
        self.machine = None
        self.block_latency_cycles = block_latency_cycles
        self.disk: dict[int, bytes] = {}
        self.ctrl = 0
        self._block = 0
        self._buffer: list[int] = []

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == self.STA:
            return self.STA_READY
        if offset == self.CTRL:
            return self.ctrl
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == self.CTRL:
            self.ctrl = value
        elif offset == self.BLK:
            self._block = value
            self._buffer = []
        elif offset == self.DATA:
            self._buffer.append(value & 0xFFFFFFFF)
            if len(self._buffer) == WORDS_PER_BLOCK:
                blob = b"".join(w.to_bytes(4, "little") for w in self._buffer)
                self.disk[self._block] = blob
                self._block += 1
                self._buffer = []
                if self.machine is not None:
                    self.machine.consume(self.block_latency_cycles)
