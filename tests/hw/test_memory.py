"""Unit tests for the memory map."""

import pickle
import tracemalloc

import pytest

from repro.hw import (FlashRegion, HardFault, Machine, MemoryMap, MMIORegion,
                      RamRegion, stm32479i_eval, stm32f4_discovery)
from repro.hw.memory import PAGE_SIZE, pack_pages, unpack_pages


class Echo:
    """MMIO device echoing offset on read, logging writes."""

    def __init__(self):
        self.writes = []

    def mmio_read(self, offset, size):
        return offset

    def mmio_write(self, offset, size, value):
        self.writes.append((offset, size, value))


class TestRam:
    def test_little_endian_roundtrip(self):
        ram = RamRegion("r", 0x20000000, 0x100)
        ram.write(0x20000000, 4, 0x01020304)
        assert ram.read(0x20000000, 4) == 0x01020304
        assert ram.read(0x20000000, 1) == 0x04
        assert ram.read(0x20000003, 1) == 0x01

    def test_bulk_bytes(self):
        ram = RamRegion("r", 0x20000000, 0x100)
        ram.write_bytes(0x20000010, b"hello")
        assert ram.read_bytes(0x20000010, 5) == b"hello"

    def test_value_masked_to_size(self):
        ram = RamRegion("r", 0, 16)
        ram.write(0, 1, 0x1FF)
        assert ram.read(0, 1) == 0xFF


class TestBulkBounds:
    """Regression: bulk accesses leaving the region used to fail
    silently — ``read_bytes`` returned short data (Python slicing past
    the end), ``write_bytes`` *grew* the backing bytearray.  Both must
    raise :class:`HardFault` like every other out-of-range access."""

    def test_read_past_end_faults(self):
        ram = RamRegion("r", 0x20000000, 0x10)
        with pytest.raises(HardFault, match="leaves region"):
            ram.read_bytes(0x20000008, 0x10)

    def test_read_below_base_faults(self):
        ram = RamRegion("r", 0x20000000, 0x10)
        with pytest.raises(HardFault, match="leaves region"):
            ram.read_bytes(0x1FFFFFFC, 8)

    def test_write_past_end_faults_and_does_not_grow(self):
        ram = RamRegion("r", 0x20000000, 0x10)
        with pytest.raises(HardFault, match="leaves region"):
            ram.write_bytes(0x2000000C, b"\xAA" * 8)
        assert len(ram.data) == 0x10  # backing store must not grow

    def test_exact_fit_still_allowed(self):
        ram = RamRegion("r", 0x20000000, 0x10)
        ram.write_bytes(0x20000000, b"\x55" * 0x10)
        assert ram.read_bytes(0x20000000, 0x10) == b"\x55" * 0x10

    def test_map_bulk_read_crossing_region_end_faults(self):
        memory = MemoryMap()
        memory.map(RamRegion("a", 0x0, 0x10))
        with pytest.raises(HardFault, match="bulk read crosses"):
            memory.read_bytes(0x08, 0x10)

    def test_map_bulk_write_crossing_region_end_faults(self):
        memory = MemoryMap()
        region = memory.map(RamRegion("a", 0x0, 0x10))
        with pytest.raises(HardFault, match="bulk write crosses"):
            memory.write_bytes(0x08, b"\xAA" * 0x10)
        assert len(region.data) == 0x10


class TestFlash:
    def test_runtime_write_faults(self):
        flash = FlashRegion("f", 0x08000000, 0x100)
        with pytest.raises(HardFault):
            flash.write(0x08000000, 4, 1)

    def test_program_writes(self):
        flash = FlashRegion("f", 0x08000000, 0x100)
        flash.program(0x08000010, b"\xAA\xBB")
        assert flash.read(0x08000010, 2) == 0xBBAA


class TestCompactFlash:
    """Flash keeps only the programmed extent; every other address of
    the region reads as erased zero."""

    BASE = 0x08000000

    def _flash(self):
        flash = FlashRegion("f", self.BASE, 0x1000)
        flash.program(self.BASE + 0x10, b"\x11\x22\x33\x44")
        return flash

    def test_holds_only_the_programmed_extent(self):
        flash = self._flash()
        assert len(flash.data) == 0x14
        assert (flash.base, flash.size, flash.end) == \
            (self.BASE, 0x1000, self.BASE + 0x1000)
        flash.program(self.BASE, b"\x99")
        assert len(flash.data) == 0x14
        assert flash.read(self.BASE, 1) == 0x99
        assert flash.read(self.BASE + 0x10, 4) == 0x44332211

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_reads_past_the_extent_are_zero(self, size):
        flash = self._flash()
        assert flash.read(self.BASE + 0x14, size) == 0
        assert flash.read(self.BASE + 0x800, size) == 0
        assert flash.read(self.BASE + 0x1000 - size, size) == 0

    @pytest.mark.parametrize("size, value", [
        (2, 0x44), (4, 0x4433)])
    def test_read_straddling_the_extent_end(self, size, value):
        flash = self._flash()
        address = self.BASE + 0x14 - size // 2
        assert flash.read(address, size) == value

    def test_map_reads_past_the_extent_are_zero(self):
        memory = MemoryMap()
        memory.map(self._flash())
        for size in (1, 2, 4):
            assert memory.read(self.BASE + 0x100, size) == 0
        with pytest.raises(HardFault, match="crosses"):
            memory.read(self.BASE + 0xFFE, 4)

    def test_read_bytes_zero_pads(self):
        flash = self._flash()
        assert flash.read_bytes(self.BASE + 0x12, 6) == \
            b"\x33\x44" + bytes(4)
        assert flash.read_bytes(self.BASE + 0x100, 8) == bytes(8)
        with pytest.raises(HardFault, match="leaves region"):
            flash.read_bytes(self.BASE + 0xFFC, 8)

    @pytest.mark.parametrize("offset, length", [
        (0x1000 - 2, 4), (0x1000, 1), (-4, 4), (-2, 4)])
    def test_program_outside_the_region_raises(self, offset, length):
        flash = self._flash()
        before = bytes(flash.data)
        with pytest.raises(HardFault, match="leaves region"):
            flash.program(self.BASE + offset, b"\xEE" * length)
        assert flash.data == before

    def test_bulk_write_refused(self):
        with pytest.raises(HardFault, match="flash"):
            self._flash().write_bytes(self.BASE, b"hi")

    @pytest.mark.parametrize("board", [stm32f4_discovery, stm32479i_eval],
                             ids=["1MB-192KB", "2MB-288KB"])
    def test_fresh_machine_allocates_about_its_sram(self, board):
        board = board()
        Machine(board)          # warm imports and lazy module state
        tracemalloc.start()
        try:
            machine = Machine(board)
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert machine.sram.size == board.sram_size
        assert allocated < board.sram_size + 64 * 1024


class TestMap:
    def test_overlap_rejected(self):
        memory = MemoryMap()
        memory.map(RamRegion("a", 0x100, 0x100))
        with pytest.raises(ValueError, match="overlaps"):
            memory.map(RamRegion("b", 0x180, 0x100))

    def test_unmapped_access_faults(self):
        memory = MemoryMap()
        with pytest.raises(HardFault, match="unmapped"):
            memory.read(0xDEAD0000, 4)

    def test_access_crossing_region_end_faults(self):
        memory = MemoryMap()
        memory.map(RamRegion("a", 0x0, 0x10))
        with pytest.raises(HardFault, match="crosses"):
            memory.read(0x0E, 4)

    def test_mmio_dispatch(self):
        memory = MemoryMap()
        device = Echo()
        memory.map(MMIORegion("dev", 0x40000000, 0x100, device))
        assert memory.read(0x40000004, 4) == 4
        memory.write(0x40000008, 4, 99)
        assert device.writes == [(8, 4, 99)]

    def test_bulk_write_to_flash_rejected(self):
        memory = MemoryMap()
        memory.map(FlashRegion("f", 0x0, 0x100))
        with pytest.raises(HardFault):
            memory.write_bytes(0x0, b"hi")

    def test_find_caches_and_still_correct(self):
        memory = MemoryMap()
        a = memory.map(RamRegion("a", 0x0, 0x10))
        c = memory.map(RamRegion("c", 0x100, 0x10))
        assert memory.find(0x5) is a
        assert memory.find(0x105) is c
        assert memory.find(0x6) is a
        assert memory.find(0x50) is None


class TestSparsePages:
    @pytest.mark.parametrize("data", [
        bytearray(3 * PAGE_SIZE),                 # all zero
        bytearray(b"\x01" * (2 * PAGE_SIZE + 100)),  # short last page
        bytearray(PAGE_SIZE - 1) + b"\x05",       # only the last byte
        bytearray(PAGE_SIZE + 99) + b"\x05",      # ... of a short page
        bytearray(),
    ], ids=["zero", "short-tail", "last-byte", "last-byte-short", "empty"])
    def test_roundtrip(self, data):
        packed = pack_pages(data)
        assert packed[0] == len(data)
        restored = unpack_pages(packed)
        assert type(restored) is bytearray
        assert restored == data

    def test_only_nonzero_pages_are_kept(self):
        data = bytearray(4 * PAGE_SIZE + 10)
        data[-1] = 0xFF
        data[PAGE_SIZE + 7] = 1
        _length, pages = pack_pages(data)
        assert sorted(pages) == [1, 4]
        assert len(pages[4]) == 10

    def test_regions_pickle_sparse_and_identical(self):
        flash = FlashRegion("f", 0x0, 64 * PAGE_SIZE)
        flash.program(0x10, b"firmware")
        ram = RamRegion("r", 0x20000000, 16 * PAGE_SIZE)
        ram.write(0x20000000 + 16 * PAGE_SIZE - 4, 4, 0xDEADBEEF)
        for region in (flash, ram):
            blob = pickle.dumps(region)
            assert len(blob) < 3 * PAGE_SIZE
            restored = pickle.loads(blob)
            assert type(restored) is type(region)
            assert restored.data == region.data
            assert type(restored.data) is bytearray
            assert (restored.base, restored.size, restored.end) == \
                (region.base, region.size, region.end)
