"""Unit tests for layout, MPU config synthesis, and the OPEC linker."""

import pytest

import repro.ir as ir
from repro import build_opec
from repro.hw import MIN_REGION_SIZE, Machine, stm32f4_discovery
from repro.image import (
    LinkError,
    VECTOR_TABLE_SIZE,
    build_opec_image,
    build_vanilla_image,
    covering_regions,
    function_code_size,
    instrumentation_size,
    metadata_size,
    monitor_code_size,
    subregion_disable_for_free_range,
)
from repro.ir import GlobalVariable, I32, VOID

from ..conftest import MINI_SPECS, build_mini_module


def _sections_overlap(sections):
    ordered = sorted(sections, key=lambda s: s.base)
    for a, b in zip(ordered, ordered[1:]):
        if a.end > b.base:
            return (a, b)
    return None


class TestVanillaLayout:
    def test_sections_do_not_overlap(self, mini_module, board):
        image = build_vanilla_image(mini_module, board)
        assert _sections_overlap(image.sections) is None

    def test_functions_in_flash_word_aligned(self, mini_module, board):
        image = build_vanilla_image(mini_module, board)
        for func in mini_module.defined_functions():
            address = image.function_address(func)
            assert address % 4 == 0
            assert board.flash_base <= address < board.flash_base + board.flash_size
            assert image.function_at(address) is func

    def test_globals_in_sram(self, mini_module, board):
        image = build_vanilla_image(mini_module, board)
        for gvar in mini_module.writable_globals():
            address = image.global_address(gvar)
            assert board.sram_base <= address
            assert address + gvar.size <= board.sram_base + board.sram_size

    def test_const_globals_in_flash(self, board):
        module = build_mini_module()
        k = module.add_global("k", I32, 7, is_const=True)
        image = build_vanilla_image(module, board)
        address = image.global_address(k)
        assert board.flash_base <= address < board.flash_base + board.flash_size

    def test_initial_memory_encoded_once_per_image(self, board,
                                                   monkeypatch):
        module = build_mini_module()
        module.add_global("k", I32, 7, is_const=True)
        module.add_global("w", I32, 0x1234)
        image = build_vanilla_image(module, board)
        encoded = []
        encode = GlobalVariable.encode_initializer

        def spy(gvar):
            encoded.append(gvar)
            return encode(gvar)

        monkeypatch.setattr(GlobalVariable, "encode_initializer", spy)
        first, second = Machine(board), Machine(board)
        image.initialize_memory(first)
        image.initialize_memory(second)
        globals_ = list(module.iter_globals())
        assert sorted(g.name for g in encoded) == \
            sorted(g.name for g in globals_)
        assert any(g.is_const for g in globals_)
        assert first.flash.data == second.flash.data
        assert len(first.flash.data) > 0
        assert first.sram.data == second.sram.data

    def test_stack_at_top(self, mini_module, board):
        image = build_vanilla_image(mini_module, board)
        assert image.stack_top == board.sram_base + board.sram_size
        assert image.stack_limit == image.stack_top - image.stack_size

    def test_code_bytes_counts_instructions(self, mini_module):
        func = mini_module.get_function("task_a")
        assert function_code_size(func) == func.instruction_count() * 4


class TestCoveringRegions:
    def test_single_region_when_aligned(self):
        assert covering_regions(0x40020000, 0x400) == [(0x40020000, 0x400)]

    def test_alignment_padding_single_region(self):
        # Base 0x40023800, size 0x400: a 0x400-sized region aligns fine.
        assert covering_regions(0x40023800, 0x400) == [(0x40023800, 0x400)]

    def test_misaligned_range_needs_multiple(self):
        # 0x800 bytes at 0x40020C00: a single aligned 0x800 region
        # cannot cover the range (§5.2's two-regions-per-peripheral case).
        pieces = covering_regions(0x40020C00, 0x800)
        assert len(pieces) >= 2
        covered_start = min(base for base, _ in pieces)
        covered_end = max(base + size for base, size in pieces)
        assert covered_start <= 0x40020C00
        assert covered_end >= 0x40020C00 + 0x800
        for base, size in pieces:
            assert size >= MIN_REGION_SIZE
            assert size & (size - 1) == 0
            assert base % size == 0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            covering_regions(0x40020000, 0)


class TestSubregionMask:
    def test_mask_hides_high_subregions(self):
        # Stack of 0x1000 at 0x20000000; watermark mid-way.
        mask = subregion_disable_for_free_range(0x20000000, 0x1000,
                                                0x20000800)
        # Sub-regions 4..7 (at/above the watermark) disabled.
        assert mask == 0b11110000

    def test_mask_all_enabled_at_top(self):
        mask = subregion_disable_for_free_range(0x20000000, 0x1000,
                                                0x20001000)
        assert mask == 0

    def test_mask_all_disabled_at_bottom(self):
        mask = subregion_disable_for_free_range(0x20000000, 0x1000,
                                                0x20000000)
        assert mask == 0xFF


class TestOpecLinker:
    @pytest.fixture
    def artifacts(self, board):
        return build_opec(build_mini_module(), board, MINI_SPECS)

    def test_sections_do_not_overlap(self, artifacts):
        assert _sections_overlap(artifacts.image.sections) is None

    def test_every_operation_has_a_section_and_templates(self, artifacts):
        image = artifacts.image
        for op in artifacts.operations:
            layout = image.layout_of(op)
            assert layout.section.size >= MIN_REGION_SIZE
            assert layout.section.base % layout.region_size == 0
            numbers = [t.number for t in layout.templates]
            assert numbers == [0, 1, 2, 3, 4]

    def test_shadows_live_inside_their_section(self, artifacts):
        image = artifacts.image
        for (op_index, gvar), address in image.shadow_addresses.items():
            section = image.op_layouts[op_index].section
            assert section.base <= address
            assert address + gvar.size <= section.end

    def test_internal_vars_inside_their_section(self, artifacts):
        image = artifacts.image
        policy = artifacts.policy
        for op in artifacts.operations:
            section = image.layout_of(op).section
            for gvar in policy.internal_vars(op):
                address = image.global_address(gvar)
                assert section.base <= address < section.end

    def test_reloc_slot_per_external(self, artifacts):
        externals = set(artifacts.policy.all_external_vars())
        assert set(artifacts.image.reloc_slots) == externals
        slots = sorted(artifacts.image.reloc_slots.values())
        assert all(b - a == 4 for a, b in zip(slots, slots[1:]))

    def test_zone_region_covers_all_op_sections(self, artifacts):
        image = artifacts.image
        zone_end = image.zone_start + image.zone_size
        for layout in image.op_layouts.values():
            assert image.zone_start <= layout.section.base
            assert layout.section.end <= zone_end

    def test_zone_region_does_not_cover_reloc_table(self, artifacts):
        image = artifacts.image
        assert image.zone_start >= image.section("reloc").end

    def test_stack_region_power_of_two_aligned(self, artifacts):
        image = artifacts.image
        assert image.stack_size & (image.stack_size - 1) == 0
        assert image.stack_base % image.stack_size == 0

    def test_public_addresses_for_externals(self, artifacts):
        for gvar in artifacts.policy.all_external_vars():
            address = artifacts.image.public_addresses[gvar]
            public = artifacts.image.section("public")
            assert public.base <= address < public.end

    def test_odd_stack_size_rejected(self, board, mini_module):
        from repro.partition import build_policy
        with pytest.raises(LinkError, match="power of two"):
            build_opec_image(mini_module, board,
                             build_policy(mini_module, []),
                             stack_size=3000)

    def test_flash_overhead_components_positive(self, artifacts):
        image = artifacts.image
        assert image.monitor_code_bytes > 8000
        assert image.metadata_bytes > 0
        assert image.instrumentation_bytes > 0


class TestMetadataModel:
    def test_monitor_code_grows_with_operations(self):
        assert monitor_code_size(10) > monitor_code_size(5)

    def test_metadata_counts_externals_and_windows(self, board):
        module = build_mini_module()
        artifacts = build_opec(module, board, MINI_SPECS)
        assert metadata_size(artifacts.policy) >= 3 * (16 + 64)

    def test_instrumentation_counts_entry_call_sites(self, board):
        module = build_mini_module()
        artifacts = build_opec(module, board, MINI_SPECS)
        # main calls task_a twice and task_b once -> 3 sites * 8 bytes.
        assert instrumentation_size(artifacts.module, artifacts.policy) == 24
