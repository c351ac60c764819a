"""Tests for the RISC-V PMP backend (§7 port)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.mpu import MPU, MPURegion, align_base
from repro.hw.pmp import (
    NUM_PMP_ENTRIES,
    PMP,
    PMPEntry,
    PmpProtection,
    compile_regions_to_pmp,
    napot_cover,
    use_pmp,
)


class TestPMPEntry:
    def test_napot_validation(self):
        with pytest.raises(ValueError):
            PMPEntry(base=0, size=3)
        with pytest.raises(ValueError):
            PMPEntry(base=4, size=8)  # misaligned

    def test_match_and_permissions(self):
        entry = PMPEntry(base=0x1000, size=0x100, readable=True)
        assert entry.matches(0x10FF)
        assert not entry.matches(0x1100)
        assert entry.permits(write=False)
        assert not entry.permits(write=True)


class TestPMPSemantics:
    def test_lowest_index_wins(self):
        pmp = PMP(enabled=True)
        pmp.set_entry(0, PMPEntry(base=0x1000, size=0x100, readable=True,
                                  writable=True))
        pmp.set_entry(1, PMPEntry(base=0x1000, size=0x1000))
        assert pmp.allows(0x1010, 4, privileged=False, write=True)
        assert not pmp.allows(0x1800, 4, privileged=False, write=False)

    def test_m_mode_bypasses_unlocked(self):
        pmp = PMP(enabled=True)
        pmp.set_entry(0, PMPEntry(base=0x1000, size=0x100))
        assert pmp.allows(0x1000, 4, privileged=True, write=True)
        assert not pmp.allows(0x1000, 4, privileged=False, write=False)

    def test_locked_entry_constrains_m_mode(self):
        pmp = PMP(enabled=True)
        pmp.set_entry(0, PMPEntry(base=0x1000, size=0x100, readable=True,
                                  locked=True))
        assert not pmp.allows(0x1000, 4, privileged=True, write=True)
        assert pmp.allows(0x1000, 4, privileged=True, write=False)

    def test_u_mode_denied_without_match(self):
        pmp = PMP(enabled=True)
        assert not pmp.allows(0x2000, 4, privileged=False, write=False)
        assert pmp.allows(0x2000, 4, privileged=True, write=False)


class TestNapotCover:
    @pytest.mark.parametrize("base, length", [
        (0x1000, 0x1000), (0x800, 0x1800), (0x20, 0x60), (0x1800, 0x800),
    ])
    def test_exact_cover(self, base, length):
        pieces = napot_cover(base, length)
        covered = []
        for piece_base, piece_size in pieces:
            assert piece_base % piece_size == 0
            covered.extend(range(piece_base, piece_base + piece_size, 4))
        assert covered == list(range(base, base + length, 4))

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            napot_cover(2, 8)


class TestRegionCompilation:
    def test_priority_inversion(self):
        """MPU highest-wins becomes PMP lowest-index-first."""
        regions = [
            MPURegion(number=0, base=0, size=0x40000000,
                      priv="RW", unpriv="RO"),
            MPURegion(number=4, base=0x20000000, size=0x400,
                      priv="RW", unpriv="RW"),
        ]
        entries = compile_regions_to_pmp(regions)
        assert entries[0].base == 0x20000000  # region 4 first
        assert entries[-1].size == 0x40000000

    def test_subregion_mask_becomes_runs(self):
        region = MPURegion(number=3, base=0x20000000, size=0x800,
                           priv="RW", unpriv="RW",
                           subregion_disable=0b11110000)
        entries = compile_regions_to_pmp([region])
        total = sum(e.size for e in entries)
        assert total == 0x400  # only the low four sub-regions
        assert all(e.base < 0x20000400 for e in entries)

    def test_entry_budget_enforced(self):
        regions = [
            MPURegion(number=i, base=0x20000000 + i * 0x1000, size=0x100,
                      priv="RW", unpriv="RW",
                      subregion_disable=0b01010101)  # 4 runs each
            for i in range(8)
        ]
        with pytest.raises(ValueError, match="PMP entries"):
            compile_regions_to_pmp(regions)

    def test_entry_budget_enforced_on_every_load(self):
        """The lowering memo never stores the overflow: each load of
        the same over-budget set raises again and changes nothing."""
        regions = [
            MPURegion(number=i, base=0x20000000 + i * 0x1000, size=0x100,
                      priv="RW", unpriv="RW", subregion_disable=0b01010101)
            for i in range(8)
        ]
        adapter = PmpProtection()
        epoch = adapter.epoch
        for _ in range(3):
            with pytest.raises(ValueError, match="PMP entries"):
                adapter.load_configuration(regions)
        assert adapter.epoch == epoch

    def test_disabled_region_compiles_to_nothing(self):
        """Regression: disabled regions used to compile into live PMP
        entries (``enabled`` was never consulted)."""
        region = MPURegion(number=3, base=0x20000000, size=0x200,
                           priv="RW", unpriv="RW", enabled=False)
        assert compile_regions_to_pmp([region]) == []

    def test_disabled_region_does_not_shadow_lower_region(self):
        """The concrete damage of the bug: a disabled high-priority RW
        region over an NA region used to grant the access the MPU
        denies."""
        deny = MPURegion(number=1, base=0x20000000, size=0x200,
                         priv="RW", unpriv="NA")
        ghost = MPURegion(number=5, base=0x20000000, size=0x200,
                          priv="RW", unpriv="RW", enabled=False)
        mpu = MPU(enabled=True)
        adapter = PmpProtection()
        for region in (deny, ghost):
            mpu.set_region(region)
            adapter.set_region(region)
        adapter.enabled = True
        assert not mpu.allows(0x20000010, 4, False, False)
        assert not adapter.allows(0x20000010, 4, False, False)


class TestPmpProtectionSemantics:
    def test_privdefena_wired_into_no_match_path(self):
        """Regression: ``privdefena`` was assigned but never consulted —
        privileged no-match accesses succeeded even with it clear."""
        adapter = PmpProtection()
        adapter.enabled = True
        assert adapter.allows(0x20000000, 4, True, False)
        adapter.privdefena = False
        assert not adapter.allows(0x20000000, 4, True, False)
        # Unprivileged no-match is denied either way.
        assert not adapter.allows(0x20000000, 4, False, False)

    def test_decision_cache_dropped_on_configuration_epoch(self):
        adapter = PmpProtection()
        adapter.enabled = True
        region = MPURegion(number=2, base=0x20000000, size=0x100,
                           priv="RW", unpriv="RW")
        adapter.set_region(region)
        epoch = adapter.epoch
        assert adapter.allows(0x20000010, 4, False, True)
        assert adapter._decisions  # verdict memoised
        adapter.clear_region(2)
        assert adapter.epoch == epoch + 1
        assert not adapter._decisions
        assert not adapter.allows(0x20000010, 4, False, True)

    def test_snapshot_restore_roundtrip(self):
        adapter = PmpProtection()
        adapter.enabled = True
        region = MPURegion(number=4, base=0x20000000, size=0x100,
                           priv="RW", unpriv="RO")
        adapter.set_region(region)
        saved = adapter.snapshot()
        adapter.load_configuration([])
        assert not adapter.allows(0x20000010, 4, False, False)
        adapter.restore(saved)
        assert adapter.allows(0x20000010, 4, False, False)
        assert not adapter.allows(0x20000010, 4, False, True)


sizes = st.sampled_from([32 << i for i in range(16)])
addresses = st.integers(min_value=0, max_value=0x3FFFFFFF)


@st.composite
def mpu_regions(draw):
    size = draw(sizes)
    return MPURegion(
        number=draw(st.integers(0, 7)),
        base=align_base(draw(addresses), size),
        size=size,
        priv="RW",
        unpriv=draw(st.sampled_from(["NA", "RO", "RW"])),
        subregion_disable=draw(st.integers(0, 255)),
        enabled=draw(st.booleans()),
    )


@given(st.lists(mpu_regions(), max_size=4,
                unique_by=lambda r: r.number),
       addresses, st.booleans())
@settings(max_examples=200, deadline=None)
def test_pmp_adapter_equivalent_to_mpu_for_unprivileged(region_list,
                                                        address, write):
    """The §7 port property: for any region set the monitor could load,
    the PMP backend makes the same unprivileged decisions as the MPU."""
    mpu = MPU(enabled=True, privdefena=True)
    adapter = PmpProtection()
    try:
        for region in region_list:
            mpu.set_region(region)
            adapter.set_region(region)
    except ValueError:
        return  # exceeded the PMP entry budget: explicitly reported
    adapter.enabled = True
    assert adapter.allows(address, 4, False, write) == mpu.allows(
        address, 4, False, write)


class TestEndToEnd:
    def test_pinlock_runs_under_opec_on_pmp(self):
        """OPEC-Monitor unchanged, protection swapped for PMP."""
        from repro import build_opec, run_image
        from repro.apps import pinlock
        from repro.hw import SecurityAbort

        app = pinlock.build(rounds=2)
        artifacts = build_opec(app.module, app.board, app.specs)

        def setup(machine):
            use_pmp(machine)
            app.setup(machine)

        result = run_image(artifacts.image, setup=setup,
                           max_instructions=app.max_instructions)
        app.verify_run(result.machine, result.halt_code)
        assert isinstance(result.machine.enforcement, PmpProtection)

    def test_isolation_still_enforced_on_pmp(self):
        import repro.ir as ir
        from repro import build_opec, run_image
        from repro.hw import SecurityAbort, stm32f4_discovery
        from tests.conftest import MINI_SPECS, build_mini_module

        probe = build_opec(build_mini_module(), stm32f4_discovery(),
                           MINI_SPECS)
        secret = probe.module.get_global("secret")
        leaked = probe.image.global_address(secret)

        module = build_mini_module()
        victim = module.get_function("task_b")
        block = victim.blocks[0]
        ret = block.instructions.pop()
        b = ir.IRBuilder(victim, block)
        b.store(0xBAD, b.inttoptr(leaked, ir.I32))
        block.instructions.append(ret)
        artifacts = build_opec(module, stm32f4_discovery(), MINI_SPECS)
        with pytest.raises(SecurityAbort):
            run_image(artifacts.image, setup=lambda m: use_pmp(m))
