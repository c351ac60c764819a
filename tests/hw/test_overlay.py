"""Tests for the permission-overlay (Complets-style) backend."""

import pytest

from repro.hw.mpu import MPU, MPURegion
from repro.hw.overlay import (
    OverlayProtection,
    _overlay_table,
    compile_regions_to_overlay,
    use_overlay,
)
from repro.hw.pmp import PmpProtection, _pmp_entries


class TestCompilation:
    def test_empty_set_is_the_default_map(self):
        starts, perms = compile_regions_to_overlay([None] * 8)
        assert starts == [0]
        assert perms == [None]

    def test_highest_numbered_region_wins(self):
        low = MPURegion(number=1, base=0x20000000, size=0x400,
                        priv="RW", unpriv="NA")
        high = MPURegion(number=6, base=0x20000000, size=0x400,
                         priv="RW", unpriv="RW")
        starts, perms = compile_regions_to_overlay([low, high])
        index = starts.index(0x20000000)
        assert perms[index] == ("RW", "RW")

    def test_disabled_region_is_ignored(self):
        ghost = MPURegion(number=5, base=0x20000000, size=0x400,
                          priv="RW", unpriv="RW", enabled=False)
        starts, perms = compile_regions_to_overlay([ghost])
        assert all(pair is None for pair in perms)

    def test_subregion_hole_falls_through(self):
        # Sub-region 1 disabled: that interval reverts to the default
        # map (None) while its neighbours keep the region's pair.
        region = MPURegion(number=3, base=0x20000000, size=0x400,
                           priv="RW", unpriv="RO",
                           subregion_disable=0b00000010)
        starts, perms = compile_regions_to_overlay([region])
        sub = region.subregion_size
        assert perms[starts.index(0x20000000)] == ("RW", "RO")
        assert perms[starts.index(0x20000000 + sub)] is None
        assert perms[starts.index(0x20000000 + 2 * sub)] == ("RW", "RO")


class TestSemantics:
    def _overlay(self, *regions, privdefena=True):
        overlay = OverlayProtection()
        overlay.privdefena = privdefena
        for region in regions:
            overlay.set_region(region)
        overlay.enabled = True
        return overlay

    def test_disabled_unit_allows_everything(self):
        overlay = OverlayProtection()
        assert overlay.allows(0xDEAD0000, 4, False, True)

    def test_unprivileged_no_match_denied(self):
        overlay = self._overlay()
        assert not overlay.allows(0x20000000, 4, False, False)
        assert overlay.allows(0x20000000, 4, True, False)

    def test_privdefena_clear_denies_privileged_no_match(self):
        overlay = self._overlay(privdefena=False)
        assert not overlay.allows(0x20000000, 4, True, False)

    def test_read_only_denies_writes(self):
        region = MPURegion(number=2, base=0x20000000, size=0x100,
                           priv="RW", unpriv="RO")
        overlay = self._overlay(region)
        assert overlay.allows(0x20000010, 4, False, False)
        assert not overlay.allows(0x20000010, 4, False, True)

    def test_straddling_access_checks_both_ends(self):
        region = MPURegion(number=2, base=0x20000000, size=0x100,
                           priv="RW", unpriv="RW")
        overlay = self._overlay(region)
        # Last byte of the window is fine; one past the end is not.
        assert overlay.allows(0x200000FC, 4, False, True)
        assert not overlay.allows(0x200000FE, 4, False, True)

    def test_decision_cache_dropped_on_configuration_epoch(self):
        region = MPURegion(number=2, base=0x20000000, size=0x100,
                           priv="RW", unpriv="RW")
        overlay = self._overlay(region)
        epoch = overlay.epoch
        assert overlay.allows(0x20000010, 4, False, True)
        assert overlay._decisions
        overlay.clear_region(2)
        assert overlay.epoch == epoch + 1
        assert not overlay._decisions
        assert not overlay.allows(0x20000010, 4, False, True)

    def test_snapshot_restore_roundtrip(self):
        region = MPURegion(number=4, base=0x20000000, size=0x100,
                           priv="RW", unpriv="RO")
        overlay = self._overlay(region)
        saved = overlay.snapshot()
        overlay.load_configuration([])
        assert not overlay.allows(0x20000010, 4, False, False)
        overlay.restore(saved)
        assert overlay.allows(0x20000010, 4, False, False)
        assert not overlay.allows(0x20000010, 4, False, True)


def _policy() -> list[MPURegion]:
    """A fresh (equal, not identical) region set on every call."""
    return [
        MPURegion(number=0, base=0x08000000, size=0x100000,
                  priv="RO", unpriv="RO", executable=True),
        MPURegion(number=2, base=0x20000000, size=0x800,
                  priv="RW", unpriv="RW", subregion_disable=0b00100000),
        MPURegion(number=5, base=0x40004400, size=0x400,
                  priv="RW", unpriv="RW"),
    ]


@pytest.mark.parametrize("make, memo, lowering", [
    (OverlayProtection, _overlay_table,
     lambda backend: (backend._starts, backend._perms)),
    (PmpProtection, _pmp_entries,
     lambda backend: tuple(e for e in backend.pmp.entries if e is not None)),
], ids=["overlay", "pmp"])
class TestLoweringMemo:
    """Each distinct region set is lowered once per process; every
    load still starts a new decision-cache epoch (backend contract
    part 5)."""

    def test_equal_sets_share_one_lowering(self, make, memo, lowering):
        first, second = make(), make()
        first.load_configuration(_policy())
        before = memo.cache_info()
        second.load_configuration(_policy())
        after = memo.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1,
                                              before.misses)
        ours, theirs = lowering(first), lowering(second)
        assert ours and len(ours) == len(theirs)
        assert all(a is b for a, b in zip(ours, theirs))

    def test_memo_hit_still_starts_a_new_epoch(self, make, memo, lowering):
        first, second = make(), make()
        first.load_configuration(_policy())
        for backend in (first, second):
            backend.enabled = True
            assert backend.allows(0x20000010, 4, False, True) is \
                (backend is first)  # the other one is still empty
            epoch, decisions = backend.epoch, backend._decisions
            assert decisions
            backend.load_configuration(_policy())
            assert backend.epoch == epoch + 1
            assert backend._decisions is not decisions
            assert backend._decisions == {}
            assert backend.allows(0x20000010, 4, False, True)
            assert not backend.allows(0x20000500, 4, False, True)


class TestCostModel:
    def test_switch_costs_order_overlay_mpu_pmp(self):
        """The whole point of the substrate: overlay switches are one
        register write, PMP switches rewrite the most CSRs."""
        assert (OverlayProtection.switch_base_cost
                < MPU.switch_base_cost
                < PmpProtection.switch_base_cost)
        assert (OverlayProtection.region_switch_cost
                < MPU.region_switch_cost
                < PmpProtection.region_switch_cost)


class TestEndToEnd:
    def test_pinlock_runs_under_opec_on_overlay(self):
        """OPEC-Monitor unchanged, protection swapped for the overlay."""
        from repro import build_opec, run_image
        from repro.apps import pinlock

        app = pinlock.build(rounds=2)
        artifacts = build_opec(app.module, app.board, app.specs)
        result = run_image(artifacts.image, setup=app.setup,
                           max_instructions=app.max_instructions,
                           backend="overlay")
        app.verify_run(result.machine, result.halt_code)
        assert isinstance(result.machine.enforcement, OverlayProtection)

    def test_isolation_still_enforced_on_overlay(self):
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
            run_image(artifacts.image, setup=lambda m: use_overlay(m))
