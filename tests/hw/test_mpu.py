"""Unit tests for the MPU model (§2.2 semantics)."""

import dataclasses

import pytest

from repro.hw import (
    ACCESS_NONE,
    ACCESS_READ,
    ACCESS_READWRITE,
    MPU,
    MPURegion,
    align_base,
    is_power_of_two,
    region_size_for,
)


class TestRegionValidation:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            MPURegion(number=0, base=0, size=48)

    def test_minimum_size_32(self):
        with pytest.raises(ValueError):
            MPURegion(number=0, base=0, size=16)

    def test_base_alignment(self):
        with pytest.raises(ValueError):
            MPURegion(number=0, base=0x20, size=0x40)
        MPURegion(number=0, base=0x40, size=0x40)  # aligned: ok

    def test_region_number_range(self):
        with pytest.raises(ValueError):
            MPURegion(number=8, base=0, size=32)

    def test_bad_access_string(self):
        with pytest.raises(ValueError):
            MPURegion(number=0, base=0, size=32, priv="XX")

    def test_subregion_mask_range(self):
        with pytest.raises(ValueError):
            MPURegion(number=0, base=0, size=32, subregion_disable=256)

    def test_regions_are_immutable(self):
        region = MPURegion(number=1, base=0x20000000, size=0x400)
        with pytest.raises(dataclasses.FrozenInstanceError):
            region.unpriv = ACCESS_READWRITE

    def test_equal_regions_hash_equal(self):
        def make():
            return MPURegion(number=4, base=0x40004400, size=0x400,
                             priv=ACCESS_READWRITE, unpriv=ACCESS_READ,
                             subregion_disable=0b10)

        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash((a, None)) == hash((b, None))
        assert a != dataclasses.replace(b, subregion_disable=0)


class TestSubregions:
    def test_subregion_size(self):
        region = MPURegion(number=0, base=0x20000000, size=0x100)
        assert region.subregion_size == 0x20

    def test_disabled_subregion_does_not_match(self):
        region = MPURegion(number=0, base=0x20000000, size=0x100,
                           subregion_disable=0b00000001)
        assert not region.matches(0x20000000)      # sub-region 0 disabled
        assert region.matches(0x20000020)          # sub-region 1 enabled

    def test_subregion_of(self):
        region = MPURegion(number=0, base=0, size=0x100)
        assert region.subregion_of(0x00) == 0
        assert region.subregion_of(0xFF) == 7


class TestHighestRegionWins:
    def setup_method(self):
        self.mpu = MPU(enabled=True, privdefena=False)
        self.mpu.set_region(MPURegion(
            number=0, base=0x20000000, size=0x1000,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READ))
        self.mpu.set_region(MPURegion(
            number=3, base=0x20000000, size=0x100,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READWRITE))

    def test_overlap_resolved_by_number(self):
        # Inside region 3: unprivileged write allowed.
        assert self.mpu.allows(0x20000010, 4, privileged=False, write=True)
        # Outside region 3 but inside region 0: read-only.
        assert not self.mpu.allows(0x20000200, 4, privileged=False, write=True)
        assert self.mpu.allows(0x20000200, 4, privileged=False, write=False)

    def test_disabled_subregion_falls_through(self):
        # Disable region 3's first sub-region: accesses fall to region 0.
        self.mpu.set_region(MPURegion(
            number=3, base=0x20000000, size=0x100,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READWRITE,
            subregion_disable=0b00000001))
        assert not self.mpu.allows(0x20000000, 4, privileged=False, write=True)
        assert self.mpu.allows(0x20000020, 4, privileged=False, write=True)

    def test_higher_na_region_blocks(self):
        self.mpu.set_region(MPURegion(
            number=7, base=0x20000000, size=0x100,
            priv=ACCESS_READWRITE, unpriv=ACCESS_NONE))
        assert not self.mpu.allows(0x20000010, 4, privileged=False,
                                   write=False)


class TestBackgroundMap:
    def test_privdefena_allows_privileged_unmapped(self):
        mpu = MPU(enabled=True, privdefena=True)
        assert mpu.allows(0x40000000, 4, privileged=True, write=True)
        assert not mpu.allows(0x40000000, 4, privileged=False, write=False)

    def test_no_privdefena_blocks_privileged(self):
        mpu = MPU(enabled=True, privdefena=False)
        assert not mpu.allows(0x40000000, 4, privileged=True, write=True)

    def test_disabled_mpu_allows_everything(self):
        mpu = MPU(enabled=False)
        assert mpu.allows(0xDEADBEEF, 4, privileged=False, write=True)


class TestAccessSpan:
    def test_access_straddling_region_end_checked_at_both_ends(self):
        mpu = MPU(enabled=True, privdefena=False)
        mpu.set_region(MPURegion(
            number=0, base=0x20000000, size=0x40,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READWRITE))
        assert mpu.allows(0x2000003C, 4, privileged=False, write=True)
        assert not mpu.allows(0x2000003E, 4, privileged=False, write=True)


class TestBoundarySemantics:
    """Accesses that straddle sub-region / region edges (§2.2)."""

    def setup_method(self):
        # Region 0: whole SRAM page, read-only to unprivileged code.
        # Region 3: a 0x100 window on top with RW, sub-region 1
        # (0x20000020-0x2000003F) disabled.
        self.mpu = MPU(enabled=True, privdefena=False)
        self.mpu.set_region(MPURegion(
            number=0, base=0x20000000, size=0x1000,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READ))
        self.mpu.set_region(MPURegion(
            number=3, base=0x20000000, size=0x100,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READWRITE,
            subregion_disable=0b00000010))

    def test_access_straddling_disabled_subregion(self):
        # Last word of sub-region 0 alone: RW via region 3.
        assert self.mpu.allows(0x2000001C, 4, privileged=False, write=True)
        # Straddle into the disabled sub-region: the tail byte falls
        # through to read-only region 0, so the write must fault...
        assert not self.mpu.allows(0x2000001E, 4, privileged=False,
                                   write=True)
        # ...while a read of the same span is fine at both ends.
        assert self.mpu.allows(0x2000001E, 4, privileged=False, write=False)

    def test_disabled_subregion_interior_uses_lower_region(self):
        assert not self.mpu.allows(0x20000030, 4, privileged=False,
                                   write=True)
        assert self.mpu.allows(0x20000030, 4, privileged=False, write=False)

    def test_disabled_subregion_with_no_lower_region(self):
        mpu = MPU(enabled=True, privdefena=True)
        mpu.set_region(MPURegion(
            number=2, base=0x20000000, size=0x100,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READWRITE,
            subregion_disable=0b00000001))
        # Nothing matches in the hole: privileged falls back to the
        # default map (PRIVDEFENA), unprivileged faults.
        assert mpu.allows(0x20000004, 4, privileged=True, write=True)
        assert not mpu.allows(0x20000004, 4, privileged=False, write=False)
        # With PRIVDEFENA clear even privileged code faults there.
        mpu.privdefena = False
        assert not mpu.allows(0x20000004, 4, privileged=True, write=True)

    def test_straddle_out_of_privdefena_background(self):
        mpu = MPU(enabled=True, privdefena=True)
        mpu.set_region(MPURegion(
            number=1, base=0x20000000, size=0x40,
            priv=ACCESS_READ, unpriv=ACCESS_NONE))
        # First byte in the RO region (write denied), last byte in the
        # privileged background (allowed): the region's verdict rules.
        assert not mpu.allows(0x2000003E, 4, privileged=True, write=True)
        # Read: region grants RO, background grants everything.
        assert mpu.allows(0x2000003E, 4, privileged=True, write=False)


class TestDecisionCache:
    """The memoised verdicts must track every configuration mutator."""

    def _rw_region(self, number=0, unpriv=ACCESS_READWRITE):
        return MPURegion(number=number, base=0x20000000, size=0x100,
                         priv=ACCESS_READWRITE, unpriv=unpriv)

    def test_set_region_invalidates(self):
        mpu = MPU(enabled=True, privdefena=False)
        mpu.set_region(self._rw_region())
        assert mpu.allows(0x20000010, 4, privileged=False, write=True)
        mpu.set_region(self._rw_region(unpriv=ACCESS_READ))
        assert not mpu.allows(0x20000010, 4, privileged=False, write=True)

    def test_clear_region_invalidates(self):
        mpu = MPU(enabled=True, privdefena=False)
        mpu.set_region(self._rw_region())
        assert mpu.allows(0x20000010, 4, privileged=False, write=True)
        mpu.clear_region(0)
        assert not mpu.allows(0x20000010, 4, privileged=False, write=True)

    def test_load_configuration_invalidates(self):
        mpu = MPU(enabled=True, privdefena=False)
        mpu.set_region(self._rw_region())
        assert mpu.allows(0x20000010, 4, privileged=False, write=True)
        mpu.load_configuration([self._rw_region(unpriv=ACCESS_NONE)])
        assert not mpu.allows(0x20000010, 4, privileged=False, write=False)

    def test_restore_invalidates(self):
        mpu = MPU(enabled=True, privdefena=False)
        mpu.set_region(self._rw_region(unpriv=ACCESS_READ))
        snap = mpu.snapshot()
        mpu.set_region(self._rw_region(unpriv=ACCESS_READWRITE))
        assert mpu.allows(0x20000010, 4, privileged=False, write=True)
        mpu.restore(snap)
        assert not mpu.allows(0x20000010, 4, privileged=False, write=True)

    def test_privdefena_flip_changes_verdict(self):
        # privdefena is a plain attribute, not a mutator: it is part of
        # the cache key instead of an epoch bump.
        mpu = MPU(enabled=True, privdefena=True)
        assert mpu.allows(0x40000000, 4, privileged=True, write=True)
        mpu.privdefena = False
        assert not mpu.allows(0x40000000, 4, privileged=True, write=True)

    def test_cached_verdict_matches_arbitration(self):
        mpu = MPU(enabled=True, privdefena=False)
        mpu.set_region(MPURegion(
            number=0, base=0x20000000, size=0x100,
            priv=ACCESS_READWRITE, unpriv=ACCESS_READ,
            subregion_disable=0b10000000))
        probes = [(a, s, p, w)
                  for a in range(0x20000000 - 8, 0x20000100 + 8, 2)
                  for s in (1, 2, 4)
                  for p in (False, True)
                  for w in (False, True)]
        for a, s, p, w in probes:
            assert mpu.allows(a, s, p, w) == mpu._arbitrate(a, s, p, w)
        for a, s, p, w in probes:  # second pass: all served from cache
            assert mpu.allows(a, s, p, w) == mpu._arbitrate(a, s, p, w)


class TestSnapshot:
    def test_snapshot_restore_roundtrip(self):
        mpu = MPU(enabled=True)
        region = MPURegion(number=2, base=0, size=32)
        mpu.set_region(region)
        snap = mpu.snapshot()
        mpu.clear_region(2)
        assert mpu.get_region(2) is None
        mpu.restore(snap)
        assert mpu.get_region(2) is region

    def test_load_configuration_replaces_all(self):
        mpu = MPU()
        mpu.set_region(MPURegion(number=1, base=0, size=32))
        mpu.load_configuration([MPURegion(number=5, base=0, size=64)])
        assert mpu.get_region(1) is None
        assert mpu.get_region(5) is not None


class TestHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(32)
        assert not is_power_of_two(48)
        assert not is_power_of_two(0)

    @pytest.mark.parametrize("length, expected", [
        (1, 32), (32, 32), (33, 64), (1024, 1024), (1025, 2048),
    ])
    def test_region_size_for(self, length, expected):
        assert region_size_for(length) == expected

    def test_align_base(self):
        assert align_base(0x12345, 0x100) == 0x12300
        assert align_base(0x200, 0x100) == 0x200
