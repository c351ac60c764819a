"""Differential property tests across enforcement backends.

The interface contract (:mod:`repro.hw.backend`) is that all three
backends — ARMv7-M MPU, the RISC-V PMP adapter, and the permission
overlay — arbitrate unprivileged accesses identically for any region
set the monitor could load.  Random region sets deliberately include
disabled regions, sub-region masks, and both ``PRIVDEFENA`` settings:
each of those knobs has had (or nearly had) a divergence bug — disabled
regions compiled into live PMP entries; ``privdefena`` assigned but
never consulted on the PMP no-match path.

Every backend loads each random set twice — region by region, then
whole — so the second load is served by the lowering memo (PMP and
overlay compile each distinct set once per process) and must still
start a new epoch, give the same verdicts, and, for a set over the
PMP entry budget, raise again.

Privileged semantics legitimately differ on PMP (M-mode bypasses
unlocked entries where the MPU consults ``priv`` permissions), so the
three-way property quantifies over unprivileged accesses only; the
overlay claims *exact* MPU semantics and is held to them at both
privilege levels.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.mpu import MPU, MPURegion, align_base
from repro.hw.overlay import OverlayProtection
from repro.hw.pmp import PmpProtection

sizes = st.sampled_from([32 << i for i in range(16)])
addresses = st.integers(min_value=0, max_value=0x3FFFFFFF)
probe_sizes = st.sampled_from([1, 2, 4, 8])


@st.composite
def mpu_regions(draw):
    size = draw(sizes)
    return MPURegion(
        number=draw(st.integers(0, 7)),
        base=align_base(draw(addresses), size),
        size=size,
        priv=draw(st.sampled_from(["NA", "RO", "RW"])),
        unpriv=draw(st.sampled_from(["NA", "RO", "RW"])),
        subregion_disable=draw(st.integers(0, 255)),
        enabled=draw(st.booleans()),
    )


region_sets = st.lists(mpu_regions(), max_size=5,
                       unique_by=lambda r: r.number)


def _load_twice(backend, region_list) -> None:
    """Install ``region_list`` region by region, then reload it whole:
    the reload is the same region set, so it hits the lowering memo,
    and it must still start a new configuration epoch."""
    for region in region_list:
        backend.set_region(region)
    epoch = backend.epoch
    backend.load_configuration(list(region_list))
    assert backend.epoch == epoch + 1
    assert backend._decisions == {}


@given(region_sets, addresses, probe_sizes, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_all_backends_agree_for_unprivileged(region_list, address, size,
                                             write, privdefena):
    mpu = MPU(enabled=True, privdefena=privdefena)
    overlay = OverlayProtection()
    overlay.privdefena = privdefena
    pmp = PmpProtection()
    pmp.privdefena = privdefena
    _load_twice(mpu, region_list)
    _load_twice(overlay, region_list)
    overlay.enabled = True
    backends = [mpu, overlay]
    try:
        _load_twice(pmp, region_list)
    except ValueError:
        # Over the 16-entry budget: reported loudly, on every load.
        for _ in range(2):
            with pytest.raises(ValueError, match="PMP entries"):
                pmp.load_configuration(list(region_list))
    else:
        pmp.enabled = True
        backends.append(pmp)
    verdicts = {b.name: b.allows(address, size, False, write)
                for b in backends}
    assert len(set(verdicts.values())) == 1, verdicts


@given(region_sets, addresses, probe_sizes,
       st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_overlay_matches_mpu_exactly(region_list, address, size,
                                     privileged, write, privdefena):
    """The overlay claims exact MPU semantics — including privileged
    permissions and the ``PRIVDEFENA`` default-map fall-through."""
    mpu = MPU(enabled=True, privdefena=privdefena)
    overlay = OverlayProtection()
    overlay.privdefena = privdefena
    _load_twice(mpu, region_list)
    _load_twice(overlay, region_list)
    overlay.enabled = True
    assert overlay.allows(address, size, privileged, write) == \
        mpu.allows(address, size, privileged, write)


@given(region_sets, st.lists(st.tuples(addresses, probe_sizes,
                                       st.booleans()),
                             min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_decision_caches_never_change_verdicts(region_list, probes):
    """Repeating any probe sequence gives the same verdicts — the
    word-granular decision caches are transparent."""
    for make in (lambda: MPU(enabled=True), OverlayProtection,
                 PmpProtection):
        backend = make()
        try:
            _load_twice(backend, region_list)
        except ValueError:
            return
        backend.enabled = True
        first = [backend.allows(a, s, False, w) for a, s, w in probes]
        second = [backend.allows(a, s, False, w) for a, s, w in probes]
        assert first == second
