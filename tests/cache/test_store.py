"""On-disk store behaviour: round-trips, corruption, configuration."""

import hashlib

import pytest

from repro.cache.store import (
    ArtifactStore,
    CacheCounters,
    active_store,
    cache_root,
    reset_store_state,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=tmp_path / "cache")


def _digest(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def test_put_get_roundtrip(store):
    payload = {"rows": [1, 2, 3], "name": "PinLock"}
    assert not store.path_for(_digest("a")).is_file()
    size = store.put(_digest("a"), payload)
    assert size > 0
    assert store.path_for(_digest("a")).is_file()
    assert store.counters.hits == 0
    assert store.get(_digest("a")) == payload
    assert store.counters.stores == 1
    assert store.counters.hits == 1
    assert store.counters.bytes_written == size


def test_miss_on_absent_entry(store):
    assert store.get(_digest("absent")) is None
    assert store.counters.misses == 1
    assert store.counters.corrupt == 0


def test_corrupted_entry_falls_back_to_miss(store):
    digest = _digest("corrupt-me")
    store.put(digest, [1, 2, 3])
    path = store.path_for(digest)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip a payload bit: hash check must catch it
    path.write_bytes(bytes(raw))
    assert path.is_file()  # until a get decodes it
    assert store.get(digest) is None
    assert store.counters.corrupt == 1
    assert not path.is_file()  # corrupt entries are evicted
    # The caller's cold rebuild repopulates the slot.
    store.put(digest, [1, 2, 3])
    assert store.get(digest) == [1, 2, 3]


def test_truncated_entry_falls_back_to_miss(store):
    digest = _digest("truncate-me")
    store.put(digest, {"x": 1})
    path = store.path_for(digest)
    path.write_bytes(path.read_bytes()[:10])
    assert store.get(digest) is None
    assert store.counters.corrupt == 1


def test_bad_magic_is_corrupt(store):
    digest = _digest("magic")
    store.put(digest, 42)
    store.path_for(digest).write_bytes(b"not-a-cache-entry\njunk\n")
    assert store.get(digest) is None
    assert store.counters.corrupt == 1


def test_verify_and_prune(store):
    for tag in ("a", "b", "c"):
        store.put(_digest(tag), tag)
    bad_path = store.path_for(_digest("b"))
    bad_path.write_bytes(b"garbage")
    ok, bad = store.verify()
    assert ok == 2 and bad == [bad_path]
    assert bad_path.exists()  # verify alone does not delete
    ok, bad = store.verify(prune=True)
    assert ok == 2 and not bad_path.exists()


def test_entry_count_bytes_and_clear(store):
    assert store.entry_count() == 0 and store.total_bytes() == 0
    store.put(_digest("a"), list(range(100)))
    store.put(_digest("b"), "text")
    assert store.entry_count() == 2
    assert store.total_bytes() > 0
    assert store.clear() == 2
    assert store.entry_count() == 0


def test_fingerprint_partitions_the_store(tmp_path):
    old = ArtifactStore(root=tmp_path, fingerprint="0" * 64)
    new = ArtifactStore(root=tmp_path, fingerprint="f" * 64)
    old.put(_digest("shared"), "stale")
    assert new.get(_digest("shared")) is None  # different version dir
    assert new.clear() == 1  # clear sweeps every fingerprint


def test_cache_root_configuration(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "/some/dir")
    assert str(cache_root()) == "/some/dir"
    for off in ("off", "OFF", "0", "none", "disabled", "false"):
        monkeypatch.setenv("REPRO_CACHE", off)
        assert cache_root() is None
        assert active_store() is None
    monkeypatch.delenv("REPRO_CACHE")
    assert cache_root() is not None  # default .repro-cache


def test_active_store_memoised_per_root(tmp_path, monkeypatch):
    reset_store_state()
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "one"))
    a = active_store()
    assert a is active_store()  # counters accumulate on one instance
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "two"))
    b = active_store()
    assert b is not a
    reset_store_state()


def test_counters_merge():
    total = CacheCounters()
    total.merge(CacheCounters(hits=2, bytes_read=10))
    total.merge({"hits": 1, "misses": 4, "bytes_written": 7})
    assert total.as_dict() == {
        "hits": 3, "misses": 4, "stores": 0, "corrupt": 0,
        "bytes_read": 10, "bytes_written": 7,
    }
