"""On-disk content-addressed artifact store.

Layout::

    <root>/<fingerprint[:16]>/<digest[:2]>/<digest>.bin

Partitioning by pipeline fingerprint means entries written by an older
(or newer) compiler can never even be *looked at* — version
invalidation is structural, not a header check.

Entry format: a magic line, the SHA-256 of the compressed payload, a
newline, then the zlib-compressed pickle.  Loads verify the hash
before unpickling; any mismatch, truncation, or unpickling error
counts as a corrupt entry, deletes the file best-effort, and reports a
miss so the caller falls back to a cold build.  Writes go to a
pid-suffixed temp file followed by :func:`os.replace`, so concurrent
``REPRO_JOBS`` workers can share one store without ever observing a
half-written entry.

Configuration (read per call, so tests can monkeypatch):

* ``REPRO_CACHE`` unset → ``.repro-cache/`` under the current
  directory;
* ``REPRO_CACHE=<dir>`` → that directory;
* ``REPRO_CACHE=off`` (or ``0`` / ``none`` / ``disabled``) → caching
  bypassed entirely (:func:`active_store` returns ``None``).
"""

from __future__ import annotations

import os
import pickle
import time
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator, Optional

from ..obs.events import CACHE_HIT, CACHE_MISS, CACHE_STORE, DOMAIN_HOST
from ..obs.recorder import active_recorder
from .digest import pipeline_fingerprint

_MAGIC = b"opec-cache-v1"
_OFF_VALUES = frozenset({"off", "0", "none", "disabled", "false"})
DEFAULT_ROOT = ".repro-cache"


@dataclass
class CacheCounters:
    """Cache traffic counters; additive across stores and processes."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def merge(self, other: "CacheCounters | dict") -> "CacheCounters":
        values = other if isinstance(other, dict) else asdict(other)
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + int(values.get(f.name, 0)))
        return self

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


# Process-wide aggregate over every store instance (workers report
# this back to the pool parent so merged rows can show totals).
GLOBAL_COUNTERS = CacheCounters()


def counters_snapshot() -> dict[str, int]:
    return GLOBAL_COUNTERS.as_dict()


def counters_delta(since: dict[str, int]) -> dict[str, int]:
    now = counters_snapshot()
    return {key: now[key] - since.get(key, 0) for key in now}


@dataclass
class ArtifactStore:
    """One content-addressed store rooted at ``root``."""

    root: Path
    fingerprint: str = field(default_factory=pipeline_fingerprint)
    counters: CacheCounters = field(default_factory=CacheCounters)

    # -- paths --------------------------------------------------------

    @property
    def version_dir(self) -> Path:
        return self.root / self.fingerprint[:16]

    def path_for(self, digest: str) -> Path:
        return self.version_dir / digest[:2] / f"{digest}.bin"

    def entry_paths(self) -> Iterator[Path]:
        if not self.version_dir.is_dir():
            return iter(())
        return self.version_dir.glob("*/*.bin")

    # -- read/write ---------------------------------------------------

    def get(self, digest: str) -> Optional[Any]:
        """The stored object, or ``None`` on miss/corruption."""
        # ``wall_us`` on the lookup events is host-side diagnostics
        # (hot vs. cold store latency in the fleet trace); it never
        # reaches a deterministic export.
        start = time.perf_counter()
        path = self.path_for(digest)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("misses")
            self._trace(CACHE_MISS, digest, wall_us=self._us(start))
            return None
        try:
            obj = self._decode(raw)
        except Exception:
            self._count("corrupt")
            self._count("misses")
            self._trace(CACHE_MISS, digest, corrupt=1,
                        wall_us=self._us(start))
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count("hits")
        self._count("bytes_read", len(raw))
        self._trace(CACHE_HIT, digest, bytes=len(raw),
                    wall_us=self._us(start))
        return obj

    def put(self, digest: str, obj: Any) -> int:
        """Store ``obj``; returns the entry size in bytes."""
        payload = zlib.compress(
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), 6)
        import hashlib

        entry = b"%s\n%s\n%s" % (
            _MAGIC, hashlib.sha256(payload).hexdigest().encode(), payload)
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_bytes(entry)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full store degrades to "no cache", never
            # to a failed build.
            try:
                tmp.unlink()
            except OSError:
                pass
            return 0
        self._count("stores")
        self._count("bytes_written", len(entry))
        self._trace(CACHE_STORE, digest, bytes=len(entry))
        return len(entry)

    @staticmethod
    def _decode(raw: bytes) -> Any:
        import hashlib

        magic, want_hash, payload = raw.split(b"\n", 2)
        if magic != _MAGIC:
            raise ValueError("bad magic")
        if hashlib.sha256(payload).hexdigest().encode() != want_hash:
            raise ValueError("payload hash mismatch")
        return pickle.loads(zlib.decompress(payload))

    # -- maintenance --------------------------------------------------

    def verify(self, prune: bool = False) -> tuple[int, list[Path]]:
        """Integrity-check every entry; returns (ok_count, bad_paths)."""
        ok, bad = 0, []
        for path in self.entry_paths():
            try:
                self._decode(path.read_bytes())
                ok += 1
            except Exception:
                bad.append(path)
                if prune:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return ok, bad

    def entry_count(self) -> int:
        return sum(1 for _ in self.entry_paths())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entry_paths())

    def clear(self) -> int:
        """Remove every entry of every fingerprint under ``root``."""
        import shutil

        removed = 0
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.is_dir():
                    removed += sum(1 for _ in child.glob("*/*.bin"))
                    shutil.rmtree(child, ignore_errors=True)
        return removed

    def _count(self, name: str, amount: int = 1) -> None:
        setattr(self.counters, name, getattr(self.counters, name) + amount)
        setattr(GLOBAL_COUNTERS, name,
                getattr(GLOBAL_COUNTERS, name) + amount)

    @staticmethod
    def _us(start: float) -> int:
        return int((time.perf_counter() - start) * 1e6)

    @staticmethod
    def _trace(kind: str, digest: str, **args: int) -> None:
        recorder = active_recorder()
        if recorder is not None:
            recorder.instant(kind, digest[:16], None, DOMAIN_HOST,
                             args=args or None)


_stores: dict[tuple[str, str], ArtifactStore] = {}


def cache_root() -> Optional[Path]:
    """The configured store root, or ``None`` when caching is off."""
    raw = os.environ.get("REPRO_CACHE", "").strip()
    if raw.lower() in _OFF_VALUES:
        return None
    return Path(raw) if raw else Path(DEFAULT_ROOT)


def active_store() -> Optional[ArtifactStore]:
    """The process-wide store for the current configuration.

    Instances are memoised per (root, fingerprint) so counters
    accumulate for the lifetime of the process; the environment is
    re-read on every call so tests can flip ``REPRO_CACHE``.
    """
    root = cache_root()
    if root is None:
        return None
    key = (str(root), pipeline_fingerprint())
    store = _stores.get(key)
    if store is None:
        store = ArtifactStore(root=root, fingerprint=key[1])
        _stores[key] = store
    return store


def reset_store_state() -> None:
    """Forget memoised stores and zero the global counters (tests)."""
    _stores.clear()
    for f in fields(GLOBAL_COUNTERS):
        setattr(GLOBAL_COUNTERS, f.name, 0)
