"""Persistent content-addressed artifact cache.

Compile each firmware once and reuse the artifacts across every
process: :mod:`repro.pipeline` and :mod:`repro.baselines` consult the
store before building, the evaluation harness
(:mod:`repro.eval.workloads`) additionally caches simulated runs, task
traces and each application's finished evaluation rows, the campaign
each firmware's report, ``repro fleet`` each lane's telemetry, and
``REPRO_JOBS`` workers share the store through the filesystem.  See
DESIGN.md, "Build caching" for the digest definition and the
byte-identity contract.
"""

from .digest import (
    CACHE_SCHEMA_VERSION,
    build_digest,
    clear_digest_memos,
    lane_digest,
    module_digest,
    pipeline_fingerprint,
    rows_digest,
    run_digest,
    trace_digest,
)
from .store import (
    ArtifactStore,
    CacheCounters,
    DEFAULT_ROOT,
    active_store,
    cache_root,
    counters_delta,
    counters_snapshot,
    reset_store_state,
)

__all__ = [
    "ArtifactStore",
    "CacheCounters",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_ROOT",
    "active_store",
    "build_digest",
    "cache_root",
    "clear_digest_memos",
    "counters_delta",
    "counters_snapshot",
    "lane_digest",
    "module_digest",
    "pipeline_fingerprint",
    "reset_store_state",
    "rows_digest",
    "run_digest",
    "trace_digest",
]
