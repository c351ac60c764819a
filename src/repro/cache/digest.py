"""Stable structural digests for the artifact cache.

A cache key must be identical across processes, ``PYTHONHASHSEED``
values, and machines, and must change whenever anything that could
change the produced artifact changes.  Three ingredients:

* the **module digest** — SHA-256 of the canonical ``.oir`` printer
  form (:func:`repro.ir.printer.print_module`), which captures every
  semantic property of the firmware (types, globals with initializers
  and sanitize ranges, function flags, instruction streams);
* the **configuration digest** — board profile, operation specs /
  ACES strategy, stack/heap sizes, build flavour;
* the **pipeline fingerprint** — SHA-256 over every ``repro`` source
  file plus :data:`CACHE_SCHEMA_VERSION`, so *any* change to a
  compiler, interpreter, or runtime stage invalidates every entry
  without anyone having to remember to bump a constant.  The schema
  version exists for the rare semantic change that lives outside the
  tree (e.g. a pickle-format decision in this package).

Digests are plain hex strings; everything is hashed through a single
``sha256`` so entries can be verified on load.
"""

from __future__ import annotations

import hashlib
import weakref
from pathlib import Path
from typing import Optional, Sequence

from ..hw.board import Board
from ..ir.module import Module
from ..ir.printer import print_module
from ..partition.operations import OperationSpec

# Bump when the on-disk entry format or digest recipe itself changes
# semantics in a way the source fingerprint cannot see.
CACHE_SCHEMA_VERSION = 1

_fingerprint_memo: dict[int, str] = {}
# Module digest per module object; entries die with their module.
_module_memo: "weakref.WeakKeyDictionary[Module, str]" = \
    weakref.WeakKeyDictionary()


def clear_digest_memos() -> None:
    """Drop memoised fingerprint and module digests: after editing a
    module that was already digested, or when a test monkeypatches the
    schema version.  ``repro.eval.workloads.clear_caches`` calls it."""
    _fingerprint_memo.clear()
    _module_memo.clear()


def pipeline_fingerprint() -> str:
    """Hash of every ``repro`` source file + the schema version.

    Computed once per process (the tree does not change under a
    running build); memoised per schema version so tests can
    monkeypatch :data:`CACHE_SCHEMA_VERSION` to simulate a semantic
    pipeline change.
    """
    version = CACHE_SCHEMA_VERSION
    cached = _fingerprint_memo.get(version)
    if cached is not None:
        return cached
    root = Path(__file__).resolve().parent.parent  # src/repro
    hasher = hashlib.sha256()
    hasher.update(f"schema={version}\n".encode())
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    fingerprint = hasher.hexdigest()
    _fingerprint_memo[version] = fingerprint
    return fingerprint


def module_digest(module: Module) -> str:
    """SHA-256 of the canonical printer form of ``module``.

    Memoised per module object, since every build, run and closure key
    of one module starts here.  Building and running a module leave
    its printed form unchanged; code that edits a module after
    digesting it must call :func:`clear_digest_memos`.
    """
    digest = _module_memo.get(module)
    if digest is None:
        digest = hashlib.sha256(print_module(module).encode()).hexdigest()
        _module_memo[module] = digest
    return digest


def board_canonical(board: Board) -> str:
    peripherals = sorted(
        board.peripherals.values(), key=lambda p: (p.base, p.name))
    body = ";".join(
        f"{p.name}@{p.base:#x}+{p.size:#x}{'!' if p.core else ''}"
        for p in peripherals)
    return (f"{board.name} flash={board.flash_base:#x}+{board.flash_size:#x} "
            f"sram={board.sram_base:#x}+{board.sram_size:#x} [{body}]")


def specs_canonical(specs: Sequence[OperationSpec]) -> str:
    # Spec order is semantic: it fixes operation indexes.
    return "|".join(
        f"{spec.entry}{{{','.join(f'{k}={v}' for k, v in sorted(spec.stack_info.items()))}}}"
        for spec in specs)


def build_digest(
    flavour: str,
    module: Module,
    board: Board,
    *,
    specs: Sequence[OperationSpec] = (),
    stack_size: int = 0,
    heap_size: int = 0,
    verify: bool = True,
) -> str:
    """Content key for one whole-image build.

    ``flavour`` is ``"opec"``, ``"vanilla"``, or ``"aces:<strategy>"``.
    """
    hasher = hashlib.sha256()
    for part in (
        "build", pipeline_fingerprint(), flavour,
        f"stack={stack_size} heap={heap_size} verify={int(verify)}",
        board_canonical(board), specs_canonical(specs),
        module_digest(module),
    ):
        hasher.update(part.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def run_digest(
    build_key: str,
    app_name: str,
    profile: str,
    *,
    entry: str = "main",
    max_instructions: int = 0,
    backend: str = "mpu",
) -> str:
    """Content key for one simulated run of a built image.

    The host-side stimuli (``Application.setup``) are a function of
    ``(app_name, profile)`` and of the source tree, which the build
    key's pipeline fingerprint already covers.  The enforcement
    ``backend`` is part of the key — switch/fault costs differ per
    substrate, so a warm hit must never serve one backend's cycles to
    another's run.
    """
    text = (f"run\0{build_key}\0{app_name}\0{profile}\0{entry}\0"
            f"{max_instructions}\0backend={backend}")
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(
    build_key: str,
    app_name: str,
    profile: str,
    *,
    max_instructions: int = 0,
    backend: str = "mpu",
) -> str:
    """Content key for one application's finished §6 rows (its row
    task in the evaluation harness), keyed off its OPEC build key.

    Every other input of the rows — the vanilla and ACES builds, the
    quick-profile task trace, the backend matrix's backends, the
    stimuli — is a function of the app name and the source tree,
    which the build key's pipeline fingerprint covers.
    """
    text = (f"rows\0{build_key}\0{app_name}\0{profile}\0"
            f"{max_instructions}\0backend={backend}")
    return hashlib.sha256(text.encode()).hexdigest()


def lane_digest(run_key: str, *, capacity: int, trace: bool) -> str:
    """Content key for one fleet lane's sim-domain telemetry, chained
    off the :func:`run_digest` of the run it records (build, app,
    profile, budget, backend).  The ring ``capacity`` decides which
    events the lane keeps and how many it drops; ``trace`` whether it
    keeps any."""
    text = f"lane\0{run_key}\0capacity={capacity}\0trace={int(trace)}"
    return hashlib.sha256(text.encode()).hexdigest()


def closures_digest(module: Module) -> str:
    """Content key for a module's compiled-closure bundle.

    Marshalled code objects are CPython-version-specific, so the
    implementation cache tag and marshal format version join the
    module digest; pipeline changes are covered by the store's
    fingerprint-versioned directory.
    """
    import marshal
    import sys

    text = (f"closures\0{module_digest(module)}\0"
            f"{sys.implementation.cache_tag}\0marshal={marshal.version}")
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(
    build_key: str,
    app_name: str,
    profile: str,
    entries: Sequence[str],
    *,
    max_instructions: int = 0,
) -> str:
    """Content key for a §6.4 task trace of the vanilla build."""
    text = (f"trace\0{build_key}\0{app_name}\0{profile}\0"
            f"{','.join(entries)}\0{max_instructions}")
    return hashlib.sha256(text.encode()).hexdigest()
